// Storage fault stress suite: CE, EDC, and LBC on a file-backed workload
// under seeded randomized fault schedules and one scripted one. The
// acceptance bar per run is strict — the result is identical to the
// fault-free reference, or the query fails with a clean typed storage
// error. Never a crash, never a wrong skyline.
#include <sys/stat.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/skyline_query.h"
#include "gen/workloads.h"
#include "testing_support.h"

namespace msq {
namespace {

constexpr Algorithm kAlgorithms[] = {Algorithm::kCe, Algorithm::kEdc,
                                     Algorithm::kLbc};
// 70 schedules x 3 algorithms = 210 fault-injected runs.
constexpr std::uint64_t kScheduleCount = 70;

WorkloadConfig BaseConfig(const std::string& storage_dir) {
  WorkloadConfig config;
  config.network = NetworkGenConfig{220, 290, 5, 0.0};
  config.object_density = 1.0;
  config.object_seed = 11;
  config.storage_dir = storage_dir;
  // Small pools force real disk traffic, so fault schedules actually bite.
  config.graph_buffer_frames = 8;
  config.index_buffer_frames = 16;
  return config;
}

bool IsStorageError(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kIoError ||
         code == StatusCode::kCorruption;
}

TEST(FaultStressTest, CorrectResultOrCleanErrorUnderRandomFaults) {
  const std::string dir = ::testing::TempDir() + "/msq_fault_stress";
  ::mkdir(dir.c_str(), 0755);

  // Fault-free reference skylines, from the identical file-backed stack.
  std::map<Algorithm, std::vector<ObjectId>> reference;
  SkylineQuerySpec spec;
  {
    Workload clean(BaseConfig(dir));
    spec = clean.SampleQuery(3, 9);
    for (const Algorithm algorithm : kAlgorithms) {
      const auto result = RunSkylineQuery(algorithm, clean.dataset(), spec);
      ASSERT_TRUE(result.status.ok()) << AlgorithmName(algorithm);
      reference[algorithm] = testing::SkylineIds(result);
    }
    ASSERT_FALSE(reference[Algorithm::kCe].empty());
  }

  std::uint64_t clean_runs = 0, failed_runs = 0, injected_total = 0;
  for (std::uint64_t schedule = 1; schedule <= kScheduleCount; ++schedule) {
    WorkloadConfig config = BaseConfig(dir);
    FaultInjectionConfig faults;
    faults.seed = schedule;
    // Mostly-transient mix: retries absorb many faults (identical-result
    // runs), the rest surface as typed errors.
    faults.transient_read_rate = 0.01;
    faults.persistent_read_rate = 0.0015;
    faults.corrupt_read_rate = 0.0015;
    config.fault_injection = faults;
    Workload workload(config);  // built with the decorators disarmed

    for (const Algorithm algorithm : kAlgorithms) {
      workload.ResetBuffers();
      workload.graph_faults()->Arm();
      workload.index_faults()->Arm();
      const auto result = RunSkylineQuery(algorithm, workload.dataset(), spec);
      workload.graph_faults()->Disarm();
      workload.index_faults()->Disarm();

      if (result.status.ok()) {
        EXPECT_FALSE(result.truncated);
        EXPECT_EQ(testing::SkylineIds(result), reference[algorithm])
            << AlgorithmName(algorithm) << " schedule " << schedule;
        ++clean_runs;
      } else {
        EXPECT_TRUE(IsStorageError(result.status.code()))
            << AlgorithmName(algorithm) << " schedule " << schedule << ": "
            << result.status.ToString();
        EXPECT_TRUE(result.skyline.empty());
        ++failed_runs;
      }
    }
    injected_total += workload.graph_faults()->fault_stats().total() +
                      workload.index_faults()->fault_stats().total();
  }

  // The sweep must genuinely exercise both outcomes, or the rates are
  // mis-tuned and the suite is vacuous.
  EXPECT_GT(injected_total, 0u);
  EXPECT_GT(clean_runs, 0u);
  EXPECT_GT(failed_runs, 0u);
  EXPECT_EQ(clean_runs + failed_runs,
            kScheduleCount * std::size(kAlgorithms));

  // The random rates need not fail every algorithm, so script one
  // schedule that does: persistent graph read errors must surface as a
  // typed storage error with an empty skyline, and the stack must answer
  // the reference once the scripted faults are spent. A run aborts at its
  // first fault, so leftovers can survive it; every failing retry drains
  // at least one, bounding the loop.
  {
    WorkloadConfig config = BaseConfig(dir);
    config.fault_injection = FaultInjectionConfig{};  // scripted only
    Workload workload(config);
    for (const Algorithm algorithm : kAlgorithms) {
      workload.ResetBuffers();
      workload.graph_faults()->FailNextReads(20, StatusCode::kIoError);
      const auto failed = RunSkylineQuery(algorithm, workload.dataset(), spec);
      EXPECT_TRUE(IsStorageError(failed.status.code()))
          << AlgorithmName(algorithm) << ": " << failed.status.ToString();
      EXPECT_TRUE(failed.skyline.empty()) << AlgorithmName(algorithm);

      SkylineResult retry;
      for (int attempt = 0; attempt < 25; ++attempt) {
        workload.ResetBuffers();
        retry = RunSkylineQuery(algorithm, workload.dataset(), spec);
        if (retry.status.ok()) break;
      }
      ASSERT_TRUE(retry.status.ok()) << AlgorithmName(algorithm);
      EXPECT_EQ(testing::SkylineIds(retry), reference[algorithm])
          << AlgorithmName(algorithm);
    }
  }

  std::remove((dir + "/graph.pages").c_str());
  std::remove((dir + "/index.pages").c_str());
  ::rmdir(dir.c_str());
}

// Faults during a guarded query must not confuse truncation with failure:
// a storage error beats the budget flag, and a survivable schedule still
// honors the budget contract.
TEST(FaultStressTest, GuardrailsAndFaultsCompose) {
  const std::string dir = ::testing::TempDir() + "/msq_fault_guard";
  ::mkdir(dir.c_str(), 0755);

  WorkloadConfig config = BaseConfig(dir);
  FaultInjectionConfig faults;
  faults.seed = 3;
  faults.transient_read_rate = 0.01;
  config.fault_injection = faults;
  Workload workload(config);
  const auto spec_base = workload.SampleQuery(3, 9);

  for (std::uint64_t schedule = 1; schedule <= 20; ++schedule) {
    SkylineQuerySpec spec = spec_base;
    spec.limits.max_page_accesses = 50;
    workload.ResetBuffers();
    workload.graph_faults()->Arm();
    workload.index_faults()->Arm();
    const auto result =
        RunSkylineQuery(Algorithm::kCe, workload.dataset(), spec);
    workload.graph_faults()->Disarm();
    workload.index_faults()->Disarm();

    if (result.status.ok()) {
      // Completed or truncated cleanly under the budget.
      if (result.truncated) {
        EXPECT_EQ(result.truncation_reason, StatusCode::kResourceExhausted);
      }
    } else {
      EXPECT_TRUE(IsStorageError(result.status.code()))
          << result.status.ToString();
      EXPECT_TRUE(result.skyline.empty());
    }
  }

  std::remove((dir + "/graph.pages").c_str());
  std::remove((dir + "/index.pages").c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace msq
