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
// 70 schedules per algorithm = 210 fault-injected runs.
constexpr std::uint64_t kScheduleCount = 70;

// Per-read fault rates. Each run gets a fresh stack whose fault schedule is
// seeded per (algorithm, schedule), so one algorithm's reads never shift
// another's draws. A cold run reads only a handful of pages, so the rates
// are set for about one typed error in eight runs of every algorithm (at
// 0.01 / 0.0015 / 0.0015 on one stack per schedule, only EDC ever failed).
constexpr double kTransientReadRate = 0.03;
constexpr double kPersistentReadRate = 0.015;
constexpr double kCorruptReadRate = 0.015;

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

  // Per algorithm: runs that matched the reference, runs that failed
  // cleanly, faults injected.
  struct Outcomes {
    std::uint64_t clean = 0;
    std::uint64_t failed = 0;
    std::uint64_t injected = 0;
  };
  std::map<Algorithm, Outcomes> outcomes;
  for (std::size_t a = 0; a < std::size(kAlgorithms); ++a) {
    const Algorithm algorithm = kAlgorithms[a];
    Outcomes& out = outcomes[algorithm];
    for (std::uint64_t schedule = 1; schedule <= kScheduleCount; ++schedule) {
      WorkloadConfig config = BaseConfig(dir);
      FaultInjectionConfig faults;
      faults.seed = a * kScheduleCount + schedule;
      // Mostly-transient mix: retries absorb many faults (identical-result
      // runs), the rest surface as typed errors.
      faults.transient_read_rate = kTransientReadRate;
      faults.persistent_read_rate = kPersistentReadRate;
      faults.corrupt_read_rate = kCorruptReadRate;
      config.fault_injection = faults;
      Workload workload(config);  // built with the decorators disarmed

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
        ++out.clean;
      } else {
        EXPECT_TRUE(IsStorageError(result.status.code()))
            << AlgorithmName(algorithm) << " schedule " << schedule << ": "
            << result.status.ToString();
        EXPECT_TRUE(result.skyline.empty());
        ++out.failed;
      }
      out.injected += workload.graph_faults()->fault_stats().total() +
                      workload.index_faults()->fault_stats().total();
    }
  }

  // Every algorithm's sweep must genuinely exercise both outcomes, or its
  // rates are mis-tuned and the suite is vacuous for it.
  for (const Algorithm algorithm : kAlgorithms) {
    const Outcomes& out = outcomes[algorithm];
    EXPECT_GT(out.injected, 0u) << AlgorithmName(algorithm);
    EXPECT_GT(out.clean, 0u) << AlgorithmName(algorithm);
    EXPECT_GT(out.failed, 0u) << AlgorithmName(algorithm);
    EXPECT_EQ(out.clean + out.failed, kScheduleCount)
        << AlgorithmName(algorithm);
  }

  // A scripted schedule pins both the failure and the recovery for every
  // algorithm: persistent graph read errors must surface as a typed
  // storage error with an empty skyline, and the stack must answer the
  // reference once the scripted faults are spent. A run aborts at its
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
