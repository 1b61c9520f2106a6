// Intra-query source parallelism (core/query.h TaskRunner + exec/task_pool.h
// + CE's EmissionFeed): running one NN stream per source on a helper pool
// must be invisible in the results — skylines byte-identical to sequential
// execution, stats deterministic across repeats, truncation still a
// confirmed prefix, and storage faults still a clean typed error. Suite
// names contain "Parallel" so tools/check.sh picks them up for the TSan
// pass.
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ce.h"
#include "core/skyline_query.h"
#include "exec/query_executor.h"
#include "exec/task_pool.h"
#include "gen/workloads.h"

namespace msq {
namespace {

// --- TaskPool ------------------------------------------------------------

TEST(TaskPoolParallelTest, RunsEveryTaskExactlyOnce) {
  TaskPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::atomic<int> runs{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&runs] { runs.fetch_add(1); });
  }
  pool.RunAll(std::move(tasks));
  EXPECT_EQ(runs.load(), 100);
  // The pool is reusable: a second batch completes too.
  std::vector<std::function<void()>> again;
  for (int i = 0; i < 7; ++i) again.push_back([&runs] { runs.fetch_add(1); });
  pool.RunAll(std::move(again));
  EXPECT_EQ(runs.load(), 107);
}

TEST(TaskPoolParallelTest, ZeroThreadPoolRunsInlineOnCaller) {
  TaskPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  const std::thread::id self = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back([&ran_on] { ran_on.push_back(std::this_thread::get_id()); });
  }
  pool.RunAll(std::move(tasks));
  ASSERT_EQ(ran_on.size(), 10u);
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, self);
}

TEST(TaskPoolParallelTest, ConcurrentBatchesFromManyCallersAllComplete) {
  TaskPool pool(2);
  std::atomic<int> runs{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&pool, &runs] {
      for (int round = 0; round < 20; ++round) {
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 8; ++i) {
          tasks.push_back([&runs] { runs.fetch_add(1); });
        }
        pool.RunAll(std::move(tasks));
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(runs.load(), 4 * 20 * 8);
}

// --- CE with a runner ----------------------------------------------------

std::unique_ptr<Workload> ParallelWorkload(std::size_t static_dims = 0) {
  WorkloadConfig config;
  config.network = NetworkGenConfig{240, 310, 7, 0.4};
  config.object_density = 1.0;
  config.object_seed = 23;
  config.static_attr_dims = static_dims;
  config.graph_buffer_frames = 48;
  config.index_buffer_frames = 48;
  return std::make_unique<Workload>(config);
}

void ExpectSameSkyline(const SkylineResult& got, const SkylineResult& want) {
  ASSERT_TRUE(got.status.ok());
  ASSERT_TRUE(want.status.ok());
  ASSERT_EQ(got.skyline.size(), want.skyline.size());
  for (std::size_t j = 0; j < got.skyline.size(); ++j) {
    EXPECT_EQ(got.skyline[j].object, want.skyline[j].object);
    EXPECT_EQ(got.skyline[j].vector, want.skyline[j].vector);
  }
}

TEST(CeParallelSourceTest, SkylineByteIdenticalToSequential) {
  // Both CE variants: the filtering two-phase (no static attrs) and the
  // generalized one (attrs present) consume the same feed abstraction.
  for (const std::size_t dims : {std::size_t{0}, std::size_t{2}}) {
    auto workload = ParallelWorkload(dims);
    TaskPool pool(3);
    for (std::uint64_t seed = 70; seed < 74; ++seed) {
      SkylineQuerySpec spec = workload->SampleQuery(4, seed);

      workload->ResetBuffers();
      const SkylineResult sequential = RunCe(workload->dataset(), spec);

      workload->ResetBuffers();
      spec.runner = &pool;
      const SkylineResult parallel = RunCe(workload->dataset(), spec);

      ExpectSameSkyline(parallel, sequential);
      // The merge consumes the identical emission sequence, so the
      // emission-derived counters agree exactly; only read-ahead (pages,
      // settled nodes) may exceed the sequential run's.
      EXPECT_EQ(parallel.stats.candidate_count,
                sequential.stats.candidate_count)
          << "dims=" << dims << " seed=" << seed;
      EXPECT_EQ(parallel.stats.skyline_size, sequential.stats.skyline_size);
      EXPECT_GE(parallel.stats.counters.settled_nodes,
                sequential.stats.counters.settled_nodes);
    }
  }
}

TEST(CeParallelSourceTest, StatsAreDeterministicAcrossRepeats) {
  auto workload = ParallelWorkload();
  TaskPool pool(4);
  SkylineQuerySpec spec = workload->SampleQuery(3, 91);
  spec.runner = &pool;

  workload->ResetBuffers();
  const SkylineResult first = RunCe(workload->dataset(), spec);
  workload->ResetBuffers();
  const SkylineResult second = RunCe(workload->dataset(), spec);

  ExpectSameSkyline(second, first);
  // Chunk boundaries depend on the deterministic consumption order, not on
  // thread scheduling, so even the read-ahead work is reproducible.
  EXPECT_EQ(first.stats.counters.settled_nodes,
            second.stats.counters.settled_nodes);
  EXPECT_EQ(first.stats.network_pages, second.stats.network_pages);
  EXPECT_EQ(first.stats.network_page_accesses,
            second.stats.network_page_accesses);
  EXPECT_EQ(first.stats.index_page_accesses,
            second.stats.index_page_accesses);
  EXPECT_GT(first.stats.network_page_accesses, 0u);
}

TEST(CeParallelSourceTest, TruncatedRunStillConfirmedPrefix) {
  auto workload = ParallelWorkload();
  TaskPool pool(3);
  SkylineQuerySpec spec = workload->SampleQuery(3, 55);

  workload->ResetBuffers();
  const SkylineResult full = RunCe(workload->dataset(), spec);
  ASSERT_TRUE(full.status.ok());
  ASSERT_GE(full.skyline.size(), 1u);
  std::set<ObjectId> full_ids;
  for (const SkylineEntry& entry : full.skyline) full_ids.insert(entry.object);

  spec.runner = &pool;
  spec.limits.max_page_accesses = 60;
  workload->ResetBuffers();
  const SkylineResult cut = RunCe(workload->dataset(), spec);
  ASSERT_TRUE(cut.status.ok());
  if (cut.truncated) {
    EXPECT_EQ(cut.truncation_reason, StatusCode::kResourceExhausted);
    // Progressive guarantee survives the read-ahead: every reported entry
    // is a true skyline point.
    for (const SkylineEntry& entry : cut.skyline) {
      EXPECT_TRUE(full_ids.count(entry.object) > 0)
          << "object " << entry.object << " not in the full skyline";
    }
  } else {
    ExpectSameSkyline(cut, full);
  }
}

TEST(CeParallelSourceTest, StorageFaultSurfacesAsCleanTypedError) {
  WorkloadConfig config;
  config.network = NetworkGenConfig{120, 150, 3, 0.0};
  config.object_density = 1.0;
  config.graph_buffer_frames = 16;
  config.index_buffer_frames = 16;
  config.fault_injection = FaultInjectionConfig{};
  Workload workload(config);
  TaskPool pool(3);

  SkylineQuerySpec spec = workload.SampleQuery(3, 8);
  spec.runner = &pool;
  workload.ResetBuffers();
  // Persistent read errors on the graph side: some production task's page
  // read fails past the retry policy, and the fault must cross the refill
  // barrier into the usual clean-error result — never a crash or a torn
  // skyline.
  workload.graph_faults()->FailNextReads(20, StatusCode::kIoError);
  const SkylineResult result = RunCe(workload.dataset(), spec);
  EXPECT_FALSE(result.status.ok());
  EXPECT_TRUE(result.skyline.empty());

  // The stack answers cleanly once the scripted faults are spent. A run
  // aborts at its first fault, so leftovers can survive it — every failing
  // retry drains at least one, bounding the loop.
  SkylineResult retry;
  for (int attempt = 0; attempt < 25; ++attempt) {
    workload.ResetBuffers();
    retry = RunCe(workload.dataset(), spec);
    if (retry.status.ok()) break;
  }
  EXPECT_TRUE(retry.status.ok());
  EXPECT_GE(retry.skyline.size(), 1u);
}

// --- Executor integration ------------------------------------------------

TEST(QueryExecutorParallelTest, SourcePoolBatchMatchesSequential) {
  auto workload = ParallelWorkload();
  std::vector<QueryRequest> requests;
  std::vector<SkylineResult> expected;
  for (std::uint64_t seed = 30; seed < 36; ++seed) {
    QueryRequest request;
    request.algorithm = Algorithm::kCe;
    request.spec = workload->SampleQuery(3, seed);
    expected.push_back(
        RunSkylineQuery(request.algorithm, workload->dataset(), request.spec));
    requests.push_back(std::move(request));
  }

  // Inter-query workers times intra-query helpers over the one shared
  // buffer pool — the TSan hammer shape — and still byte-identical
  // answers.
  QueryExecutor executor(workload->dataset(), /*workers=*/3);
  executor.EnableSourceParallelism(2);
  ASSERT_NE(executor.source_pool(), nullptr);
  const std::vector<SkylineResult> results = executor.RunBatch(requests);
  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ExpectSameSkyline(results[i], expected[i]);
  }
}

TEST(QueryExecutorParallelTest, SpecRunnerOverridesExecutorPool) {
  auto workload = ParallelWorkload();
  TaskPool caller_pool(1);
  QueryExecutor executor(workload->dataset(), /*workers=*/2);
  executor.EnableSourceParallelism(2);

  QueryRequest request;
  request.algorithm = Algorithm::kCe;
  request.spec = workload->SampleQuery(2, 44);
  request.spec.runner = &caller_pool;
  const SkylineResult result = executor.Submit(std::move(request)).get();
  EXPECT_TRUE(result.status.ok());
  EXPECT_GE(result.skyline.size(), 1u);
}

}  // namespace
}  // namespace msq
