// Concurrent skyline query execution over one shared dataset.
//
// QueryExecutor owns a fixed pool of worker threads that drain a queue of
// skyline query requests. All workers run against the same Dataset — the
// same paged road network, R-tree, B+-tree, and the two shared buffer
// pools — which the sharded, pinned BufferManager (storage/buffer_manager.h)
// makes safe. Everything mutable a query needs beyond the pools (wavefront
// search state, candidate sets, the TraceSession) is private to the worker
// running it, so queries never synchronize with each other above the
// storage layer.
//
// Per-query accounting stays exact under concurrency: a query executes
// entirely on one worker thread, and the per-thread counter substrate
// (obs::ThreadCounters) gives its StatsScope/QueryGuard/TraceSession
// windows a view only that thread advances. Results therefore carry the
// same QueryStats — and, when requested, the same exactly-reconciling
// QueryProfile — as a single-threaded run of the same query.
//
// Failure model is unchanged from the synchronous entry points: a request
// never throws across the queue; its SkylineResult carries a typed error
// status instead (core/query.h).
#ifndef MSQ_EXEC_QUERY_EXECUTOR_H_
#define MSQ_EXEC_QUERY_EXECUTOR_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cache/query_cache.h"
#include "common/status.h"
#include "core/query.h"
#include "core/skyline_query.h"
#include "obs/telemetry.h"

namespace msq {

// One unit of work for the executor.
struct QueryRequest {
  Algorithm algorithm = Algorithm::kCe;
  // The query to run. `spec.trace` must be null — the executor supplies
  // the worker's own session (a caller-held session would be shared across
  // threads).
  SkylineQuerySpec spec;
  // When true the result carries a QueryProfile recorded by the worker's
  // private TraceSession. With telemetry enabled every query is traced
  // regardless (the profile feeds tail sampling); this flag only controls
  // whether the caller gets a copy on the result.
  bool collect_profile = false;
  // When true the result carries an ExecutionPlan (the EXPLAIN view): the
  // per-phase/pruning/cache breakdown built from this run's stats, profile,
  // and plan collector. With telemetry enabled plans are collected and
  // retained for /explainz regardless; this flag only controls whether the
  // caller's result includes a copy.
  bool collect_plan = false;
  // Request trace identity (obs/request_context.h). Invalid (the default)
  // makes the executor mint one at dispatch, with the head-sampling coin
  // deciding `sampled`. A sampled context additionally enables detail
  // spans (storage page reads, cache probes) for this query.
  obs::TraceContext trace_context;
};

// Fixed-size worker pool running skyline queries concurrently against one
// shared dataset. Thread-safe: any thread may Submit; RunBatch may be
// called from several threads at once (their results don't interleave).
// Destruction drains nothing — it finishes jobs already queued, then joins.
class QueryExecutor {
 public:
  // `dataset` is a non-owning view, copied in (so a Workload::dataset()
  // temporary is fine); the structures it points into must outlive the
  // executor. `workers` must be >= 1. Queries reuse nothing across each
  // other unless the dataset view already carries a QueryCache. Serving
  // telemetry (obs/telemetry.h) runs with `telemetry_config`: by default
  // every completion feeds the per-algorithm histograms and the flight
  // recorder, and slow-query detection stays off until thresholds are
  // configured; enabled=false gives a bare executor.
  QueryExecutor(Dataset dataset, std::size_t workers,
                const obs::TelemetryConfig& telemetry_config = {});

  // Same, plus an executor-owned cross-query cache (cache/query_cache.h)
  // shared by all workers: the dataset view handed to every query carries
  // it, so wavefronts and exact distances flow between queries.
  QueryExecutor(Dataset dataset, std::size_t workers,
                const QueryCacheConfig& cache_config,
                const obs::TelemetryConfig& telemetry_config = {});

  ~QueryExecutor();

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  // Enqueues one query; the future resolves to its result. Never blocks on
  // query execution.
  std::future<SkylineResult> Submit(QueryRequest request);

  // Enqueues the whole batch and waits for completion. Results are in
  // request order regardless of which worker finished when.
  std::vector<SkylineResult> RunBatch(std::vector<QueryRequest> requests);

  // Enqueues `fn` as an exclusive write job. The worker that claims it
  // first waits for every in-flight query to finish, then runs `fn` as the
  // only active job in the pool; queries queued behind it (and further
  // exclusive jobs) resume once it returns. This is the barrier the
  // dynamic-world mutations (gen/workloads.h) run under: they allocate and
  // rewrite pages that concurrent readers would otherwise race. Nothing
  // throws across the queue — a StorageFault from `fn` resolves the future
  // to its status. When the dataset view carries a cache, the worker calls
  // QueryCache::Maintain after `fn`, still under the barrier and before
  // the future resolves, so the cache keeps what the job's mutation
  // provably left unchanged (or, if maintenance throws, drops everything).
  std::future<Status> SubmitExclusive(std::function<Status()> fn);

  std::size_t worker_count() const { return workers_.size(); }

  // Queued-but-unstarted jobs (diagnostics; racy by nature).
  std::size_t pending() const;

  // Blocks until no queued or in-flight work remains. Telemetry reads
  // (flight recorder, trace store, plans, histograms) are stable
  // afterwards, provided no other thread is still submitting.
  void Quiesce() const;

  // The dataset view every query runs against (serving diagnostics read
  // the buffer pools through it).
  const Dataset& dataset() const { return dataset_; }

  // The executor-owned cross-query cache, or null when constructed without
  // one. Callers use it for stats and for Invalidate() on dataset reload.
  QueryCache* cache() const { return cache_.get(); }

  // The executor-owned serving-telemetry layer (always constructed; a
  // disabled config makes it inert). Flight records, retained traces,
  // plans, and the histogram registry hang off it.
  obs::ServingTelemetry& telemetry() const { return *telemetry_; }

 private:
  struct Job {
    QueryRequest request;
    std::promise<SkylineResult> promise;
    // MonotonicSeconds() at Submit; execute start minus this is the
    // queue-wait stage of the request's trace.
    double enqueued_at = 0.0;
  };

  struct ExclusiveJob {
    std::function<Status()> fn;
    std::promise<Status> promise;
  };

  QueryExecutor(Dataset dataset, std::size_t workers,
                std::unique_ptr<QueryCache> cache,
                const obs::TelemetryConfig& telemetry_config);

  void WorkerLoop();

  // Claims the front exclusive job. Entered with `lock` held and the
  // barrier down; drains in-flight queries, runs the job unlocked as the
  // only active one, then lowers the barrier. Returns with `lock`
  // released.
  void RunExclusive(std::unique_lock<std::mutex>& lock);

  // Declared before dataset_: the dataset view is rewired to point at the
  // owned cache during construction.
  std::unique_ptr<QueryCache> cache_;
  const Dataset dataset_;
  std::unique_ptr<obs::ServingTelemetry> telemetry_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Signalled each time a worker finishes a job (telemetry included) with
  // nothing left queued or running; Quiesce waits on it.
  mutable std::condition_variable idle_cv_;
  std::deque<Job> queue_;
  std::deque<ExclusiveJob> exclusive_queue_;
  std::size_t active_ = 0;  // jobs dequeued but not fully finished
  // An exclusive job has been claimed and not yet finished; all other
  // dequeuing (query or exclusive) is barred until it clears.
  bool exclusive_running_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace msq

#endif  // MSQ_EXEC_QUERY_EXECUTOR_H_
