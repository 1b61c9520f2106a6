#include "exec/query_executor.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace msq {
namespace {

// Translates one completed query into the flight-recorder summary the
// telemetry layer consumes: result-level fields plus the worker thread's
// ThreadCounters deltas over the query window (exact — the query ran
// entirely on this thread).
obs::FlightRecord MakeFlightRecord(Algorithm algorithm,
                                   const SkylineQuerySpec& spec,
                                   const SkylineResult& result,
                                   const obs::TraceContext& ctx,
                                   const obs::ThreadCounters& before,
                                   const obs::ThreadCounters& after) {
  obs::FlightRecord record;
  record.spec_digest = QuerySpecDigest(algorithm, spec);
  record.trace_id_hi = ctx.trace_id_hi;
  record.trace_id_lo = ctx.trace_id_lo;
  record.algorithm = static_cast<std::uint32_t>(algorithm);
  record.status_code = static_cast<std::int32_t>(result.status.code());
  record.truncation =
      result.truncated
          ? static_cast<std::uint32_t>(result.truncation_reason)
          : 0;
  record.source_count = static_cast<std::uint32_t>(spec.sources.size());
  record.skyline_size = result.skyline.size();
  record.wall_seconds = result.stats.total_seconds;
  record.counters = after - before;
  return record;
}

}  // namespace

QueryExecutor::QueryExecutor(Dataset dataset, std::size_t workers,
                             const obs::TelemetryConfig& telemetry_config)
    : QueryExecutor(std::move(dataset), workers,
                    std::unique_ptr<QueryCache>(), telemetry_config) {}

QueryExecutor::QueryExecutor(Dataset dataset, std::size_t workers,
                             const QueryCacheConfig& cache_config,
                             const obs::TelemetryConfig& telemetry_config)
    : QueryExecutor(std::move(dataset), workers,
                    std::make_unique<QueryCache>(cache_config),
                    telemetry_config) {}

QueryExecutor::QueryExecutor(Dataset dataset, std::size_t workers,
                             std::unique_ptr<QueryCache> cache,
                             const obs::TelemetryConfig& telemetry_config)
    : cache_(std::move(cache)), dataset_([&] {
        // An owned cache overrides nothing: the caller either passes a
        // cacheless view or wires their own shared cache instead.
        if (cache_ != nullptr) {
          MSQ_CHECK(dataset.cache == nullptr);
          dataset.cache = cache_.get();
        }
        return dataset;
      }()),
      telemetry_(std::make_unique<obs::ServingTelemetry>(telemetry_config)) {
  MSQ_CHECK(workers >= 1);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryExecutor::~QueryExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<SkylineResult> QueryExecutor::Submit(QueryRequest request) {
  MSQ_CHECK(request.spec.trace == nullptr);
  Job job;
  job.request = std::move(request);
  job.enqueued_at = MonotonicSeconds();
  std::future<SkylineResult> future = job.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    MSQ_CHECK(!stopping_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
  return future;
}

std::future<Status> QueryExecutor::SubmitExclusive(
    std::function<Status()> fn) {
  MSQ_CHECK(fn != nullptr);
  ExclusiveJob job;
  job.fn = std::move(fn);
  std::future<Status> future = job.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    MSQ_CHECK(!stopping_);
    exclusive_queue_.push_back(std::move(job));
  }
  // All workers: one will claim the barrier, the rest must re-evaluate
  // their dequeue predicate (normal dequeue is now barred).
  cv_.notify_all();
  return future;
}

std::vector<SkylineResult> QueryExecutor::RunBatch(
    std::vector<QueryRequest> requests) {
  std::vector<std::future<SkylineResult>> futures;
  futures.reserve(requests.size());
  for (QueryRequest& request : requests) {
    futures.push_back(Submit(std::move(request)));
  }
  std::vector<SkylineResult> results;
  results.reserve(futures.size());
  for (std::future<SkylineResult>& future : futures) {
    results.push_back(future.get());
  }
  return results;
}

std::size_t QueryExecutor::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void QueryExecutor::Quiesce() const {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return queue_.empty() && exclusive_queue_.empty() && active_ == 0;
  });
}

void QueryExecutor::WorkerLoop() {
  // The worker's private trace session. It tracks the global registry, so
  // it snapshots this thread's ThreadCounters (obs/trace.h) — per-query
  // span deltas stay exact while other workers share the pools.
  obs::TraceSession trace;
  // The worker's reusable plan collector: a query runs entirely on this
  // thread, so the collector needs no synchronization.
  obs::PlanCollector plan_collector;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        // Drained and stopping: exit. Otherwise nothing is claimable while
        // an exclusive job holds the barrier; with the barrier down, an
        // exclusive job outranks queued queries.
        if (stopping_ && queue_.empty() && exclusive_queue_.empty()) {
          return true;
        }
        if (exclusive_running_) return false;
        return !exclusive_queue_.empty() || !queue_.empty();
      });
      if (queue_.empty() && exclusive_queue_.empty()) {
        return;  // stopping_ and drained
      }
      if (!exclusive_queue_.empty()) {
        RunExclusive(lock);
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    SkylineQuerySpec spec = std::move(job.request.spec);
    const bool telemetry_on = telemetry_->enabled();
    // With telemetry on every query runs traced: the coarse phase spans
    // land in the worker's bounded span buffer and either feed tail
    // retention at completion or are dropped on the spot. The caller only
    // sees a profile when it asked for one.
    if (job.request.collect_profile || telemetry_on) spec.trace = &trace;
    // Full plan collection (and the fold below) runs only when the caller
    // asked (explain / collect_plan): building an ExecutionPlan per query
    // costs real allocations, which fast queries would pay on every
    // completion. The always-on /explainz pruning rollup is fed from the
    // QueryStats scalars instead (PlanStore::Account, below).
    const bool plan_on = job.request.collect_plan;
    if (plan_on) {
      plan_collector.Reset();
      spec.plan = &plan_collector;
    }
    obs::TraceContext ctx = job.request.trace_context;
    if (telemetry_on && !ctx.valid()) {
      ctx = obs::TraceContext::Mint(telemetry_->HeadSample());
    }
    // Head-sampled requests get detail spans (per-miss storage reads,
    // cache probes); everything else stays on coarse phase spans.
    trace.set_detail(telemetry_on && ctx.sampled);
    // RunSkylineQuery funnels every failure into the result's status, so
    // nothing throws across the promise. Anything unexpected still must not
    // kill the process via a promise left unset.
    try {
      obs::ThreadCounters before;
      if (telemetry_on) before = obs::ThreadLocalCounters();
      const double exec_started_at = MonotonicSeconds();
      SkylineResult result =
          RunSkylineQuery(job.request.algorithm, dataset_, spec);
      result.exec_started_at = exec_started_at;
      result.exec_finished_at = MonotonicSeconds();
      // Fold the plan before the profile can be detached below: the phase
      // rollup comes from this run's span tree.
      std::optional<obs::ExecutionPlan> plan;
      if (plan_on) {
        plan = obs::BuildExecutionPlan(
            AlgorithmName(job.request.algorithm), result.stats,
            result.profile.has_value() ? &*result.profile : nullptr,
            &plan_collector, result.truncated);
        result.plan = *plan;
      }
      if (telemetry_on) {
        obs::FlightRecord record =
            MakeFlightRecord(job.request.algorithm, spec, result, ctx,
                             before, obs::ThreadLocalCounters());
        record.sequence = telemetry_->RecordQuery(
            AlgorithmName(job.request.algorithm), record);
        result.flight_sequence = record.sequence;
        // Hand the profile to tail sampling; detach it from the result
        // unless the caller requested it (a copy is only paid when the
        // query is both slow/sampled and profiled by the caller).
        obs::QueryProfile profile;
        if (result.profile.has_value()) {
          if (job.request.collect_profile) {
            profile = *result.profile;
          } else {
            profile = *std::move(result.profile);
            result.profile.reset();
          }
        }
        const double queue_seconds =
            job.enqueued_at > 0.0
                ? std::max(0.0, exec_started_at - job.enqueued_at)
                : 0.0;
        telemetry_->CompleteRequest(ctx, record, queue_seconds,
                                    AlgorithmName(job.request.algorithm),
                                    std::move(profile));
        // Every completion feeds the per-algorithm pruning rollup (scalar
        // adds); only explain-requested plans enter the /explainz ring.
        telemetry_->plans().Account(AlgorithmName(job.request.algorithm),
                                    result.stats);
        if (plan.has_value()) {
          obs::RetainedPlan retained;
          retained.sequence = record.sequence;
          retained.trace_id = ctx.valid() ? ctx.TraceIdHex() : std::string();
          retained.plan = *std::move(plan);
          telemetry_->plans().Retain(std::move(retained));
        }
      }
      job.promise.set_value(std::move(result));
    } catch (...) {
      job.promise.set_exception(std::current_exception());
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      // Unconditional on active_ == 0: besides Quiesce (which re-checks
      // the queues), a claimed exclusive job waits on this cv for the
      // in-flight queries to drain.
      if (active_ == 0) idle_cv_.notify_all();
    }
  }
}

void QueryExecutor::RunExclusive(std::unique_lock<std::mutex>& lock) {
  // Raise the barrier first: no worker dequeues anything (query or
  // exclusive) past this point, so active_ can only drain.
  exclusive_running_ = true;
  idle_cv_.wait(lock, [this] { return active_ == 0; });
  ExclusiveJob job = std::move(exclusive_queue_.front());
  exclusive_queue_.pop_front();
  ++active_;
  lock.unlock();
  // Sole active job: the mutation may allocate pages, rewrite records, and
  // resweep in-memory tables with no reader in flight.
  Status status;
  std::exception_ptr failure;
  try {
    status = job.fn();
  } catch (const StorageFault& fault) {
    status = fault.status();
  } catch (...) {
    failure = std::current_exception();
  }
  // Still under the barrier: carry the cache over the step the job
  // recorded before any query (or the job's waiter) can see the new
  // epoch's world. Maintenance allocates; if it fails, dropping every
  // entry is always safe.
  if (dataset_.cache != nullptr && dataset_.graph_pager != nullptr &&
      dataset_.mapping != nullptr) {
    try {
      dataset_.cache->Maintain(*dataset_.graph_pager, *dataset_.mapping);
    } catch (...) {
      dataset_.cache->Invalidate();
    }
  }
  if (failure != nullptr) {
    job.promise.set_exception(failure);
  } else {
    job.promise.set_value(status);
  }
  lock.lock();
  --active_;
  exclusive_running_ = false;
  if (active_ == 0) idle_cv_.notify_all();
  lock.unlock();
  // Barrier down: wake everyone for the queued queries (and any further
  // exclusive jobs).
  cv_.notify_all();
}

}  // namespace msq
