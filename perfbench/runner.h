// The run-level pieces shared by the untraced run (main.cc) and the traced
// run (layers.cc): command-line options, the set-up stack, answer checks,
// and result printing.
#ifndef MSQ_PERFBENCH_RUNNER_H_
#define MSQ_PERFBENCH_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness.h"
#include "serve/server.h"

namespace perfbench {

struct Options {
  std::string config;  // workloads.json
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  std::string span_out;
};

// Everything one set-up builds: the dataset, the query pool, the
// executor, and (served workload) the running server.
struct Stack {
  Sizing sizing;
  std::unique_ptr<msq::Workload> workload;
  Pool pool;
  ChurnPlan plan;
  std::unique_ptr<msq::QueryExecutor> executor;
  std::unique_ptr<msq::serve::MsqServer> server;
  // Wait from SubmitExclusive to the start of each served mutation (ms).
  std::mutex barrier_mu;
  std::vector<double> barrier_ms;
};

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

// Cold single-thread RunSkylineQuery answers for every query-point set
// under CE, EDC and LBC; index qset * 3 + {0: CE, 1: EDC, 2: LBC}.
struct References {
  std::vector<msq::SkylineResult> results;
  std::vector<double> seconds;
  static std::size_t Index(const Pool& pool, std::size_t entry);
};

struct CheckOutcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;      // errors, truncations, mismatches
  std::size_t mismatches = 0;  // answers that differ from the reference
  bool accounting_ok = true;   // admission conservation (served)
  References references;       // served: cold answers on the final world
};

std::unique_ptr<msq::QueryExecutor> MakeExecutor(const Stack& stack,
                                                 std::size_t workers,
                                                 bool telemetry);
// Starts a server over `executor` with the workload's mutation handler and
// runs the warm-up pass through it. Null on failure.
std::unique_ptr<msq::serve::MsqServer> StartServer(
    Stack* stack, msq::QueryExecutor* executor, std::size_t event_capacity);
// One warm-up pass through `executor` (fills its cache when it has one).
void WarmExecutor(const Stack& stack, msq::QueryExecutor& executor);
// Builds the dataset, pool, executor and (served) server, and warms them.
std::unique_ptr<Stack> Setup(const Sizing& sizing, const Options& options);
// One closed-loop window of `outstanding` clients through the server when
// given, else the executor.
Window RunWindow(Stack& stack, msq::QueryExecutor& executor,
                 msq::serve::MsqServer* server, Stream& stream,
                 std::size_t outstanding, double seconds);

References ComputeReferences(const Pool& pool, const msq::Dataset& dataset,
                             std::size_t threads);
// Query-point sets whose CE/EDC/LBC answers fail or disagree.
std::size_t CountDisagreements(const Pool& pool, const References& refs);
// Executor workloads: every answer byte-identical to its reference.
CheckOutcome CheckExecutorSamples(const Pool& pool, const References& refs,
                                  const std::vector<const Window*>& windows);
// Served workload, after Shutdown: reply status, admission conservation,
// and warm == cold on the mutated world.
CheckOutcome CheckServed(Stack& stack,
                         const std::vector<const Window*>& windows,
                         msq::serve::MsqServer& server);

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics);

// The --traced run: per-layer metrics (layers.cc).
int RunTraced(const Sizing& sizing, const Options& options);

}  // namespace perfbench

#endif  // MSQ_PERFBENCH_RUNNER_H_
