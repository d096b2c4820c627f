// The two halves of a workload run: the static decomposition part and
// the serving part, each with an untimed-layers (end-to-end) form and a
// traced form that times every layer's public calls separately.

#ifndef PERFBENCH_PARTS_H_
#define PERFBENCH_PARTS_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "graph/bipartite_graph.h"
#include "inputs.h"
#include "report.h"
#include "serve/bitruss_service.h"
#include "spans.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One run's settings and sinks.  Span request ids name the benchmark
/// operation a span serves: 1-16 the static pipelines and peels, 20-23
/// the serving layers, 100 + i update i of the traced replay.
struct RunContext {
  const WorkloadSpec* spec = nullptr;
  double seconds = 0;       ///< the run's --seconds budget
  std::string work_dir;     ///< working directory for persistence
  Report* report = nullptr;
  SpanRecorder* spans = nullptr;  ///< non-null in the traced run
};

bitruss::BipartiteGraph BuildGraph(const EdgeList& edges);

/// Returns the heap's free memory to the system.  Called before each
/// measured call, so that peak_rss_mb counts what one call holds on top
/// of the live data, not what input generation and earlier repeats left
/// fragmented.
void ReleaseFreeHeap();

/// Thread count of the multithreaded decomposition: min(4, cores).
unsigned MultiThreadCount();

/// The service configuration both workloads use: library defaults, with
/// persistence on in `dir` (OS-buffered WAL, durable snapshots only at
/// drain-shutdown) and a queue the burst outruns on both workloads.
bitruss::BitrussServiceOptions ServiceOptions(const std::string& dir);

/// Decompose() with each variant, repeated for the decomposition share of
/// the budget, plus phi agreement and k-bitruss spot checks.
void RunStatic(const bitruss::BipartiteGraph& g, RunContext& ctx);
/// Shares of the traced BU++ pipeline (priority + counting + index build
/// + peel), for the workload premises.
struct StaticShares {
  double peel = 0;
  double prep = 0;  ///< priority + counting + index build
};
/// Per-layer timings of the same pipeline.
StaticShares RunStaticTraced(const bitruss::BipartiteGraph& g,
                             RunContext& ctx);

/// kServeRounds rounds of burst, paced phase and crash recovery against a
/// fresh BitrussService, with the final-state oracle check; the metrics
/// are medians over the rounds.
void RunServe(const bitruss::BipartiteGraph& seed, const Inputs& in,
              RunContext& ctx);
/// Per-layer timings of the serving stack on the first round's stream.
/// Returns the time IncrementalBitruss alone takes to apply the burst as a
/// share of the time the service takes to drain it.
double RunServeTraced(const bitruss::BipartiteGraph& seed, const Inputs& in,
                      RunContext& ctx);

/// Untimed service run over a prefix of the stream, so the timed phases
/// start with warm code and allocator state.
void WarmUpServe(const bitruss::BipartiteGraph& seed, const Inputs& in,
                 RunContext& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_PARTS_H_
