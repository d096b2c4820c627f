// Static decomposition part of a workload.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "butterfly/butterfly_counting.h"
#include "core/be_index_builder.h"
#include "core/decompose.h"
#include "core/peeling_state.h"
#include "core/verify.h"
#include "graph/vertex_priority.h"
#include "parts.h"
#include "stats.h"
#include "util/thread_pool.h"

namespace perfbench {

using bitruss::Algorithm;
using bitruss::BipartiteGraph;
using bitruss::SupportT;

namespace {

constexpr double kPcTau = 0.02;
/// The traced layer sum must account for the untraced BU++ Decompose time
/// within this share: the bound BENCHMARK.json sets on decompose_bupp_s.
constexpr double kLayerSumBound = 0.25;
/// Paired untraced/traced repeats of the BU++ pipeline in the traced run.
/// Their median ratio moved by +-13% between runs on a shared host at 3
/// and 5 repeats.
constexpr int kTracedRepeats = 7;

struct Variant {
  const char* metric;
  Algorithm algorithm;
};

constexpr Variant kVariants[] = {
    {"decompose_bu_s", Algorithm::kBU},
    {"decompose_bupp_s", Algorithm::kBUPlusPlus},
    {"decompose_pc_s", Algorithm::kPC},
};

/// Restricts the calling thread to the `index`-th CPU it was allowed to
/// run on when first called (modulo their count), or restores that whole
/// set when `index` is negative.  Single-threaded timings rotate over the
/// CPUs this way: on shared hosts the same code runs up to ~30% slower on
/// some CPUs than on others, and a thread otherwise stays on one of them
/// for a whole run.
void PinToCpu(int index) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  if (index < 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
    return;
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(index) % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

bitruss::DecomposeOptions OptionsFor(Algorithm algorithm,
                                     bool multithreaded) {
  bitruss::DecomposeOptions options;
  options.algorithm = algorithm;
  options.tau = kPcTau;
  options.parallel.num_threads = multithreaded ? MultiThreadCount() : 1;
  return options;
}

/// KBitrussEdges(g, k) must be exactly {e : phi(e) >= k} at the smallest
/// nonzero phi, the largest phi, and one past it (an empty bitruss).  The
/// full per-level verification is far too slow for the hub graph.
void SpotCheckKBitruss(const BipartiteGraph& g,
                       const std::vector<SupportT>& phi, Report& report) {
  std::vector<SupportT> levels;
  for (const SupportT p : phi) {
    if (p > 0) levels.push_back(p);
  }
  if (levels.empty()) levels.push_back(1);
  const SupportT lowest = *std::min_element(levels.begin(), levels.end());
  const SupportT highest = *std::max_element(levels.begin(), levels.end());
  std::vector<SupportT> ks = {lowest, highest, highest + 1};
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  for (const SupportT k : ks) {
    const std::vector<std::uint8_t> members = bitruss::KBitrussEdges(g, k);
    bool ok = members.size() == phi.size();
    for (std::size_t e = 0; ok && e < phi.size(); ++e) {
      ok = (members[e] != 0) == (phi[e] >= k);
    }
    report.Check("KBitrussEdges(k=" + std::to_string(k) + ") matches phi", ok);
  }
}

}  // namespace

BipartiteGraph BuildGraph(const EdgeList& edges) {
  return BipartiteGraph(edges.num_upper, edges.num_lower, edges.edges);
}

void ReleaseFreeHeap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

unsigned MultiThreadCount() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

void RunStatic(const BipartiteGraph& g, RunContext& ctx) {
  Report& report = *ctx.report;
  std::vector<double> times[std::size(kVariants)];
  std::vector<SupportT> reference;
  std::uint64_t runs = 0;
  std::uint64_t mismatches = 0;
  int sample = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t v = 0; v < std::size(kVariants); ++v) {
      const bitruss::DecomposeOptions options =
          OptionsFor(kVariants[v].algorithm, false);
      PinToCpu(sample++);
      ReleaseFreeHeap();
      const Clock::time_point t0 = Clock::now();
      const bitruss::BitrussResult result = bitruss::Decompose(g, options);
      times[v].push_back(SecondsSince(t0));
      if (reference.empty()) reference = result.phi;
      ++runs;
      if (result.timed_out || result.phi != reference) ++mismatches;
    }
  } while (SecondsSince(start) < kDecomposeShare * ctx.seconds);
  PinToCpu(-1);

  for (std::size_t v = 0; v < std::size(kVariants); ++v) {
    report.Metric(kVariants[v].metric, Median(times[v]), "s", times[v].size());
  }
  report.Count("BU, BU++ and PC give identical phi", runs, mismatches);
  SpotCheckKBitruss(g, reference, report);
}

StaticShares RunStaticTraced(const BipartiteGraph& g, RunContext& ctx) {
  Report& report = *ctx.report;
  SpanRecorder& spans = *ctx.spans;

  // Untimed, so the first timed call does not pay for cold memory.
  const bitruss::BitrussResult reference =
      bitruss::Decompose(g, OptionsFor(Algorithm::kBUPlusPlus, false));

  // Each repeat pairs the untraced BU++ Decompose with the traced pipeline
  // of the same calls on the same CPU; the metrics are medians over the
  // repeats.  The pipeline's root span is its end-to-end time: its layers
  // plus the teardown Decompose also pays.
  std::vector<double> untraced_s, traced_s, traced_ratio, layer_ratio,
      priority_s, count_s, index_s, peel_bu_s, peel_bupp_s;
  bitruss::PeelCounters bu_counters;
  bitruss::PeelCounters bupp_counters;
  std::uint64_t index_bytes = 0;
  std::uint64_t runs = 0;
  std::uint64_t mismatches = 0;
  for (int r = 0; r < kTracedRepeats; ++r) {
    PinToCpu(r);
    const Clock::time_point t0 = Clock::now();
    const bitruss::BitrussResult untraced =
        bitruss::Decompose(g, OptionsFor(Algorithm::kBUPlusPlus, false));
    untraced_s.push_back(SecondsSince(t0));

    const auto request = static_cast<std::uint32_t>(1 + r);
    const std::uint32_t root = spans.Begin("static.bupp_pipeline", 0, request);
    std::vector<SupportT> phi_bupp(g.NumEdges(), 0);
    bool bupp_ok = false;
    {
      std::uint32_t span = spans.Begin("graph.priority", root, request);
      const bitruss::VertexPriority priority =
          bitruss::VertexPriority::Compute(g);
      const bitruss::PriorityAdjacency adj(g, priority);
      priority_s.push_back(spans.End(span));

      span = spans.Begin("butterfly.count", root, request);
      std::vector<SupportT> support = bitruss::CountEdgeSupports(g, adj);
      count_s.push_back(spans.End(span));

      span = spans.Begin("core.index_build", root, request);
      bitruss::BEIndex index = bitruss::BEIndexBuilder::Build(g, adj);
      index_s.push_back(spans.End(span));
      index_bytes = index.MemoryBytes();

      // Decompose hands the Peeler its index and supports by move.
      span = spans.Begin("core.peel_bupp", root, request);
      bupp_counters = {};
      bupp_ok = bitruss::Peeler(std::move(index), std::move(support), {},
                                &bupp_counters)
                    .Run(bitruss::Peeler::Mode::kBatchBlooms, {},
                         [&](bitruss::EdgeId e, SupportT phi) {
                           phi_bupp[e] = phi;
                         });
      peel_bupp_s.push_back(spans.End(span));
    }
    traced_s.push_back(spans.End(root));
    traced_ratio.push_back(traced_s.back() / untraced_s.back());
    layer_ratio.push_back((priority_s.back() + count_s.back() +
                           index_s.back() + peel_bupp_s.back()) /
                          untraced_s.back());

    // BU peels a fresh index, built untimed.
    bool bu_ok = false;
    std::vector<SupportT> phi_bu(g.NumEdges(), 0);
    {
      const bitruss::VertexPriority priority =
          bitruss::VertexPriority::Compute(g);
      const bitruss::PriorityAdjacency adj(g, priority);
      bitruss::BEIndex index = bitruss::BEIndexBuilder::Build(g, adj);
      std::vector<SupportT> support = reference.original_support;
      const auto bu_request =
          static_cast<std::uint32_t>(1 + kTracedRepeats + r);
      const std::uint32_t span = spans.Begin("core.peel_bu", 0, bu_request);
      bu_counters = {};
      bu_ok = bitruss::Peeler(std::move(index), std::move(support), {},
                              &bu_counters)
                  .Run(bitruss::Peeler::Mode::kSingle, {},
                       [&](bitruss::EdgeId e, SupportT phi) {
                         phi_bu[e] = phi;
                       });
      peel_bu_s.push_back(spans.End(span));
    }

    runs += 3;
    if (untraced.timed_out || untraced.phi != reference.phi) ++mismatches;
    if (!bupp_ok || phi_bupp != reference.phi) ++mismatches;
    if (!bu_ok || phi_bu != reference.phi) ++mismatches;
  }
  PinToCpu(-1);

  const std::uint32_t mt_request = 1 + 2 * kTracedRepeats;
  const std::uint32_t mt_root =
      spans.Begin("static.multithreaded", 0, mt_request);
  const bitruss::VertexPriority priority = bitruss::VertexPriority::Compute(g);
  const bitruss::PriorityAdjacency adj(g, priority);
  bitruss::ThreadPool pool(MultiThreadCount());
  std::uint32_t span = spans.Begin("butterfly.count_mt", mt_root, mt_request);
  const std::vector<SupportT> support_mt =
      bitruss::CountEdgeSupports(g, adj, &pool);
  const double count_mt_s = spans.End(span);
  span = spans.Begin("core.index_build_mt", mt_root, mt_request);
  const std::uint64_t index_mt_bytes =
      bitruss::BEIndexBuilder::Build(g, adj, &pool).MemoryBytes();
  const double index_mt_s = spans.End(span);

  span = spans.Begin("core.decompose_bupp_mt", mt_root, mt_request);
  const bitruss::BitrussResult bupp_mt =
      bitruss::Decompose(g, OptionsFor(Algorithm::kBUPlusPlus, true));
  const double decompose_mt_s = spans.End(span);
  spans.End(mt_root);

  span = spans.Begin("core.pc", 0, mt_request + 1);
  const bitruss::BitrussResult pc =
      bitruss::Decompose(g, OptionsFor(Algorithm::kPC, false));
  spans.End(span);

  report.Count("Decompose and the traced BU, BU++ peels give identical phi",
               runs, mismatches);
  report.Check("PC phi equals Decompose", pc.phi == reference.phi);
  report.Check("multithreaded BU++ phi equals Decompose",
               bupp_mt.phi == reference.phi);
  report.Check("multithreaded counting and index equal sequential",
               support_mt == reference.original_support &&
                   index_mt_bytes == index_bytes);

  const std::size_t n = kTracedRepeats;
  report.Metric("graph.priority_s", Median(priority_s), "s", n);
  report.Metric("butterfly.count_s", Median(count_s), "s", n);
  report.Metric("butterfly.count_mt_s", count_mt_s, "s", 1);
  report.Metric("core.index_build_s", Median(index_s), "s", n);
  report.Metric("core.index_build_mt_s", index_mt_s, "s", 1);
  report.Metric("core.decompose_bupp_mt_s", decompose_mt_s, "s", 1);
  report.Metric("core.index_mb", static_cast<double>(index_bytes) / (1 << 20),
                "MiB", 1);
  const double bu_s = Median(peel_bu_s);
  const double bupp_s = Median(peel_bupp_s);
  report.Metric("core.peel_bu_s", bu_s, "s", n);
  report.Metric("core.peel_bupp_s", bupp_s, "s", n);
  const auto bu_updates = static_cast<double>(bu_counters.support_updates);
  const auto bupp_updates = static_cast<double>(bupp_counters.support_updates);
  report.Metric("core.updates_bu", bu_updates, "count", 1);
  report.Metric("core.updates_bupp", bupp_updates, "count", 1);
  report.Metric("core.ns_per_update_bu",
                bu_updates > 0 ? bu_s * 1e9 / bu_updates : 0, "ns", n);
  report.Metric("core.ns_per_update_bupp",
                bupp_updates > 0 ? bupp_s * 1e9 / bupp_updates : 0, "ns", n);
  report.Metric("core.pc_rounds", static_cast<double>(pc.pc_trace.size()),
                "count", 1);
  report.Metric("core.pc_updates",
                static_cast<double>(pc.counters.support_updates), "count", 1);
  report.Metric("core.pc_peak_index_mb",
                static_cast<double>(pc.counters.peak_index_bytes) / (1 << 20),
                "MiB", 1);
  report.Metric("core.pc_count_s", pc.counters.counting_seconds, "s", 1);
  report.Metric("core.pc_peel_s", pc.counters.peeling_seconds, "s", 1);

  // Tracing overhead: the traced end-to-end time over the untraced one.
  // Validity: the layers must account for the untraced call.
  const double untraced_median = Median(untraced_s);
  report.Metric("bench.trace_overhead_ratio", Median(traced_ratio), "ratio",
                n);
  report.Info("bench.trace_overhead_s", Median(traced_s) - untraced_median,
              "s", n);
  report.Info("bench.decompose_untraced_s", untraced_median, "s", n);
  const double layer_share = Median(layer_ratio);
  char what[160];
  std::snprintf(what, sizeof(what),
                "traced layer sum within +-%.0f%% of the untraced Decompose "
                "(measured %.3f x)",
                kLayerSumBound * 100, layer_share);
  report.Check(what, std::abs(layer_share - 1) <= kLayerSumBound);
  const double sum_s = Median(priority_s) + Median(count_s) +
                       Median(index_s) + bupp_s;
  return {bupp_s / sum_s, (sum_s - bupp_s) / sum_s};
}

}  // namespace perfbench
