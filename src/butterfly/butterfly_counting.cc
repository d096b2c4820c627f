#include "butterfly/butterfly_counting.h"

#include <atomic>

#include "butterfly/wedge_enumeration.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace bitruss {

namespace {

constexpr auto kNoopAnchorDone = [](const std::vector<VertexId>&) {};

// Support-count telemetry.  Each completed CountEdgeSupports pass is one
// run; the delegating overloads don't double-count (only the pool-taking
// overload computes and reports).
struct CountingMetrics {
  obs::Counter* runs;
  obs::Histogram* seconds;

  static const CountingMetrics& Get() {
    static const CountingMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Default();
      return CountingMetrics{
          registry.GetCounter("bitruss_butterfly_count_runs_total"),
          registry.GetHistogram("bitruss_butterfly_count_seconds",
                                obs::ExponentialBuckets(0.001, 2.0, 14)),
      };
    }();
    return metrics;
  }
};

// Anchors processed per deadline poll inside a chunk: the poll sits between
// sub-slices of the bloom enumeration, so expiry is detected within a
// bounded amount of extra work even on hub-heavy chunks.
constexpr VertexId kAnchorsPerPoll = 64;

// Chunks per thread: enough slack that the hub-heavy low-rank anchors (the
// bulk of the wedge work under the degree priority) spread across the pool
// instead of pinning to whichever thread drew the first chunk.
constexpr unsigned kChunksPerThread = 8;

// The one support-accumulation loop behind every CountEdgeSupports path:
// adds each bloom's (c - 1) to its wedge edges for the anchors in
// [begin, end), in slices of kAnchorsPerPoll anchors, and gives up before
// a slice once `should_stop()` returns true.  Returns false iff it gave up.
template <typename StopFn>
bool AccumulateSupports(const PriorityAdjacency& adj, VertexId begin,
                        VertexId end, internal::BloomScratch& scratch,
                        std::vector<SupportT>& sup, StopFn&& should_stop) {
  for (VertexId slice = begin; slice < end; slice += kAnchorsPerPoll) {
    if (should_stop()) return false;
    const VertexId slice_end =
        end - slice > kAnchorsPerPoll ? slice + kAnchorsPerPoll : end;
    internal::ForEachBloomRange<true>(
        adj, slice, slice_end, scratch, [](VertexId, SupportT) {},
        [&](VertexId, SupportT c, EdgeId anchor_edge, EdgeId far_edge) {
          sup[anchor_edge] += c - 1;
          sup[far_edge] += c - 1;
        },
        kNoopAnchorDone);
  }
  return true;
}

}  // namespace

std::vector<SupportT> CountEdgeSupports(const BipartiteGraph& g,
                                        const PriorityAdjacency& adj) {
  return CountEdgeSupports(g, adj, nullptr);
}

std::vector<SupportT> CountEdgeSupports(const BipartiteGraph& g) {
  const VertexPriority priority = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, priority);
  return CountEdgeSupports(g, adj);
}

std::vector<SupportT> CountEdgeSupports(const BipartiteGraph& g,
                                        const PriorityAdjacency& adj,
                                        ThreadPool* pool,
                                        const Deadline& deadline,
                                        bool* expired) {
  if (expired != nullptr) *expired = false;
  const EdgeId m = g.NumEdges();
  const VertexId n = adj.NumVertices();
  const CountingMetrics& metrics = CountingMetrics::Get();
  Timer timer;
  if (pool == nullptr || pool->NumThreads() <= 1) {
    std::vector<SupportT> sup(m, 0);
    internal::BloomScratch scratch;
    scratch.Prepare(n);
    if (!AccumulateSupports(adj, 0, n, scratch, sup,
                            [&] { return deadline.Expired(); })) {
      if (expired != nullptr) *expired = true;
      return {};
    }
    metrics.runs->Inc();
    metrics.seconds->Observe(timer.Seconds());
    return sup;
  }

  const unsigned num_threads = pool->NumThreads();
  std::vector<std::vector<SupportT>> partial(num_threads);
  std::vector<internal::BloomScratch> scratch(num_threads);
  std::atomic<bool> abort{false};
  // The first thread to see the deadline pass raises `abort`; the others
  // drop out at their next slice boundary.
  const auto should_stop = [&] {
    if (deadline.Expired()) abort.store(true, std::memory_order_relaxed);
    return abort.load(std::memory_order_relaxed);
  };

  pool->ParallelForChunks(
      0, n, num_threads * kChunksPerThread,
      [&](std::uint64_t begin, std::uint64_t end, unsigned, unsigned thread) {
        std::vector<SupportT>& sup = partial[thread];
        if (sup.empty()) {
          sup.assign(m, 0);
          scratch[thread].Prepare(n);
        }
        AccumulateSupports(adj, static_cast<VertexId>(begin),
                           static_cast<VertexId>(end), scratch[thread], sup,
                           should_stop);
      });

  if (abort.load(std::memory_order_relaxed)) {
    if (expired != nullptr) *expired = true;
    return {};
  }

  // Deterministic merge: sup(e) is a per-edge integer sum over the thread
  // partials, independent of which thread ran which chunk.
  std::vector<SupportT> sup(m, 0);
  pool->ParallelFor(0, m, [&](std::uint64_t begin, std::uint64_t end,
                              unsigned) {
    for (const std::vector<SupportT>& part : partial) {
      if (part.empty()) continue;
      for (std::uint64_t e = begin; e < end; ++e) {
        sup[e] += part[e];
      }
    }
  });
  metrics.runs->Inc();
  metrics.seconds->Observe(timer.Seconds());
  return sup;
}

std::uint64_t CountTotalButterflies(const BipartiteGraph& g,
                                    const PriorityAdjacency& adj) {
  (void)g;
  std::uint64_t total = 0;
  internal::ForEachBloom<false>(
      adj,
      [&](VertexId, SupportT c) {
        total += static_cast<std::uint64_t>(c) * (c - 1) / 2;
      },
      [](VertexId, SupportT, EdgeId, EdgeId) {}, kNoopAnchorDone);
  return total;
}

std::uint64_t CountTotalButterflies(const BipartiteGraph& g) {
  const VertexPriority priority = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, priority);
  return CountTotalButterflies(g, adj);
}

}  // namespace bitruss
