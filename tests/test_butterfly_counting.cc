// Golden tests for butterfly counting on hand-computed graphs, plus the
// BE-Index support identity (Lemma 4) and VerifyBitrussNumbers itself.

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "butterfly/butterfly_counting.h"
#include "core/be_index_builder.h"
#include "core/verify.h"
#include "gen/chung_lu.h"
#include "gen/random_bipartite.h"
#include "graph/bipartite_graph.h"
#include "graph/vertex_priority.h"

namespace bitruss {
namespace {

BipartiteGraph CompleteBipartite(VertexId a, VertexId b) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < a; ++u) {
    for (VertexId l = 0; l < b; ++l) edges.emplace_back(u, l);
  }
  return BipartiteGraph(a, b, std::move(edges));
}

TEST(ButterflyCounting, CompleteBipartiteK33) {
  // K(3,3): C(3,2)^2 = 9 butterflies; each edge (u,v) is in
  // (d(u)-1)*(d(v)-1) = 4 of them.
  const BipartiteGraph g = CompleteBipartite(3, 3);
  EXPECT_EQ(CountTotalButterflies(g), 9u);
  const std::vector<SupportT> sup = CountEdgeSupports(g);
  ASSERT_EQ(sup.size(), 9u);
  for (const SupportT s : sup) EXPECT_EQ(s, 4u);
}

TEST(ButterflyCounting, CompleteBipartiteK22) {
  const BipartiteGraph g = CompleteBipartite(2, 2);
  EXPECT_EQ(CountTotalButterflies(g), 1u);
  for (const SupportT s : CountEdgeSupports(g)) EXPECT_EQ(s, 1u);
}

TEST(ButterflyCounting, PathHasNoButterflies) {
  // u0 - l0 - u1 - l1: three edges, no (2,2)-biclique.
  const BipartiteGraph g(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  EXPECT_EQ(CountTotalButterflies(g), 0u);
  for (const SupportT s : CountEdgeSupports(g)) EXPECT_EQ(s, 0u);
}

TEST(ButterflyCounting, StarHasNoButterflies) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId l = 0; l < 6; ++l) edges.emplace_back(0, l);
  const BipartiteGraph g(1, 6, std::move(edges));
  EXPECT_EQ(CountTotalButterflies(g), 0u);
  for (const SupportT s : CountEdgeSupports(g)) EXPECT_EQ(s, 0u);
}

TEST(ButterflyCounting, EmptyGraph) {
  const BipartiteGraph g(0, 0, {});
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(CountTotalButterflies(g), 0u);
  EXPECT_TRUE(CountEdgeSupports(g).empty());
}

TEST(ButterflyCounting, TwoButterfliesSharingAnEdge) {
  // K(3,2) has C(3,2) = 3 butterflies and every edge is in exactly 2.
  const BipartiteGraph g = CompleteBipartite(3, 2);
  EXPECT_EQ(CountTotalButterflies(g), 3u);
  for (const SupportT s : CountEdgeSupports(g)) EXPECT_EQ(s, 2u);
}

TEST(ButterflyCounting, PriorityRuleDoesNotChangeCounts) {
  const BipartiteGraph g = GenerateUniformBipartite(30, 25, 180, 7);
  const VertexPriority by_degree =
      VertexPriority::Compute(g, PriorityRule::kDegreeThenId);
  const VertexPriority by_id = VertexPriority::Compute(g, PriorityRule::kIdOnly);
  const PriorityAdjacency adj_degree(g, by_degree);
  const PriorityAdjacency adj_id(g, by_id);
  EXPECT_EQ(CountEdgeSupports(g, adj_degree), CountEdgeSupports(g, adj_id));
  EXPECT_EQ(CountTotalButterflies(g, adj_degree),
            CountTotalButterflies(g, adj_id));
}

TEST(ButterflyCounting, SupportSumIsFourTimesTotal) {
  ChungLuParams params;
  params.num_upper = 60;
  params.num_lower = 40;
  params.num_edges = 500;
  params.seed = 99;
  const BipartiteGraph g = GenerateChungLu(params);
  std::uint64_t sum = 0;
  for (const SupportT s : CountEdgeSupports(g)) sum += s;
  EXPECT_EQ(sum, 4 * CountTotalButterflies(g));
}

TEST(BEIndex, SupportIdentityMatchesDirectCounting) {
  // Lemma 4: sup(e) == sum over blooms containing e of (k(B) - 1).
  ChungLuParams params;
  params.num_upper = 50;
  params.num_lower = 35;
  params.num_edges = 400;
  params.seed = 1234;
  const BipartiteGraph g = GenerateChungLu(params);
  const VertexPriority priority = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, priority);
  const BEIndex index = BEIndexBuilder::Build(g, adj);
  EXPECT_EQ(index.ComputeSupports(), CountEdgeSupports(g, adj));
  EXPECT_GT(index.MemoryBytes(), 0u);
}

TEST(BEIndex, EdgeLiveCountSumsTwoPerWedge) {
  const BipartiteGraph g = CompleteBipartite(3, 3);
  const VertexPriority priority = VertexPriority::Compute(g);
  const PriorityAdjacency adj(g, priority);
  const BEIndex index = BEIndexBuilder::Build(g, adj);
  std::uint64_t incidences = 0;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    incidences += index.EdgeLiveCount(e);
  }
  EXPECT_EQ(incidences, 2 * index.wedge_e1.size());
}

TEST(BEIndex, ComputeSupportsThrowsPastThirtyTwoBits) {
  // Edge 0 sits in one wedge of each of two blooms whose compressed base
  // counts make its support sum 2^32 - 1 (fits) or 2^32 (must throw).
  BEIndex index;
  index.num_edges = 3;
  index.wedge_e1 = {0, 0};
  index.wedge_e2 = {1, 2};
  index.wedge_bloom = {0, 1};
  index.wedge_alive = {1, 1};
  index.edge_offsets = {0, 2, 3, 4};
  index.edge_wedges = {0, 1, 0, 1};
  index.bloom_live = {1, 1};
  constexpr SupportT kHalf = SupportT{1} << 31;
  index.bloom_base = {kHalf, kHalf - 1};
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::vector<SupportT> sup = index.ComputeSupports(p);
    EXPECT_EQ(sup[0], UINT32_MAX);
    EXPECT_EQ(sup[1], kHalf);
    EXPECT_EQ(sup[2], kHalf - 1);
  }
  index.bloom_base[1] = kHalf;
  EXPECT_THROW(index.ComputeSupports(), std::length_error);
  EXPECT_THROW(index.ComputeSupports(&pool), std::length_error);
}

TEST(Verify, AcceptsCorrectAndRejectsWrongNumbers) {
  const BipartiteGraph g = CompleteBipartite(3, 3);
  // K(3,3) is its own 4-bitruss and there is no 5-bitruss: phi(e) = 4.
  std::vector<SupportT> phi(g.NumEdges(), 4);
  std::string error;
  EXPECT_TRUE(VerifyBitrussNumbers(g, phi, &error)) << error;

  std::vector<SupportT> too_high(g.NumEdges(), 5);
  EXPECT_FALSE(VerifyBitrussNumbers(g, too_high, &error));
  EXPECT_FALSE(error.empty());

  std::vector<SupportT> uneven = phi;
  uneven[0] = 3;
  EXPECT_FALSE(VerifyBitrussNumbers(g, uneven));

  EXPECT_FALSE(VerifyBitrussNumbers(g, std::vector<SupportT>(3, 4)));
}

TEST(Verify, PathIsZeroBitruss) {
  const BipartiteGraph g(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  EXPECT_TRUE(VerifyBitrussNumbers(g, std::vector<SupportT>(3, 0)));
  EXPECT_FALSE(VerifyBitrussNumbers(g, std::vector<SupportT>(3, 1)));
}

}  // namespace
}  // namespace bitruss
