// Tests of the benchmark's own logic: quantile selection, span self time,
// input determinism and open-loop due-time accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "inputs.h"
#include "open_loop.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Quantile, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.0), 1);
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 1.0), 4);
  EXPECT_DOUBLE_EQ(Quantile(Range(101), 0.99), 100);
  EXPECT_DOUBLE_EQ(Median({7}), 7);
  EXPECT_TRUE(std::isnan(Quantile({}, 0.5)));
}

TEST(Quantile, HighestSupportedPercentileNeedsTenBeyond) {
  // 240 samples: p99 (237.61) has 3 beyond, p95 (228.05) has 12.
  EXPECT_EQ(SamplesBeyond(Range(240), 0.99), 3u);
  SupportedTail tail = HighestSupportedPercentile(Range(240));
  EXPECT_DOUBLE_EQ(tail.percentile, 95);
  EXPECT_EQ(tail.beyond, 12u);
  EXPECT_DOUBLE_EQ(tail.value, Quantile(Range(240), 0.95));

  // 1000 samples: exactly 10 beyond p99.
  tail = HighestSupportedPercentile(Range(1000));
  EXPECT_DOUBLE_EQ(tail.percentile, 99);
  EXPECT_EQ(tail.beyond, 10u);

  // Too few samples for any tail.
  tail = HighestSupportedPercentile(Range(15));
  EXPECT_DOUBLE_EQ(tail.percentile, 0);
  EXPECT_TRUE(std::isnan(tail.value));
}

TEST(Spans, SelfTimeSubtractsUnionOfClippedChildren) {
  SpanRecorder rec;
  const std::uint32_t root = rec.Add("root", 0, 1, 0.0, 10.0);
  const std::uint32_t a = rec.Add("child", root, 1, 1.0, 3.0);
  rec.Add("child", root, 1, 2.0, 5.0);   // overlaps a: union [1, 5]
  rec.Add("late", root, 1, 9.0, 12.0);   // clipped to [9, 10]
  rec.Add("grandchild", a, 1, 1.5, 2.5);  // charged to a, not root
  const std::vector<Span>& spans = rec.spans();
  EXPECT_DOUBLE_EQ(SelfTime(spans, root), 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(SelfTime(spans, a), 2.0 - 1.0);
  const auto by_name = SelfTimeByName(spans);
  EXPECT_DOUBLE_EQ(by_name.at("root"), 5.0);
  EXPECT_DOUBLE_EQ(by_name.at("child"), 1.0 + 3.0);
  EXPECT_DOUBLE_EQ(by_name.at("late"), 3.0);
}

TEST(Spans, BeginEndNestAndSerialize) {
  SpanRecorder rec;
  const std::uint32_t root = rec.Begin("outer", 0, 7);
  const std::uint32_t inner = rec.Begin("inner", root, 7);
  EXPECT_GE(rec.End(inner), 0.0);
  EXPECT_GE(rec.End(root), 0.0);
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, root);
  EXPECT_LE(rec.spans()[0].start_s, rec.spans()[1].start_s);
  EXPECT_GE(rec.spans()[0].end_s, rec.spans()[1].end_s);
  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"request\": 7"), std::string::npos);
}

TEST(Inputs, GeneratorsAreDeterministicPerSeed) {
  const StandIn chung_lu{"cl", true, 300, 40, 2000, 0.6, 0.9};
  const StandIn uniform{"un", false, 300, 200, 2000, 0, 0};
  for (const StandIn& spec : {chung_lu, uniform}) {
    const EdgeList a = Generate(spec, 42);
    const EdgeList b = Generate(spec, 42);
    const EdgeList c = Generate(spec, 43);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_NE(a.edges, c.edges);
    ASSERT_EQ(a.edges.size(), spec.num_edges);
    std::set<std::pair<std::uint32_t, std::uint32_t>> distinct(
        a.edges.begin(), a.edges.end());
    EXPECT_EQ(distinct.size(), a.edges.size());
    for (const auto& [u, l] : a.edges) {
      EXPECT_LT(u, spec.num_upper);
      EXPECT_LT(l, spec.num_lower);
    }
  }
  // A saturated grid is topped up exactly.
  EXPECT_EQ(Generate({"full", false, 5, 4, 20, 0, 0}, 1).edges.size(), 20u);
}

TEST(Inputs, StreamIsValidAndDeterministic) {
  const EdgeList seed = Generate({"g", true, 50, 40, 300, 0.8, 0.7}, 5);
  const std::vector<StreamOp> ops = RandomValidStream(seed, 2000, 9);
  ASSERT_EQ(ops.size(), 2000u);
  std::set<std::pair<std::uint32_t, std::uint32_t>> live(seed.edges.begin(),
                                                         seed.edges.end());
  for (const StreamOp& op : ops) {
    const std::pair<std::uint32_t, std::uint32_t> key{op.upper, op.lower};
    if (op.insert) {
      EXPECT_TRUE(live.insert(key).second);
    } else {
      EXPECT_EQ(live.erase(key), 1u);
    }
  }
  const EdgeList after = ApplyStream(seed, ops, ops.size());
  const std::set<std::pair<std::uint32_t, std::uint32_t>> applied(
      after.edges.begin(), after.edges.end());
  EXPECT_EQ(applied, live);

  const std::vector<StreamOp> again = RandomValidStream(seed, 2000, 9);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].insert, again[i].insert);
    EXPECT_EQ(ops[i].upper, again[i].upper);
    EXPECT_EQ(ops[i].lower, again[i].lower);
  }
}

TEST(Inputs, StreamDeletesTheSameHubMixEveryTime) {
  const EdgeList seed = Generate({"g", true, 400, 300, 3000, 0.8, 0.7}, 11);
  std::map<std::uint32_t, std::uint64_t> deg_upper, deg_lower;
  for (const auto& [u, l] : seed.edges) {
    ++deg_upper[u];
    ++deg_lower[l];
  }
  std::vector<std::uint64_t> products;
  for (const auto& [u, l] : seed.edges) {
    products.push_back(deg_upper[u] * deg_lower[l]);
  }
  std::sort(products.begin(), products.end());
  const std::uint64_t top_decile = products[products.size() * 9 / 10];
  // 1000 updates: 500 deletes, one from each of 500 strata of 6 edges, so
  // 50 strata lie in the top decile (ties at its boundary aside).
  for (const std::uint64_t rng_seed : {1, 2, 3, 4}) {
    std::set<std::pair<std::uint32_t, std::uint32_t>> deleted;
    std::size_t heavy = 0;
    for (const StreamOp& op : RandomValidStream(seed, 1000, rng_seed)) {
      if (op.insert) continue;
      EXPECT_TRUE(deleted.insert({op.upper, op.lower}).second);
      if (deg_upper[op.upper] * deg_lower[op.lower] > top_decile) ++heavy;
    }
    EXPECT_EQ(deleted.size(), 500u);
    EXPECT_NEAR(static_cast<double>(heavy), 50.0, 3.0) << rng_seed;
  }
}

TEST(Inputs, WorkloadInputsDependOnlyOnSeed) {
  for (const std::string& name : WorkloadNames()) {
    const WorkloadSpec* spec = FindWorkload(name);
    ASSERT_NE(spec, nullptr);
    // A tiny budget keeps the stream short; the graphs are full size.
    const Inputs a = MakeInputs(*spec, 3, 0.01);
    const Inputs b = MakeInputs(*spec, 3, 0.01);
    EXPECT_EQ(a.static_edges.edges, b.static_edges.edges);
    EXPECT_EQ(a.serve_edges.edges, b.serve_edges.edges);
    ASSERT_EQ(a.streams.size(), static_cast<std::size_t>(kServeRounds));
    for (std::size_t r = 0; r < a.streams.size(); ++r) {
      EXPECT_EQ(a.streams[r].size(), a.burst + a.paced);
      EXPECT_EQ(a.streams[r].size(), b.streams[r].size());
    }
    EXPECT_EQ(a.static_edges.edges.size(), spec->static_graph.num_edges);
    EXPECT_EQ(a.serve_edges.edges.size(), spec->serve_graph.num_edges);
  }
  EXPECT_EQ(FindWorkload("no-such-workload"), nullptr);
}

TEST(OpenLoop, LatencyRunsFromDueTimeNotSubmitTime) {
  // 100 updates/s from t = 1 s: due at 1.00, 1.01, 1.02, 1.03.
  const OpenLoopSchedule schedule(1.0, 100);
  EXPECT_DOUBLE_EQ(schedule.Due(0), 1.0);
  EXPECT_DOUBLE_EQ(schedule.Due(3), 1.03);

  // 50 burst updates came first, so the paced ordinals are 51..54.  Two
  // readers report out of order; a stall delays 52 and 53 to t = 1.05
  // (charged to them from their due times), and 54 is never seen.
  const std::vector<Observation> observations = {
      {53, 1.05}, {50, 0.90}, {51, 1.004}, {53, 1.06}};
  const std::vector<double> visible =
      FirstVisibleTimes(observations, 51, 4);
  ASSERT_EQ(visible.size(), 4u);
  EXPECT_DOUBLE_EQ(visible[0], 1.004);
  EXPECT_DOUBLE_EQ(visible[1], 1.05);
  EXPECT_DOUBLE_EQ(visible[2], 1.05);
  EXPECT_TRUE(std::isnan(visible[3]));

  const std::vector<double> latency = LatenciesFromDue(schedule, visible);
  EXPECT_NEAR(latency[0], 0.004, 1e-12);
  EXPECT_NEAR(latency[1], 0.04, 1e-12);
  EXPECT_NEAR(latency[2], 0.03, 1e-12);
  EXPECT_TRUE(std::isnan(latency[3]));
}

}  // namespace
}  // namespace perfbench
