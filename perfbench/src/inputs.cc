#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

namespace {

// The stand-ins keep the library suite's families and skews: D-style at
// a third of its scale and DBLP x10 for decomposition, Github at quarter
// scale and DBLP x1 for serving.  The hub graphs are scaled down from the
// suite so that a run holds several samples of every measurement.
constexpr StandIn kDStyleThird{"D-style-third", true, 4000, 167, 36667, 0.60,
                               0.90};
constexpr StandIn kDblpX10{"DBLP-x10", false, 150000, 120000, 900000, 0, 0};
constexpr StandIn kGithubQuarter{"Github-quarter", true, 1500, 1000, 7500, 0.80,
                                 0.70};
constexpr StandIn kDblp{"DBLP", false, 15000, 12000, 90000, 0, 0};

const WorkloadSpec kWorkloads[] = {
    // Peel carries the decomposition; fallback recompute carries serving.
    {"hub", kDStyleThird, kGithubQuarter, 700},
    // Priority + counting + index build carry the decomposition; submit,
    // WAL, publish and reads carry serving.
    {"sparse", kDblpX10, kDblp, 100000},
};

std::uint64_t PairKey(std::uint32_t upper, std::uint32_t lower) {
  return (static_cast<std::uint64_t>(upper) << 32) | lower;
}

std::vector<double> CumulativeWeights(std::uint32_t n, double exponent) {
  std::vector<double> cumulative(n, 0.0);
  double total = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i) + 1.0, -exponent);
    cumulative[i] = total;
  }
  for (double& c : cumulative) c /= total;
  return cumulative;
}

std::uint32_t SampleIndex(const std::vector<double>& cumulative, double r) {
  const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), r);
  const auto i = static_cast<std::size_t>(it - cumulative.begin());
  return static_cast<std::uint32_t>(std::min(i, cumulative.size() - 1));
}

}  // namespace

std::uint64_t DeriveSeed(std::uint64_t seed, const std::string& tag) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the tag
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return Rng(h ^ (seed * 0x2545f4914f6cdd1dull)).Next();
}

EdgeList Generate(const StandIn& spec, std::uint64_t seed) {
  EdgeList out;
  out.num_upper = spec.num_upper;
  out.num_lower = spec.num_lower;
  const std::uint64_t grid =
      static_cast<std::uint64_t>(spec.num_upper) * spec.num_lower;
  const std::uint64_t target = std::min<std::uint64_t>(spec.num_edges, grid);
  if (target == 0) return out;

  std::vector<double> upper_cdf;
  std::vector<double> lower_cdf;
  if (spec.chung_lu) {
    upper_cdf = CumulativeWeights(spec.num_upper, spec.upper_exponent);
    lower_cdf = CumulativeWeights(spec.num_lower, spec.lower_exponent);
  }
  std::unordered_set<std::uint64_t> taken;
  taken.reserve(target * 2);
  out.edges.reserve(target);
  Rng rng(seed);
  const std::uint64_t max_attempts = 128 * target + 1024;
  for (std::uint64_t attempt = 0;
       out.edges.size() < target && attempt < max_attempts; ++attempt) {
    std::uint32_t u = 0;
    std::uint32_t l = 0;
    if (spec.chung_lu) {
      u = SampleIndex(upper_cdf, rng.NextDouble());
      l = SampleIndex(lower_cdf, rng.NextDouble());
    } else {
      u = static_cast<std::uint32_t>(rng.Below(spec.num_upper));
      l = static_cast<std::uint32_t>(rng.Below(spec.num_lower));
    }
    if (taken.insert(PairKey(u, l)).second) out.edges.emplace_back(u, l);
  }
  for (std::uint32_t u = 0; u < spec.num_upper && out.edges.size() < target;
       ++u) {
    for (std::uint32_t l = 0; l < spec.num_lower && out.edges.size() < target;
         ++l) {
      if (taken.insert(PairKey(u, l)).second) out.edges.emplace_back(u, l);
    }
  }
  return out;
}

namespace {

std::vector<std::pair<std::uint32_t, std::uint32_t>> StratifiedDeletes(
    const EdgeList& seed, std::size_t count, Rng& rng) {
  std::vector<std::uint64_t> deg_upper(seed.num_upper, 0);
  std::vector<std::uint64_t> deg_lower(seed.num_lower, 0);
  for (const auto& [u, l] : seed.edges) {
    ++deg_upper[u];
    ++deg_lower[l];
  }
  std::vector<std::pair<std::uint64_t, std::size_t>> order;  // (weight, i)
  order.reserve(seed.edges.size());
  for (std::size_t i = 0; i < seed.edges.size(); ++i) {
    const auto& [u, l] = seed.edges[i];
    order.emplace_back(deg_upper[u] * deg_lower[l], i);
  }
  std::sort(order.begin(), order.end());
  count = std::min(count, order.size());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> picks;
  picks.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t lo = k * order.size() / count;
    const std::size_t hi = (k + 1) * order.size() / count;
    picks.push_back(seed.edges[order[lo + rng.Below(hi - lo)].second]);
  }
  for (std::size_t i = picks.size(); i > 1; --i) {
    std::swap(picks[i - 1], picks[rng.Below(i)]);
  }
  return picks;
}

}  // namespace

std::vector<StreamOp> RandomValidStream(const EdgeList& seed,
                                        std::size_t count,
                                        std::uint64_t rng_seed) {
  // Live edges with their positions, for O(1) removal by pair.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> live = seed.edges;
  std::unordered_map<std::uint64_t, std::size_t> position;
  position.reserve(live.size() + count);
  for (std::size_t i = 0; i < live.size(); ++i) {
    position[PairKey(live[i].first, live[i].second)] = i;
  }
  const auto remove = [&](std::size_t i) {
    position.erase(PairKey(live[i].first, live[i].second));
    live[i] = live.back();
    live.pop_back();
    if (i < live.size()) position[PairKey(live[i].first, live[i].second)] = i;
  };

  Rng rng(rng_seed);
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> planned =
      StratifiedDeletes(seed, count / 2, rng);
  std::size_t next_planned = 0;
  std::vector<StreamOp> ops;
  ops.reserve(count);
  while (ops.size() < count) {
    if (!live.empty() && ops.size() % 2 == 1) {
      // Planned seed edges are still live: each is deleted once and only
      // absent pairs are inserted.
      const std::size_t pick =
          next_planned < planned.size()
              ? position.at(PairKey(planned[next_planned].first,
                                    planned[next_planned].second))
              : rng.Below(live.size());
      ++next_planned;
      ops.push_back({false, live[pick].first, live[pick].second});
      remove(pick);
    } else {
      const auto u = static_cast<std::uint32_t>(rng.Below(seed.num_upper));
      const auto l = static_cast<std::uint32_t>(rng.Below(seed.num_lower));
      if (!position.emplace(PairKey(u, l), live.size()).second) continue;
      ops.push_back({true, u, l});
      live.emplace_back(u, l);
    }
  }
  return ops;
}

EdgeList ApplyStream(const EdgeList& seed, const std::vector<StreamOp>& ops,
                     std::size_t count) {
  std::unordered_set<std::uint64_t> present;
  present.reserve(seed.edges.size() + count);
  for (const auto& [u, l] : seed.edges) present.insert(PairKey(u, l));
  for (std::size_t i = 0; i < count && i < ops.size(); ++i) {
    const std::uint64_t key = PairKey(ops[i].upper, ops[i].lower);
    if (ops[i].insert) {
      present.insert(key);
    } else {
      present.erase(key);
    }
  }
  std::vector<std::uint64_t> keys(present.begin(), present.end());
  std::sort(keys.begin(), keys.end());
  EdgeList out;
  out.num_upper = seed.num_upper;
  out.num_lower = seed.num_lower;
  out.edges.reserve(keys.size());
  for (const std::uint64_t key : keys) {
    out.edges.emplace_back(static_cast<std::uint32_t>(key >> 32),
                           static_cast<std::uint32_t>(key));
  }
  return out;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.emplace_back(spec.name);
  return names;
}

Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed,
                  double seconds) {
  Inputs in;
  in.static_edges = Generate(spec.static_graph,
                             DeriveSeed(seed, spec.static_graph.name));
  in.serve_edges =
      Generate(spec.serve_graph, DeriveSeed(seed, spec.serve_graph.name));
  const double budget_per_round = seconds / kServeRounds;
  in.paced_rate = kPacedLoad * spec.measured_capacity;
  in.burst = static_cast<std::size_t>(std::max(
      1.0,
      std::round(spec.measured_capacity * kBurstShare * budget_per_round)));
  in.paced = static_cast<std::size_t>(std::max(
      1.0, std::round(in.paced_rate * kPacedShare * budget_per_round)));
  for (int r = 0; r < kServeRounds; ++r) {
    in.streams.push_back(
        RandomValidStream(in.serve_edges, in.burst + in.paced,
                          DeriveSeed(seed, "stream-" + std::to_string(r))));
  }
  return in;
}

}  // namespace perfbench
