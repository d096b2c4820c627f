// Seeded input generation for the benchmark: ports of the Chung-Lu and
// uniform bipartite generators, the workload stand-in parameters, and the
// random valid insert/delete stream the serving part replays.
//
// Everything here is the benchmark's own code and depends only on the
// seed, so a change to the library (its generators included) cannot
// change a workload's inputs.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast and bit-identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n); 0 when n == 0.
  std::uint64_t Below(std::uint64_t n) {
    if (n == 0) return 0;
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

  /// Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from the run seed and a tag.
std::uint64_t DeriveSeed(std::uint64_t seed, const std::string& tag);

/// A bipartite edge list with side-local endpoint ids.
struct EdgeList {
  std::uint32_t num_upper = 0;
  std::uint32_t num_lower = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
};

/// Parameters of one synthetic stand-in graph.
struct StandIn {
  const char* name;
  bool chung_lu;  ///< false: uniform
  std::uint32_t num_upper;
  std::uint32_t num_lower;
  std::uint32_t num_edges;
  double upper_exponent;  ///< Chung-Lu only: vertex i weighs (i+1)^-exp
  double lower_exponent;
};

/// Exactly min(num_edges, grid) distinct edges.  Chung-Lu draws each
/// endpoint from its side's power-law weights and resamples duplicates;
/// uniform draws both endpoints uniformly.  Either tops up in grid order
/// if sampling stalls.
EdgeList Generate(const StandIn& spec, std::uint64_t seed);

/// One update of the serving stream, addressed by endpoint pair.
struct StreamOp {
  bool insert = true;
  std::uint32_t upper = 0;
  std::uint32_t lower = 0;
};

/// `count` updates that are each valid when applied in order to `seed`:
/// inserts of a uniformly chosen absent pair alternate with deletes.  The
/// deletes take one seed edge from each of count/2 equal strata of the
/// seed edges ordered by endpoint degree product, in random order, so
/// every stream removes the same mix of hub and leaf edges (hub deletes
/// are what trigger expensive repairs); past the seed's edge count they
/// take uniformly chosen live edges.
std::vector<StreamOp> RandomValidStream(const EdgeList& seed,
                                        std::size_t count,
                                        std::uint64_t rng_seed);

/// The edge set after applying ops[0, count) to `seed`, in a
/// deterministic order.
EdgeList ApplyStream(const EdgeList& seed, const std::vector<StreamOp>& ops,
                     std::size_t count);

/// A workload: a static decomposition input and a serving input.
struct WorkloadSpec {
  const char* name;
  StandIn static_graph;
  StandIn serve_graph;
  /// The service's burst update_throughput on serve_graph, updates/s, as
  /// measured (rounded, over several seeds) on a 4-vCPU x86-64 host in
  /// its slower phases: its speed varies about 2x over hours, and the
  /// paced load must stay at or below kPacedLoad in every phase.  The
  /// burst size and the paced rate derive from it as fixed figures, so
  /// every run of a workload does the same work whatever the speed of the
  /// code.
  double measured_capacity;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Share of the --seconds budget the decompositions, the bursts and the
/// paced phases (each over all rounds) get; the bursts' share holds at the
/// measured capacity.
inline constexpr double kDecomposeShare = 0.5;
inline constexpr double kBurstShare = 0.3;
inline constexpr double kPacedShare = 0.2;
/// The paced phase's arrival rate as a share of the measured capacity:
/// well below it, so the latency is that of an unsaturated service.
inline constexpr double kPacedLoad = 0.3;
/// The serving part runs this many rounds, each on a fresh service with
/// its own stream; its metrics are medians over the rounds.
inline constexpr int kServeRounds = 5;

/// Generated inputs of one run.
struct Inputs {
  EdgeList static_edges;
  EdgeList serve_edges;
  /// One stream per serving round, each valid from serve_edges: burst
  /// ops, then paced ops.
  std::vector<std::vector<StreamOp>> streams;
  std::size_t burst = 0;  ///< per round
  std::size_t paced = 0;  ///< per round
  double paced_rate = 0;  ///< open-loop arrivals of the paced phase, 1/s
};

Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed,
                  double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
