// Open-loop accounting for the paced phase: update i is due at
// start + i / rate whether or not earlier updates finished, and its
// latency runs from that due time (not from when the generator got to
// submit it) to the first snapshot a reader saw that covers it.  So a
// stall anywhere, generator included, is charged to every update it
// delays.

#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double start_s, double rate_per_s)
      : start_s_(start_s), rate_per_s_(rate_per_s) {}

  double Due(std::size_t i) const {
    return start_s_ + static_cast<double>(i) / rate_per_s_;
  }

 private:
  double start_s_;
  double rate_per_s_;
};

/// A reader saw, at time t_s, a snapshot covering the first `applied`
/// updates.
struct Observation {
  std::uint64_t applied = 0;
  double t_s = 0;
};

/// For the updates with 1-based ordinals first_ordinal ...
/// first_ordinal + count - 1, the earliest observation time whose
/// snapshot covers them; NaN for an update no observation covers.
std::vector<double> FirstVisibleTimes(std::vector<Observation> observations,
                                      std::uint64_t first_ordinal,
                                      std::size_t count);

/// visible[i] - schedule.Due(i), in seconds (NaN stays NaN).
std::vector<double> LatenciesFromDue(const OpenLoopSchedule& schedule,
                                     const std::vector<double>& visible);

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
