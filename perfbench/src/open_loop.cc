#include "open_loop.h"

#include <algorithm>
#include <limits>

namespace perfbench {

std::vector<double> FirstVisibleTimes(std::vector<Observation> observations,
                                      std::uint64_t first_ordinal,
                                      std::size_t count) {
  std::vector<double> visible(count, std::numeric_limits<double>::quiet_NaN());
  std::sort(observations.begin(), observations.end(),
            [](const Observation& a, const Observation& b) {
              return a.t_s < b.t_s;
            });
  // Sweep in time order; each observation makes visible every ordinal
  // between the coverage reached so far and its own.
  std::uint64_t covered = first_ordinal - 1;
  const std::uint64_t last = first_ordinal + count - 1;
  for (const Observation& obs : observations) {
    const std::uint64_t upto = std::min(obs.applied, last);
    for (std::uint64_t ordinal = covered + 1; ordinal <= upto; ++ordinal) {
      visible[ordinal - first_ordinal] = obs.t_s;
    }
    covered = std::max(covered, upto);
  }
  return visible;
}

std::vector<double> LatenciesFromDue(const OpenLoopSchedule& schedule,
                                     const std::vector<double>& visible) {
  std::vector<double> latency(visible.size());
  for (std::size_t i = 0; i < visible.size(); ++i) {
    latency[i] = visible[i] - schedule.Due(i);
  }
  return latency;
}

}  // namespace perfbench
