#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

std::size_t SamplesBeyond(const std::vector<double>& samples, double q) {
  const double cut = Quantile(samples, q);
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [cut](double s) { return s > cut; }));
}

SupportedTail HighestSupportedPercentile(const std::vector<double>& samples,
                                         std::size_t min_beyond) {
  SupportedTail best;
  best.value = std::numeric_limits<double>::quiet_NaN();
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    const std::size_t beyond = SamplesBeyond(samples, p / 100);
    if (beyond < min_beyond) break;
    best = {p, Quantile(samples, p / 100), beyond};
  }
  return best;
}

}  // namespace perfbench
