// Order statistics over the benchmark's own samples.  Latency quantiles
// come from here, never from the library's fixed-bucket histograms, which
// clamp at their top bucket.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] by linear interpolation between closest ranks
/// (Hyndman-Fan type 7, as numpy's default); NaN for no samples.
double Quantile(std::vector<double> samples, double q);

inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// Samples strictly greater than the q-quantile, i.e. how well the tail
/// above it is supported.
std::size_t SamplesBeyond(const std::vector<double>& samples, double q);

/// The highest of the percentiles 50, 90, 95, 99, 99.9 that has at least
/// `min_beyond` samples beyond it, with its value; percentile 0 (and value
/// NaN) when even the median lacks support.
struct SupportedTail {
  double percentile = 0;
  double value = 0;
  std::size_t beyond = 0;
};
SupportedTail HighestSupportedPercentile(const std::vector<double>& samples,
                                         std::size_t min_beyond = 10);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
