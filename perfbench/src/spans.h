// In-memory spans for the traced run.  The benchmark opens a span around
// each call it makes into a layer; spans carry a parent and a request id
// (one id per benchmark operation) and are written out as JSON at exit.
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t id = 0;      ///< 1-based position in the recorder
  std::uint32_t parent = 0;  ///< 0 for a root span
  std::uint64_t request = 0;
  std::string name;
  double start_s = 0;  ///< seconds since the recorder was created
  double end_s = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a span and returns its id.
  std::uint32_t Begin(const std::string& name, std::uint32_t parent,
                      std::uint64_t request);
  /// Closes span `id` and returns its duration in seconds.
  double End(std::uint32_t id);
  /// Adds an already-timed span (used by tests and for intervals measured
  /// elsewhere).
  std::uint32_t Add(const std::string& name, std::uint32_t parent,
                    std::uint64_t request, double start_s, double end_s);

  double Now() const;
  const std::vector<Span>& spans() const { return spans_; }

  /// {"spans": [{"id", "parent", "request", "name", "start_s", "end_s"}]}
  std::string ToJson() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Self time of span `id`: its duration minus the union of its children's
/// intervals clipped to it.
double SelfTime(const std::vector<Span>& spans, std::uint32_t id);

/// Self time summed per span name.
std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
