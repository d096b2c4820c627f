// Result collection and printing.  Every metric is printed as a text line
// with its unit and sample count as soon as it is known; the last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every correctness check counts one attempted operation; a failed check
// counts one failed operation and makes the run incorrect.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// Prints a derived figure like a metric but leaves it out of the JSON.
  void Info(const std::string& name, double value, const std::string& unit,
            std::size_t samples);
  /// Counts `attempted` operations of which `failed` failed.
  void Count(const std::string& what, std::uint64_t attempted,
             std::uint64_t failed);
  void Check(const std::string& what, bool ok) { Count(what, 1, ok ? 0 : 1); }
  /// Prints an informational line.
  void Line(const std::string& text);

  bool Correct() const { return failed_ == 0; }

  /// Prints the failed share and the final JSON line.
  void Finish();

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
