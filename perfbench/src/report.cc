#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_.push_back({name, value, unit});
  std::printf("metric %-34s %.6g %s (n=%zu)\n", name.c_str(), value,
              unit.c_str(), samples);
  std::fflush(stdout);
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit, std::size_t samples) {
  std::printf("info   %-34s %.6g %s (n=%zu)\n", name.c_str(), value,
              unit.c_str(), samples);
  std::fflush(stdout);
}

void Report::Count(const std::string& what, std::uint64_t attempted,
                   std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::printf("CHECK FAILED %s: %llu of %llu\n", what.c_str(),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
  } else {
    std::printf("check ok     %s (%llu)\n", what.c_str(),
                static_cast<unsigned long long>(attempted));
  }
  std::fflush(stdout);
}

void Report::Line(const std::string& text) {
  std::printf("%s\n", text.c_str());
  std::fflush(stdout);
}

void Report::Finish() {
  const double share = attempted_ == 0
                           ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  std::printf("failed_share %.6g of attempted ops (n=%llu)\n", share,
              static_cast<unsigned long long>(attempted_));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    // JSON has no NaN or infinity; a missing measurement reads -1.
    const double value = std::isfinite(m.value) ? m.value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
