#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::uint32_t SpanRecorder::Begin(const std::string& name,
                                  std::uint32_t parent,
                                  std::uint64_t request) {
  const double now = Now();
  return Add(name, parent, request, now, now);
}

double SpanRecorder::End(std::uint32_t id) {
  Span& span = spans_.at(id - 1);
  span.end_s = Now();
  return span.end_s - span.start_s;
}

std::uint32_t SpanRecorder::Add(const std::string& name, std::uint32_t parent,
                                std::uint64_t request, double start_s,
                                double end_s) {
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_s = start_s;
  span.end_s = end_s;
  spans_.push_back(span);
  return span.id;
}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::string SpanRecorder::ToJson() const {
  std::string out = "{\"spans\": [";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"id\": %u, \"parent\": %u, \"request\": %llu, "
                  "\"name\": \"",
                  i == 0 ? "" : ",", s.id, s.parent,
                  static_cast<unsigned long long>(s.request));
    out += buf;
    out += s.name;  // span names are fixed identifiers, no escaping needed
    std::snprintf(buf, sizeof(buf), "\", \"start_s\": %.9f, \"end_s\": %.9f}",
                  s.start_s, s.end_s);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

double SelfTime(const std::vector<Span>& spans, std::uint32_t id) {
  const Span& span = spans.at(id - 1);
  std::vector<std::pair<double, double>> covered;
  for (const Span& child : spans) {
    if (child.parent != id) continue;
    const double lo = std::max(child.start_s, span.start_s);
    const double hi = std::min(child.end_s, span.end_s);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double union_length = 0;
  double reach = span.start_s;
  for (const auto& [lo, hi] : covered) {
    const double from = std::max(lo, reach);
    if (hi > from) union_length += hi - from;
    reach = std::max(reach, hi);
  }
  return (span.end_s - span.start_s) - union_length;
}

std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (const Span& span : spans) out[span.name] += SelfTime(spans, span.id);
  return out;
}

}  // namespace perfbench
