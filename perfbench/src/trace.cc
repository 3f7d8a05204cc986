#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

void Tracer::Absorb(Tracer&& other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
  other.spans_.clear();
}

double SelfTimes::MeanUs(const std::string& name) const {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name && count[i] > 0) {
      return self_ns[i] / 1000.0 / static_cast<double>(count[i]);
    }
  }
  return 0.0;
}

SelfTimes ComputeSelfTimes(const std::vector<Span>& spans) {
  // A span's children run one after another on the span's thread, so the
  // part of it they cover is the sum of their (clipped) durations.
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  for (const Span& child : spans) {
    if (child.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(child.parent)];
    const int64_t lo = std::max(child.start_ns, parent.start_ns);
    const int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (hi > lo) self[static_cast<size_t>(child.parent)] -= static_cast<double>(hi - lo);
  }
  std::map<std::string, std::pair<double, uint64_t>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& entry = by_name[spans[i].name];
    entry.first += self[i];
    entry.second += 1;
  }
  SelfTimes out;
  for (const auto& [name, entry] : by_name) {
    out.names.push_back(name);
    out.self_ns.push_back(entry.first);
    out.count.push_back(entry.second);
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& span : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%lld,\"request\":%lld}\n",
                 span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.parent),
                 static_cast<long long>(span.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
