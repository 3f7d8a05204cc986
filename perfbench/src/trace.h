// In-memory spans for the traced run. A span records a name, its start and
// end on the steady clock, the span that caused it and the request it
// belongs to; the benchmark writes them out when it ends. Self time is a
// span's duration minus the part of it its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< Static string: a layer or call name.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;    ///< Index of the causing span, -1 for a root.
  int64_t request = -1;   ///< Request id shared by one request's spans.
};

/// Append-only span log for one thread. Begin/End are index based so a
/// vector reallocation never invalidates an open span.
class Tracer {
 public:
  int64_t Begin(const char* name, int64_t parent, int64_t request) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.request = request;
    span.start_ns = NowNs();
    spans_.push_back(span);
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }
  /// Moves `other`'s spans in, re-basing their parent indices.
  void Absorb(Tracer&& other);

 private:
  std::vector<Span> spans_;
};

/// Per-name self time, summed over spans (ns), and span counts.
struct SelfTimes {
  std::vector<std::string> names;
  std::vector<double> self_ns;
  std::vector<uint64_t> count;

  double MeanUs(const std::string& name) const;
};
SelfTimes ComputeSelfTimes(const std::vector<Span>& spans);

/// Writes one JSON object per span (name, start_ns, end_ns, parent,
/// request) to `path`. False on an I/O error.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
