// In-memory span recording for the traced run, and the arithmetic on it.
//
// Spans are recorded by the benchmark's own code around public library
// calls, one recorder per rank thread, into storage reserved up front so
// recording does not allocate. Each span has a name, start, end, parent (the
// enclosing open span on the same rank) and the step it belongs to.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // string literal, never owned
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the same rank's span list, -1 for a root
  long step = -1;
  double bytes = 0.0;  // payload the span processed, 0 when not meaningful
  double dur_ms() const {
    return static_cast<double>(end_ns - start_ns) * 1e-6;
  }
};

class Recorder {
 public:
  explicit Recorder(std::size_t capacity) { spans_.reserve(capacity); }

  // Spans are recorded only while active; the traced run alternates blocks
  // of traced and untraced steps.
  void set_active(bool on) { active_ = on; }
  bool active() const { return active_; }

  // Opens a span and returns its index, or -1 when inactive or full (a full
  // recorder drops spans rather than reallocating).
  int open(const char* name, long step, double bytes) {
    if (!active_) return -1;
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    Span s;
    s.name = name;
    s.step = step;
    s.bytes = bytes;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = now_ns();
    spans_.push_back(s);
    const int idx = static_cast<int>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }
  void reserve_stack(std::size_t depth) { stack_.reserve(depth); }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  bool active_ = false;
  std::size_t dropped_ = 0;
};

// RAII span; a null recorder makes it a no-op (the untraced run).
class Scoped {
 public:
  Scoped(Recorder* rec, const char* name, long step, double bytes = 0.0)
      : rec_(rec), idx_(rec ? rec->open(name, step, bytes) : -1) {}
  ~Scoped() {
    if (rec_) rec_->close(idx_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Recorder* rec_;
  int idx_;
};

// Length of the union of [start, end) intervals, each clipped to [lo, hi).
inline std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (!open || a > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, b);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

// Self time of span `idx`: its duration minus the part of it covered by its
// direct children.
inline std::int64_t self_ns(const std::vector<Span>& spans, int idx) {
  const Span& s = spans[static_cast<std::size_t>(idx)];
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (std::size_t i = static_cast<std::size_t>(idx) + 1; i < spans.size();
       ++i) {
    if (spans[i].start_ns >= s.end_ns) break;
    if (spans[i].parent == idx)
      kids.emplace_back(spans[i].start_ns, spans[i].end_ns);
  }
  return (s.end_ns - s.start_ns) -
         covered_ns(std::move(kids), s.start_ns, s.end_ns);
}

// Chrome trace-event JSON (opens in Perfetto or chrome://tracing): one track
// per rank, complete ("X") events in microseconds. `metadata_json` is a JSON
// object embedded under "otherData".
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<const Recorder*>& ranks,
                               const std::string& metadata_json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = INT64_MAX;
  for (const Recorder* r : ranks)
    for (const Span& s : r->spans()) t0 = std::min(t0, s.start_ns);
  if (t0 == INT64_MAX) t0 = 0;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n"
                  "\"traceEvents\": [\n", metadata_json.c_str());
  bool first = true;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    std::fprintf(f, "%s{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
                    "\"tid\": %zu, \"args\": {\"name\": \"rank %zu\"}}",
                 first ? "" : ",\n", r, r);
    first = false;
    const std::vector<Span>& spans = ranks[r]->spans();
    for (const Span& s : spans) {
      std::fprintf(
          f,
          ",\n{\"ph\": \"X\", \"name\": \"%s\", \"pid\": 1, \"tid\": %zu, "
          "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"step\": %ld, "
          "\"parent\": \"%s\", \"bytes\": %.0f}}",
          s.name, r, static_cast<double>(s.start_ns - t0) * 1e-3,
          static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.step,
          s.parent >= 0 ? spans[static_cast<std::size_t>(s.parent)].name : "",
          s.bytes);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
