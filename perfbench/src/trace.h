#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/// \file trace.h
/// Spans recorded by the benchmark around its own calls into the program's
/// modules. Each thread owns a SpanLog; spans stay in memory and are
/// written out, one JSON object per line, when the run ends. With tracing
/// off a ScopedSpan does nothing.

#include <algorithm>
#include <atomic>
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
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0: a root span
  uint64_t request = 0; ///< spans of one step share it
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  bool on() const { return on_; }
  /// Starts a new request: spans opened from now share its id.
  void NewRequest() { request_ = NextId(); }

  size_t Open(const char* name) {
    Span s;
    s.name = name;
    s.id = NextId();
    s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    s.request = request_;
    s.start_ns = NowNs();
    spans_.push_back(s);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void Close(size_t index) {
    spans_[index].end_ns = NowNs();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }
  void MoveInto(std::vector<Span>* out) {
    out->insert(out->end(), spans_.begin(), spans_.end());
    spans_.clear();
    stack_.clear();
  }

 private:
  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  bool on_;
  uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log != nullptr && log->on() ? log : nullptr) {
    if (log_ != nullptr) index_ = log_->Open(name);
  }
  ~ScopedSpan() { End(); }
  /// Closes the span early.
  void End() {
    if (log_ != nullptr) log_->Close(index_);
    log_ = nullptr;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t index_ = 0;
};

/// Median of \p v (0 when empty).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank \p pct-th percentile of \p v (0 when empty).
inline double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(pct / 100.0 * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
