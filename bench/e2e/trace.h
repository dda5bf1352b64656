#ifndef DAREC_BENCH_E2E_TRACE_H_
#define DAREC_BENCH_E2E_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace darec::e2e {

using Clock = std::chrono::steady_clock;

/// One timed interval at a layer boundary. `parent` is the id of the span
/// that caused it (0 for a root). Times are microseconds since the tracer's
/// origin.
struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = 0;
  double start_us = 0.0;
  double end_us = 0.0;
  /// Display lane in the trace viewer.
  int64_t lane = 0;
};

/// In-memory span recorder for the traced run. Spans are kept until the
/// bench exits and written once as a Chrome trace-event file (viewable in
/// Perfetto), so recording never does I/O inside a timed region. A disabled
/// tracer records nothing; every call is then a cheap no-op, which is what
/// the untraced run uses.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// A fresh span id (ids are unique per tracer, never 0).
  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  double ToUs(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  /// Records a finished span with an id allocated earlier (children may be
  /// recorded before their parent closes).
  void Add(const std::string& name, int64_t id, int64_t parent,
           Clock::time_point start, Clock::time_point end, int64_t lane = 0);

  /// Bulk form for per-request spans collected on another thread.
  void AddAll(std::vector<Span> spans);

  /// Self time per span name, in seconds: each span's duration minus the
  /// part of its interval that its children's spans cover (children on
  /// several threads may overlap; their union is subtracted).
  std::map<std::string, double> SelfSeconds() const;

  size_t size() const;

  /// Writes every span as a Chrome trace-event JSON ("X" events, with the
  /// span and parent ids under args). Returns false when the file cannot be
  /// written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

}  // namespace darec::e2e

#endif  // DAREC_BENCH_E2E_TRACE_H_
