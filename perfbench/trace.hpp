// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent, trace id): the benchmark opens one
// around every call it makes into a library layer, nests them by the
// calling thread's open-span stack, and keeps them in memory until the
// run ends, when write() dumps them as JSON lines.  Layer spans are leaves
// (only the experiment and campaign spans above them have children), so a
// layer's self time is the summed duration of its spans.
//
// A disabled tracer records nothing: open() returns 0 and Span is a no-op,
// so the untraced runs pay one branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace fnebench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: top level
  std::uint64_t trace = 0;   ///< one id per campaign or request
  std::string name;
  double start_ms = 0.0;  ///< since the tracer was constructed
  double end_ms = 0.0;

  [[nodiscard]] double duration_ms() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a span as a child of this thread's innermost open span.  A zero
  /// `trace` inherits the parent's trace id.
  std::uint64_t open(const std::string& name, std::uint64_t trace);
  void close(std::uint64_t id);

  /// Record an already finished span with explicit times (the load
  /// generator times requests from their scheduled send time).
  std::uint64_t record(const std::string& name, std::uint64_t trace, std::uint64_t parent,
                       TimePoint start, TimePoint end);

  /// Snapshot of every span recorded so far.
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Write the spans as JSON lines.
  void write(const std::string& path) const;

 private:
  [[nodiscard]] double ms(TimePoint t) const;

  bool enabled_;
  TimePoint origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  ///< spans_[id - 1]
};

/// RAII span on the calling thread.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name, std::uint64_t trace = 0)
      : tracer_(tracer), id_(tracer.open(name, trace)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

/// Parse a span file written by Tracer::write: every line must be a JSON
/// object, ids unique, end >= start, and every parent id must resolve.
/// Returns "" when valid, otherwise the first defect; `count` gets the
/// number of spans read.
[[nodiscard]] std::string verify_span_file(const std::string& path, std::size_t* count);

}  // namespace fnebench
