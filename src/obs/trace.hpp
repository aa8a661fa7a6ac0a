// Span-based session tracing, exported as Chrome trace-event JSON.
//
// Every offload session gets one track (tid = request sequence) holding
// a root "session" span and child spans for each phase the paper's
// §III-B breakdown names: connect, dispatch, provision-or-reuse,
// transfer, execute, teardown.  Injected faults annotate the span they
// perturb (an instant event on the session track plus a fault counter
// arg on the active span), so a trace viewer shows exactly where a
// retransmission or crash landed.
//
// The recorder is disabled by default and every operation on a disabled
// recorder is a cheap no-op, so the engine can stay instrumented
// unconditionally.  Timestamps are simulated microseconds, which is
// exactly the `ts` unit the trace-event format wants.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace rattrap::obs {

/// Opaque span handle; 0 is "no span".
using SpanId = std::size_t;
inline constexpr SpanId kNoSpan = 0;

struct SpanRecord {
  std::uint64_t track = 0;  ///< tid in the exported trace
  std::string name;
  std::string category;
  sim::SimTime start = 0;
  sim::SimTime end = -1;  ///< -1 while open
  bool instant = false;
  /// key → pre-rendered JSON value ("3" or "\"miss\"").
  std::vector<std::pair<std::string, std::string>> args;

  [[nodiscard]] bool open() const { return !instant && end < 0; }
};

class TraceRecorder {
 public:
  void enable(bool on = true) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span on `track` at `start`; returns kNoSpan when disabled.
  SpanId begin(std::uint64_t track, std::string_view name,
               std::string_view category, sim::SimTime start);

  /// Closes `id` at `end`; no-op for kNoSpan or an already-closed span.
  void end(SpanId id, sim::SimTime end);

  /// Attaches an arg to `id` (last write wins on duplicate keys); kNoSpan
  /// — every span of an untraced run — costs one compare and no call.
  void annotate(SpanId id, std::string_view key, std::string_view value) {
    if (id != kNoSpan) put(id, key, value);
  }
  void annotate(SpanId id, std::string_view key, double value) {
    if (id != kNoSpan) put(id, key, value);
  }
  void annotate(SpanId id, std::string_view key, std::uint64_t value) {
    if (id != kNoSpan) put(id, key, static_cast<double>(value));
  }

  /// Zero-duration marker on `track` (faults, crashes, evictions).
  SpanId instant(std::uint64_t track, std::string_view name,
                 std::string_view category, sim::SimTime when);

  /// The span fault hooks should annotate (the session span whose
  /// handler is currently executing); kNoSpan outside session context.
  void set_active(SpanId id) { active_ = id; }
  [[nodiscard]] SpanId active() const { return active_; }

  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const {
    return spans_;
  }
  [[nodiscard]] const SpanRecord* find(SpanId id) const;

  /// Closes every open span at `now` (stranded sessions at drain time).
  void close_open_spans(sim::SimTime now);

  /// Chrome trace-event JSON ({"traceEvents":[...]}); loads directly in
  /// chrome://tracing and Perfetto.  Complete ("X") events for spans,
  /// instant ("i") events for markers, deterministic ordering (recording
  /// order).
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  SpanRecord* record(SpanId id);
  void put(SpanId id, std::string_view key, std::string_view value);
  void put(SpanId id, std::string_view key, double value);

  bool enabled_ = false;
  SpanId active_ = kNoSpan;
  std::vector<SpanRecord> spans_;
};

}  // namespace rattrap::obs
