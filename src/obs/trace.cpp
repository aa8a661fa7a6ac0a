#include "obs/trace.hpp"

#include "obs/json.hpp"

namespace rattrap::obs {

SpanRecord* TraceRecorder::record(SpanId id) {
  if (id == kNoSpan || id > spans_.size()) return nullptr;
  return &spans_[id - 1];
}

SpanId TraceRecorder::begin(std::uint64_t track, std::string_view name,
                            std::string_view category, sim::SimTime start) {
  if (!enabled_) return kNoSpan;
  SpanRecord span;
  span.track = track;
  span.name = std::string(name);
  span.category = std::string(category);
  span.start = start;
  spans_.push_back(std::move(span));
  return spans_.size();
}

void TraceRecorder::end(SpanId id, sim::SimTime end) {
  SpanRecord* span = record(id);
  if (span == nullptr || !span->open()) return;
  span->end = end < span->start ? span->start : end;
}

void TraceRecorder::put(SpanId id, std::string_view key,
                        std::string_view value) {
  SpanRecord* span = record(id);
  if (span == nullptr) return;
  for (auto& [k, v] : span->args) {
    if (k == key) {
      v = json_quote(value);
      return;
    }
  }
  span->args.emplace_back(std::string(key), json_quote(value));
}

void TraceRecorder::put(SpanId id, std::string_view key, double value) {
  SpanRecord* span = record(id);
  if (span == nullptr) return;
  for (auto& [k, v] : span->args) {
    if (k == key) {
      v = json_number(value);
      return;
    }
  }
  span->args.emplace_back(std::string(key), json_number(value));
}

SpanId TraceRecorder::instant(std::uint64_t track, std::string_view name,
                              std::string_view category, sim::SimTime when) {
  if (!enabled_) return kNoSpan;
  SpanRecord span;
  span.track = track;
  span.name = std::string(name);
  span.category = std::string(category);
  span.start = when;
  span.end = when;
  span.instant = true;
  spans_.push_back(std::move(span));
  return spans_.size();
}

const SpanRecord* TraceRecorder::find(SpanId id) const {
  if (id == kNoSpan || id > spans_.size()) return nullptr;
  return &spans_[id - 1];
}

void TraceRecorder::close_open_spans(sim::SimTime now) {
  for (auto& span : spans_) {
    if (span.open()) span.end = now < span.start ? span.start : now;
  }
}

std::string TraceRecorder::to_chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& span : spans_) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":" + json_quote(span.name);
    out += ",\"cat\":" + json_quote(span.category);
    if (span.instant) {
      out += ",\"ph\":\"i\",\"s\":\"t\"";
    } else {
      out += ",\"ph\":\"X\"";
      const sim::SimTime end = span.end < 0 ? span.start : span.end;
      out += ",\"dur\":" + json_number(end - span.start);
    }
    out += ",\"ts\":" + json_number(span.start);
    out += ",\"pid\":1,\"tid\":" +
           json_number(static_cast<std::uint64_t>(span.track));
    if (!span.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : span.args) {
        if (!first_arg) out.push_back(',');
        first_arg = false;
        out += json_quote(key) + ":" + value;
      }
      out.push_back('}');
    }
    out.push_back('}');
  }
  out += "]}";
  return out;
}

}  // namespace rattrap::obs
