#include "rpc/wire.hpp"

#include <cstring>

#include "core/access_control.hpp"
#include "core/qos/qos.hpp"
#include "net/message.hpp"
#include "rpc/buffer.hpp"
#include "workloads/workload.hpp"

namespace rattrap::rpc {

namespace {

/// Cap on variable-length strings inside messages (tenant names, radio
/// labels, error text).  The metrics JSON reply is the one long string;
/// it is capped by the frame size instead.
constexpr std::size_t kMaxStringBytes = 4096;

/// Opens a frame: reserves the length prefix, writes the opcode, and
/// patches the prefix on finish().
class FrameBuilder {
 public:
  FrameBuilder(std::vector<std::uint8_t>& out, Opcode opcode)
      : out_(out), start_(out.size()), writer_(out) {
    writer_.u32(0);  // patched by finish()
    writer_.u8(static_cast<std::uint8_t>(opcode));
  }

  [[nodiscard]] ByteWriter& w() { return writer_; }

  void finish() {
    const std::uint32_t length =
        static_cast<std::uint32_t>(out_.size() - start_ - kFrameHeaderBytes);
    std::memcpy(out_.data() + start_, &length_bytes(length), 4);
  }

 private:
  static const std::uint8_t (&length_bytes(std::uint32_t v))[4] {
    static thread_local std::uint8_t bytes[4];
    for (int i = 0; i < 4; ++i) {
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    return bytes;
  }

  std::vector<std::uint8_t>& out_;
  std::size_t start_;
  ByteWriter writer_;
};

bool valid_opcode(std::uint8_t code) {
  switch (static_cast<Opcode>(code)) {
    case Opcode::kOpenSession:
    case Opcode::kOpenSessionReply:
    case Opcode::kSubmit:
    case Opcode::kResult:
    case Opcode::kResultReply:
    case Opcode::kClose:
    case Opcode::kResultChunk:
    case Opcode::kCloseDone:
    case Opcode::kMetrics:
    case Opcode::kMetricsReply:
    case Opcode::kError:
      return true;
  }
  return false;
}

// -- field-level helpers ----------------------------------------------

void write_request(ByteWriter& w, const workloads::OffloadRequest& request) {
  w.u64(request.sequence);
  w.u32(request.device_id);
  w.i64(request.arrival);
  w.u8(static_cast<std::uint8_t>(request.task.kind));
  w.u64(request.task.seed);
  w.u32(request.task.size_class);
  w.u64(request.task.input_file_bytes);
  w.u64(request.task.param_bytes);
  w.u64(request.task.result_bytes);
  w.u32(request.task.io_ops);
  w.u32(request.task.control_rounds);
}

/// False → kBadPayload (reader exhaustion is checked by the caller).
bool read_request(ByteReader& r, workloads::OffloadRequest& request) {
  request.sequence = r.u64();
  request.device_id = r.u32();
  request.arrival = r.i64();
  const std::uint8_t kind = r.u8();
  if (r.ok() && kind >= workloads::kKindCount) return false;
  request.task.kind = static_cast<workloads::Kind>(kind);
  request.task.seed = r.u64();
  request.task.size_class = r.u32();
  request.task.input_file_bytes = r.u64();
  request.task.param_bytes = r.u64();
  request.task.result_bytes = r.u64();
  request.task.io_ops = r.u32();
  request.task.control_rounds = r.u32();
  return true;
}

void write_bool(ByteWriter& w, bool v) { w.u8(v ? 1 : 0); }

bool read_bool(ByteReader& r, bool& v) {
  const std::uint8_t raw = r.u8();
  if (r.ok() && raw > 1) return false;
  v = raw != 0;
  return true;
}

void write_outcome(ByteWriter& w, const core::RequestOutcome& outcome) {
  write_request(w, outcome.request);
  w.i64(outcome.phases.network_connection);
  w.i64(outcome.phases.runtime_preparation);
  w.i64(outcome.phases.data_transfer);
  w.i64(outcome.phases.computation);
  w.i64(outcome.completed_at);
  w.i64(outcome.response);
  w.i64(outcome.local_time);
  w.f64(outcome.speedup);
  w.f64(outcome.offload_energy_mj);
  w.f64(outcome.local_energy_mj);
  w.i64(outcome.upload_time);
  w.i64(outcome.download_time);
  w.u8(static_cast<std::uint8_t>(net::kMessageTypeCount));
  for (const std::uint64_t bytes : outcome.traffic.up) w.u64(bytes);
  for (const std::uint64_t bytes : outcome.traffic.down) w.u64(bytes);
  w.u32(outcome.env_id);
  write_bool(w, outcome.code_cache_hit);
  write_bool(w, outcome.rejected);
  w.u8(core::wire_code(outcome.reject_reason));
  w.i64(outcome.queue_wait);
  w.str(outcome.tenant);
  w.u8(static_cast<std::uint8_t>(outcome.qos_class));
  write_bool(w, outcome.deadline_missed);
  w.u32(outcome.dispatch_attempts);
  w.u32(outcome.connect_attempts);
  write_bool(w, outcome.recovered);
  write_bool(w, outcome.stranded);
  w.str(outcome.radio);
  write_bool(w, outcome.resumed);
}

bool read_outcome(ByteReader& r, core::RequestOutcome& outcome) {
  if (!read_request(r, outcome.request)) return false;
  outcome.phases.network_connection = r.i64();
  outcome.phases.runtime_preparation = r.i64();
  outcome.phases.data_transfer = r.i64();
  outcome.phases.computation = r.i64();
  outcome.completed_at = r.i64();
  outcome.response = r.i64();
  outcome.local_time = r.i64();
  outcome.speedup = r.f64();
  outcome.offload_energy_mj = r.f64();
  outcome.local_energy_mj = r.f64();
  outcome.upload_time = r.i64();
  outcome.download_time = r.i64();
  const std::uint8_t slots = r.u8();
  if (r.ok() && slots != net::kMessageTypeCount) return false;
  for (std::uint64_t& bytes : outcome.traffic.up) bytes = r.u64();
  for (std::uint64_t& bytes : outcome.traffic.down) bytes = r.u64();
  outcome.env_id = r.u32();
  if (!read_bool(r, outcome.code_cache_hit)) return false;
  if (!read_bool(r, outcome.rejected)) return false;
  const std::uint8_t reject = r.u8();
  if (r.ok()) {
    const std::optional<core::RejectReason> reason =
        core::reject_reason_from_wire(reject);
    if (!reason) return false;
    outcome.reject_reason = *reason;
  }
  outcome.queue_wait = r.i64();
  outcome.tenant = r.str(kMaxStringBytes);
  const std::uint8_t klass = r.u8();
  if (r.ok() && klass >= core::qos::kClassCount) return false;
  outcome.qos_class = static_cast<core::qos::PriorityClass>(klass);
  if (!read_bool(r, outcome.deadline_missed)) return false;
  outcome.dispatch_attempts = r.u32();
  outcome.connect_attempts = r.u32();
  if (!read_bool(r, outcome.recovered)) return false;
  if (!read_bool(r, outcome.stranded)) return false;
  outcome.radio = r.str(kMaxStringBytes);
  if (!read_bool(r, outcome.resumed)) return false;
  return true;
}

/// Reader state after a complete decode: exhaustion → kTruncated,
/// leftover bytes → kTrailingBytes.
DecodeError end_state(const ByteReader& r) {
  if (!r.ok()) return DecodeError::kTruncated;
  return r.done() ? DecodeError::kNone : DecodeError::kTrailingBytes;
}

/// Seals a Decoded<T> from reader state (see end_state).
template <typename T>
Decoded<T> seal(ByteReader& r, Decoded<T> decoded) {
  decoded.error = end_state(r);
  return decoded;
}

template <typename T>
Decoded<T> bad_payload() {
  Decoded<T> decoded;
  decoded.error = DecodeError::kBadPayload;
  return decoded;
}

}  // namespace

const char* to_string(Opcode opcode) {
  switch (opcode) {
    case Opcode::kOpenSession: return "open_session";
    case Opcode::kOpenSessionReply: return "open_session_reply";
    case Opcode::kSubmit: return "submit";
    case Opcode::kResult: return "result";
    case Opcode::kResultReply: return "result_reply";
    case Opcode::kClose: return "close";
    case Opcode::kResultChunk: return "result_chunk";
    case Opcode::kCloseDone: return "close_done";
    case Opcode::kMetrics: return "metrics";
    case Opcode::kMetricsReply: return "metrics_reply";
    case Opcode::kError: return "error";
  }
  return "?";
}

const char* to_string(DecodeError error) {
  switch (error) {
    case DecodeError::kNone: return "none";
    case DecodeError::kTruncated: return "truncated";
    case DecodeError::kOversizedFrame: return "oversized_frame";
    case DecodeError::kUnknownOpcode: return "unknown_opcode";
    case DecodeError::kBadPayload: return "bad_payload";
    case DecodeError::kTrailingBytes: return "trailing_bytes";
  }
  return "?";
}

// -- encoders ----------------------------------------------------------

void encode_open_session(const core::SessionConfig& config,
                         std::vector<std::uint8_t>& out) {
  FrameBuilder frame(out, Opcode::kOpenSession);
  frame.w().str(config.tenant);
  frame.w().u8(static_cast<std::uint8_t>(config.priority));
  frame.w().u32(config.tenant_weight);
  frame.w().i64(config.deadline);
  frame.w().u8(static_cast<std::uint8_t>(config.probe_ops.size()));
  for (const core::Operation op : config.probe_ops) {
    frame.w().u8(static_cast<std::uint8_t>(op));
  }
  frame.finish();
}

void encode_open_session_reply(const OpenSessionReply& reply,
                               std::vector<std::uint8_t>& out) {
  FrameBuilder frame(out, Opcode::kOpenSessionReply);
  frame.w().u8(core::wire_code(reply.reject));
  frame.w().u64(reply.stream_id);
  frame.finish();
}

void encode_submit(std::uint64_t stream_id,
                   const workloads::OffloadRequest& request,
                   std::vector<std::uint8_t>& out) {
  FrameBuilder frame(out, Opcode::kSubmit);
  frame.w().u64(stream_id);
  write_request(frame.w(), request);
  frame.finish();
}

void encode_result_request(std::uint64_t sequence,
                           std::vector<std::uint8_t>& out) {
  FrameBuilder frame(out, Opcode::kResult);
  frame.w().u64(sequence);
  frame.finish();
}

void encode_result_reply(const core::RequestOutcome* outcome,
                         std::vector<std::uint8_t>& out) {
  FrameBuilder frame(out, Opcode::kResultReply);
  frame.w().u8(outcome != nullptr ? 1 : 0);
  if (outcome != nullptr) write_outcome(frame.w(), *outcome);
  frame.finish();
}

void encode_close(std::uint64_t stream_id, std::vector<std::uint8_t>& out) {
  FrameBuilder frame(out, Opcode::kClose);
  frame.w().u64(stream_id);
  frame.finish();
}

void encode_result_chunk(const std::vector<core::RequestOutcome>& outcomes,
                         std::size_t first, std::size_t count,
                         std::vector<std::uint8_t>& out) {
  FrameBuilder frame(out, Opcode::kResultChunk);
  frame.w().u32(static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    write_outcome(frame.w(), outcomes[first + i]);
  }
  frame.finish();
}

void encode_close_done(std::uint64_t total, std::vector<std::uint8_t>& out) {
  FrameBuilder frame(out, Opcode::kCloseDone);
  frame.w().u64(total);
  frame.finish();
}

void encode_metrics_request(std::vector<std::uint8_t>& out) {
  FrameBuilder frame(out, Opcode::kMetrics);
  frame.finish();
}

void encode_metrics_reply(std::string_view json,
                          std::vector<std::uint8_t>& out) {
  FrameBuilder frame(out, Opcode::kMetricsReply);
  frame.w().str(json);
  frame.finish();
}

void encode_error(DecodeError error, std::string_view message,
                  std::vector<std::uint8_t>& out) {
  FrameBuilder frame(out, Opcode::kError);
  frame.w().u8(static_cast<std::uint8_t>(error));
  frame.w().str(message);
  frame.finish();
}

// -- decoders ----------------------------------------------------------

Decoded<core::SessionConfig> decode_open_session(const std::uint8_t* data,
                                                 std::size_t size) {
  ByteReader r(data, size);
  Decoded<core::SessionConfig> decoded;
  decoded.value.tenant = r.str(kMaxStringBytes);
  const std::uint8_t priority = r.u8();
  if (r.ok() && priority >= core::qos::kClassCount) {
    return bad_payload<core::SessionConfig>();
  }
  decoded.value.priority = static_cast<core::qos::PriorityClass>(priority);
  decoded.value.tenant_weight = r.u32();
  decoded.value.deadline = r.i64();
  const std::uint8_t probes = r.u8();
  for (std::uint8_t i = 0; r.ok() && i < probes; ++i) {
    const std::uint8_t op = r.u8();
    if (r.ok() && op >= core::kOperationCount) {
      return bad_payload<core::SessionConfig>();
    }
    decoded.value.probe_ops.push_back(static_cast<core::Operation>(op));
  }
  return seal(r, std::move(decoded));
}

Decoded<OpenSessionReply> decode_open_session_reply(const std::uint8_t* data,
                                                    std::size_t size) {
  ByteReader r(data, size);
  Decoded<OpenSessionReply> decoded;
  const std::uint8_t reject = r.u8();
  if (r.ok()) {
    const std::optional<core::RejectReason> reason =
        core::reject_reason_from_wire(reject);
    if (!reason) return bad_payload<OpenSessionReply>();
    decoded.value.reject = *reason;
  }
  decoded.value.stream_id = r.u64();
  return seal(r, std::move(decoded));
}

Decoded<SubmitRequest> decode_submit(const std::uint8_t* data,
                                     std::size_t size) {
  ByteReader r(data, size);
  Decoded<SubmitRequest> decoded;
  decoded.value.stream_id = r.u64();
  if (!read_request(r, decoded.value.request)) {
    return bad_payload<SubmitRequest>();
  }
  return seal(r, std::move(decoded));
}

Decoded<std::uint64_t> decode_result_request(const std::uint8_t* data,
                                             std::size_t size) {
  ByteReader r(data, size);
  Decoded<std::uint64_t> decoded;
  decoded.value = r.u64();
  return seal(r, std::move(decoded));
}

Decoded<ResultReply> decode_result_reply(const std::uint8_t* data,
                                         std::size_t size) {
  ByteReader r(data, size);
  Decoded<ResultReply> decoded;
  bool present = false;
  if (!read_bool(r, present)) return bad_payload<ResultReply>();
  if (present) {
    core::RequestOutcome outcome;
    if (!read_outcome(r, outcome)) return bad_payload<ResultReply>();
    decoded.value.outcome = std::move(outcome);
  }
  return seal(r, std::move(decoded));
}

Decoded<std::uint64_t> decode_close(const std::uint8_t* data,
                                    std::size_t size) {
  ByteReader r(data, size);
  Decoded<std::uint64_t> decoded;
  decoded.value = r.u64();
  return seal(r, std::move(decoded));
}

Decoded<std::vector<core::RequestOutcome>> decode_result_chunk(
    const std::uint8_t* data, std::size_t size) {
  Decoded<std::vector<core::RequestOutcome>> decoded;
  decoded.error = decode_result_chunk(data, size, decoded.value);
  return decoded;
}

DecodeError decode_result_chunk(const std::uint8_t* data, std::size_t size,
                                std::vector<core::RequestOutcome>& out) {
  const std::size_t before = out.size();
  ByteReader r(data, size);
  const std::uint32_t count = r.u32();
  bool bad = r.ok() && count > kResultChunkCap;
  for (std::uint32_t i = 0; !bad && r.ok() && i < count; ++i) {
    bad = !read_outcome(r, out.emplace_back());
  }
  const DecodeError error = bad ? DecodeError::kBadPayload : end_state(r);
  if (error != DecodeError::kNone) out.resize(before);
  return error;
}

Decoded<CloseDone> decode_close_done(const std::uint8_t* data,
                                     std::size_t size) {
  ByteReader r(data, size);
  Decoded<CloseDone> decoded;
  decoded.value.total = r.u64();
  return seal(r, std::move(decoded));
}

Decoded<std::string> decode_metrics_reply(const std::uint8_t* data,
                                          std::size_t size) {
  ByteReader r(data, size);
  Decoded<std::string> decoded;
  decoded.value = r.str(kMaxFrameBytes);
  return seal(r, std::move(decoded));
}

Decoded<ErrorFrame> decode_error(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  Decoded<ErrorFrame> decoded;
  const std::uint8_t code = r.u8();
  if (r.ok() && (code == 0 || code > static_cast<std::uint8_t>(
                                        DecodeError::kTrailingBytes))) {
    return bad_payload<ErrorFrame>();
  }
  decoded.value.error = static_cast<DecodeError>(code);
  decoded.value.message = r.str(kMaxStringBytes);
  return seal(r, std::move(decoded));
}

// -- splitter ----------------------------------------------------------

void FrameSplitter::feed(const std::uint8_t* data, std::size_t n) {
  if (error_ != DecodeError::kNone) return;  // connection already poisoned
  // Compact lazily: drop consumed prefix once it dominates the buffer.
  if (pos_ > 0 && pos_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

FrameSplitter::Item FrameSplitter::next() {
  Item item;
  if (error_ != DecodeError::kNone) {
    item.error = error_;
    return item;
  }
  const std::size_t available = buffer_.size() - pos_;
  if (available < kFrameHeaderBytes) return item;  // need more bytes
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= std::uint32_t{buffer_[pos_ + i]} << (8 * i);
  }
  if (length > kMaxFrameBytes) {
    error_ = DecodeError::kOversizedFrame;
    item.error = error_;
    return item;
  }
  if (length == 0) {
    // A frame must at least carry its opcode byte.
    error_ = DecodeError::kBadPayload;
    item.error = error_;
    return item;
  }
  if (available < kFrameHeaderBytes + length) return item;  // partial frame
  const std::uint8_t opcode = buffer_[pos_ + kFrameHeaderBytes];
  if (!valid_opcode(opcode)) {
    error_ = DecodeError::kUnknownOpcode;
    item.error = error_;
    return item;
  }
  item.has = true;
  item.frame.opcode = static_cast<Opcode>(opcode);
  const std::uint8_t* payload = buffer_.data() + pos_ + kFrameHeaderBytes + 1;
  item.frame.payload.assign(payload, payload + (length - 1));
  pos_ += kFrameHeaderBytes + length;
  return item;
}

}  // namespace rattrap::rpc
