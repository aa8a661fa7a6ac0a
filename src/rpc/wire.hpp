// Binary wire protocol for the Session API over real sockets.
//
// Every frame is length-prefixed:
//
//   offset 0  u32  length of opcode + payload (little-endian; excludes
//                  the 4-byte prefix itself, capped at kMaxFrameBytes)
//   offset 4  u8   opcode
//   offset 5  ...  payload (per-opcode layout, docs/RPC.md)
//
// The full Session API rides on nine opcodes: open_session / submit /
// result / close plus their replies, a metrics fetch, and a typed error
// frame.  Submits are one-way (TCP ordering is the ack); a close drains
// the run server-side and streams the stream's outcomes back in bounded
// kResultChunk frames terminated by kCloseDone.
//
// Decoding hostile bytes yields typed DecodeErrors — truncated frames,
// oversized length prefixes, unknown opcodes and garbage payloads are
// protocol results, never crashes (the malformed-frame corpus in
// tests/rpc/test_wire.cpp runs the whole table under ASan/UBSan).
// RejectReason codes on the wire come from the X-macro table in
// core/offload.hpp, so codec, metrics labels and to_string() share one
// source of truth.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/offload.hpp"
#include "core/platform.hpp"
#include "workloads/generator.hpp"

namespace rattrap::rpc {

/// Hard cap on one frame's opcode + payload bytes.  A length prefix
/// above this is a protocol violation (kOversizedFrame), not an
/// allocation request.
inline constexpr std::uint32_t kMaxFrameBytes = 8u << 20;

/// Bytes of the length prefix.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Outcomes per kResultChunk frame: keeps every chunk well under
/// kMaxFrameBytes and lets a 10^5-outcome close stream incrementally.
inline constexpr std::size_t kResultChunkCap = 256;

enum class Opcode : std::uint8_t {
  kOpenSession = 1,       ///< c→s SessionConfig
  kOpenSessionReply = 2,  ///< s→c reject code (0 = ok) + stream id
  kSubmit = 3,            ///< c→s stream id + OffloadRequest (one-way)
  kResult = 4,            ///< c→s sequence poll
  kResultReply = 5,       ///< s→c present flag + outcome
  kClose = 6,             ///< c→s stream id
  kResultChunk = 7,       ///< s→c bounded batch of outcomes
  kCloseDone = 8,         ///< s→c total outcomes streamed for the close
  kMetrics = 9,           ///< c→s fetch the platform metrics JSON
  kMetricsReply = 10,     ///< s→c metrics JSON document
  kError = 15,            ///< s→c typed decode error; connection closes
};

[[nodiscard]] const char* to_string(Opcode opcode);

/// Typed decode failures (the rpc.decode_errors.<kind> metric labels).
enum class DecodeError : std::uint8_t {
  kNone = 0,
  kTruncated,       ///< bytes ran out mid-frame or mid-field
  kOversizedFrame,  ///< length prefix beyond kMaxFrameBytes
  kUnknownOpcode,   ///< opcode outside the table
  kBadPayload,      ///< a field failed validation (enum code, bool, cap)
  kTrailingBytes,   ///< payload longer than its message
};

[[nodiscard]] const char* to_string(DecodeError error);

/// One split frame: opcode + raw payload.
struct Frame {
  Opcode opcode = Opcode::kError;
  std::vector<std::uint8_t> payload;
};

/// Decode result: value XOR a typed error, no exceptions.
template <typename T>
struct Decoded {
  T value{};
  DecodeError error = DecodeError::kNone;

  [[nodiscard]] bool ok() const { return error == DecodeError::kNone; }
};

// -- Message bodies ----------------------------------------------------

struct OpenSessionReply {
  /// kNone = accepted; anything else is the typed front-door reject.
  core::RejectReason reject = core::RejectReason::kNone;
  std::uint64_t stream_id = 0;
};

struct SubmitRequest {
  std::uint64_t stream_id = 0;
  workloads::OffloadRequest request;
};

struct ResultReply {
  std::optional<core::RequestOutcome> outcome;
};

struct CloseDone {
  std::uint64_t total = 0;  ///< outcomes streamed in the chunks before it
};

struct ErrorFrame {
  DecodeError error = DecodeError::kNone;
  std::string message;
};

// -- Encoders: append one complete frame (prefix + opcode + payload) ---

void encode_open_session(const core::SessionConfig& config,
                         std::vector<std::uint8_t>& out);
void encode_open_session_reply(const OpenSessionReply& reply,
                               std::vector<std::uint8_t>& out);
void encode_submit(std::uint64_t stream_id,
                   const workloads::OffloadRequest& request,
                   std::vector<std::uint8_t>& out);
void encode_result_request(std::uint64_t sequence,
                           std::vector<std::uint8_t>& out);
void encode_result_reply(const core::RequestOutcome* outcome,
                         std::vector<std::uint8_t>& out);
void encode_close(std::uint64_t stream_id, std::vector<std::uint8_t>& out);
void encode_result_chunk(const std::vector<core::RequestOutcome>& outcomes,
                         std::size_t first, std::size_t count,
                         std::vector<std::uint8_t>& out);
void encode_close_done(std::uint64_t total, std::vector<std::uint8_t>& out);
void encode_metrics_request(std::vector<std::uint8_t>& out);
void encode_metrics_reply(std::string_view json,
                          std::vector<std::uint8_t>& out);
void encode_error(DecodeError error, std::string_view message,
                  std::vector<std::uint8_t>& out);

// -- Decoders: payload bytes only (after the splitter) -----------------

[[nodiscard]] Decoded<core::SessionConfig> decode_open_session(
    const std::uint8_t* data, std::size_t size);
[[nodiscard]] Decoded<OpenSessionReply> decode_open_session_reply(
    const std::uint8_t* data, std::size_t size);
[[nodiscard]] Decoded<SubmitRequest> decode_submit(const std::uint8_t* data,
                                                   std::size_t size);
[[nodiscard]] Decoded<std::uint64_t> decode_result_request(
    const std::uint8_t* data, std::size_t size);
[[nodiscard]] Decoded<ResultReply> decode_result_reply(
    const std::uint8_t* data, std::size_t size);
[[nodiscard]] Decoded<std::uint64_t> decode_close(const std::uint8_t* data,
                                                  std::size_t size);
[[nodiscard]] Decoded<std::vector<core::RequestOutcome>> decode_result_chunk(
    const std::uint8_t* data, std::size_t size);
/// Appends the chunk's outcomes to `out` (the client's close loop);
/// on any error `out` is left as it was.
[[nodiscard]] DecodeError decode_result_chunk(
    const std::uint8_t* data, std::size_t size,
    std::vector<core::RequestOutcome>& out);
[[nodiscard]] Decoded<CloseDone> decode_close_done(const std::uint8_t* data,
                                                   std::size_t size);
[[nodiscard]] Decoded<std::string> decode_metrics_reply(
    const std::uint8_t* data, std::size_t size);
[[nodiscard]] Decoded<ErrorFrame> decode_error(const std::uint8_t* data,
                                               std::size_t size);

/// Incremental frame splitter: feed() raw socket bytes, next() yields
/// complete frames until the buffer runs dry.  An oversized length
/// prefix or an unknown opcode is a sticky connection-fatal error; a
/// partial frame left buffered at EOF is reported by eof_error().
class FrameSplitter {
 public:
  struct Item {
    bool has = false;                          ///< a complete frame follows
    Frame frame;
    DecodeError error = DecodeError::kNone;    ///< connection-fatal when set
  };

  void feed(const std::uint8_t* data, std::size_t n);
  [[nodiscard]] Item next();

  /// kTruncated if the peer closed mid-frame, else kNone.
  [[nodiscard]] DecodeError eof_error() const {
    return error_ == DecodeError::kNone && buffer_.size() > pos_
               ? DecodeError::kTruncated
               : error_;
  }

  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;
  DecodeError error_ = DecodeError::kNone;
};

}  // namespace rattrap::rpc
