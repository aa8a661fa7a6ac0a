// rpc::ClientTransport — the Session API over a real socket.
//
// A deliberately simple blocking client: one TCP connection, frames
// written in call order, replies read synchronously off the same
// connection.  That simplicity is load-bearing for the sim-twin
// guarantee (docs/RPC.md): because every submit rides one ordered byte
// stream and the server executes one connection's frames in order, a
// loopback run makes the identical open/submit/close call sequence a
// LocalSessionTransport run makes — so the server platform's metrics
// fingerprint can match the sim transport byte for byte.
//
// One-way submit frames are coalesced: submit() appends to a pending
// buffer that goes out in one send() once it reaches kSubmitFlushBytes,
// ahead of every call that waits for a reply (open_session, close,
// result, fetch_metrics), and on destruction.  Order is unchanged; only
// the syscall count drops.
//
// All the async machinery (event loops, watermarks, bounded acquire)
// lives server-side, where the concurrency actually is.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/load_driver.hpp"
#include "rpc/wire.hpp"

namespace rattrap::rpc {

class ClientTransport final : public core::SessionTransport {
 public:
  /// Connects to host:port; nullptr on failure.
  static std::unique_ptr<ClientTransport> connect(const std::string& host,
                                                  std::uint16_t port);

  ~ClientTransport() override;

  ClientTransport(const ClientTransport&) = delete;
  ClientTransport& operator=(const ClientTransport&) = delete;

  // -- core::SessionTransport ------------------------------------------

  /// kConnectFailed doubles as the transport-failure reject.
  core::Result<std::uint64_t> open_session(
      const core::SessionConfig& config) override;
  void submit(std::uint64_t id,
              const workloads::OffloadRequest& request) override;
  std::vector<core::RequestOutcome> close(std::uint64_t id) override;

  // -- extras ----------------------------------------------------------

  /// Polls the finished outcome for `sequence` (any stream), mirroring
  /// Platform::result(); nullopt while in flight or on failure.
  [[nodiscard]] std::optional<core::RequestOutcome> result(
      std::uint64_t sequence);

  /// The server platform's metrics JSON (empty string on failure) — how
  /// the rpc transport fingerprints the run for sim-twin parity.
  [[nodiscard]] std::string fetch_metrics();

  /// Connection still usable (no socket error, no protocol violation).
  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  /// Last protocol-level failure seen (kNone for clean socket errors).
  [[nodiscard]] DecodeError last_error() const { return last_error_; }

 private:
  /// Pending submit bytes that trigger a send on their own.
  static constexpr std::size_t kSubmitFlushBytes = 64 * 1024;
  static constexpr std::size_t kReadChunkBytes = 64 * 1024;

  explicit ClientTransport(int fd) : fd_(fd) {}

  /// Sends the pending buffer (blocking) and empties it; fails the
  /// connection on error.
  bool flush();
  /// Blocks for the next complete frame; false on EOF/error/violation.
  bool read_frame(Frame& frame);
  void fail(DecodeError error);

  int fd_ = -1;
  std::vector<std::uint8_t> pending_;  ///< encoded, not yet sent
  /// Submits per open stream: close() reserves its outcome vector.
  std::map<std::uint64_t, std::size_t> submitted_;
  /// Reused by every read_frame, never zero-filled.
  std::unique_ptr<std::uint8_t[]> read_chunk_ =
      std::make_unique_for_overwrite<std::uint8_t[]>(kReadChunkBytes);
  FrameSplitter splitter_;
  DecodeError last_error_ = DecodeError::kNone;
};

}  // namespace rattrap::rpc
