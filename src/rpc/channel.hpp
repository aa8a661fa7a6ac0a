// One framed, watermarked connection on an event loop.
//
// A Channel owns a connected non-blocking socket registered on exactly
// one EventLoop.  Inbound bytes run through the FrameSplitter and reach
// the ChannelHandler one complete frame at a time; outbound frames are
// queued and flushed as the socket drains.  When the write queue climbs
// above the high watermark the channel *pauses reading* (EPOLLIN off) —
// a slow consumer backpressures its producer through TCP instead of
// growing an unbounded buffer — and resumes below the low watermark,
// firing on_writable (docs/RPC.md).
//
// All methods and callbacks run on the channel's loop thread; callers
// on other threads must loop().post() their way in.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "rpc/event_loop.hpp"
#include "rpc/wire.hpp"

namespace rattrap::rpc {

class Channel;

/// Pipeline stage behind the splitter.  Default no-ops let handlers
/// implement only the events they care about.
class ChannelHandler {
 public:
  virtual ~ChannelHandler() = default;
  /// One complete, well-formed frame (opcode already validated).
  virtual void on_frame(Channel& channel, Frame frame) = 0;
  /// Protocol violation from the splitter; the channel closes right
  /// after this returns (the handler may send a typed kError first).
  virtual void on_decode_error(Channel& channel, DecodeError error) {
    (void)channel;
    (void)error;
  }
  /// Write queue dropped below the low watermark after a pause.
  virtual void on_writable(Channel& channel) { (void)channel; }
  /// The connection is gone (EOF, error or close()); last callback.
  virtual void on_close(Channel& channel) = 0;
};

struct ChannelConfig {
  /// Pause reading when queued write bytes exceed this.
  std::size_t write_high_watermark = 256 * 1024;
  /// Resume reading (and fire on_writable) when they fall below this.
  std::size_t write_low_watermark = 64 * 1024;
  /// Socket read chunk size.
  std::size_t read_chunk = 64 * 1024;
};

class Channel : public std::enable_shared_from_this<Channel> {
 public:
  /// Takes ownership of `fd` (sets it non-blocking).
  Channel(EventLoop& loop, int fd, ChannelConfig config, std::uint64_t id);
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Registers with the loop and starts reading.  Loop thread only.
  void start(std::shared_ptr<ChannelHandler> handler);

  /// Queues one encoded frame (or several concatenated) for write and
  /// flushes opportunistically.  Loop thread only.
  void send(std::vector<std::uint8_t> bytes);

  /// Deregisters and closes the socket; fires on_close once.
  void close();

  /// Backpressure state: true while EPOLLIN is parked because the write
  /// queue crossed the high watermark.
  [[nodiscard]] bool paused() const { return paused_; }
  [[nodiscard]] std::size_t write_queue_bytes() const {
    return out_.size() - out_pos_;
  }
  [[nodiscard]] bool open() const { return fd_ >= 0; }
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] const ChannelConfig& config() const { return config_; }

  // Lifetime tallies, mirrored into rpc.* metrics by the owner.
  [[nodiscard]] std::uint64_t frames_in() const { return frames_in_; }
  [[nodiscard]] std::uint64_t frames_out() const { return frames_out_; }
  [[nodiscard]] std::uint64_t bytes_in() const { return bytes_in_; }
  [[nodiscard]] std::uint64_t bytes_out() const { return bytes_out_; }
  [[nodiscard]] std::uint64_t watermark_pauses() const {
    return watermark_pauses_;
  }

 private:
  void on_events(std::uint32_t events);
  void handle_readable();
  void flush();
  void update_interest();
  void dispatch_frames();

  EventLoop& loop_;
  int fd_;
  ChannelConfig config_;
  std::uint64_t id_;
  std::shared_ptr<ChannelHandler> handler_;

  FrameSplitter splitter_;
  /// config_.read_chunk bytes, reused by every read, never zero-filled.
  std::unique_ptr<std::uint8_t[]> read_chunk_;
  std::vector<std::uint8_t> out_;
  std::size_t out_pos_ = 0;  ///< flushed prefix of out_
  bool want_write_ = false;  ///< EPOLLOUT armed
  bool paused_ = false;
  bool closing_ = false;

  std::uint64_t frames_in_ = 0;
  std::uint64_t frames_out_ = 0;
  std::uint64_t bytes_in_ = 0;
  std::uint64_t bytes_out_ = 0;
  std::uint64_t watermark_pauses_ = 0;
};

}  // namespace rattrap::rpc
