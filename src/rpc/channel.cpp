#include "rpc/channel.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace rattrap::rpc {

Channel::Channel(EventLoop& loop, int fd, ChannelConfig config,
                 std::uint64_t id)
    : loop_(loop),
      fd_(fd),
      config_(config),
      id_(id),
      read_chunk_(
          std::make_unique_for_overwrite<std::uint8_t[]>(config.read_chunk)) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

Channel::~Channel() {
  if (fd_ >= 0) ::close(fd_);
}

void Channel::start(std::shared_ptr<ChannelHandler> handler) {
  handler_ = std::move(handler);
  auto self = shared_from_this();
  loop_.add_fd(fd_, EPOLLIN,
               [self](std::uint32_t events) { self->on_events(events); });
}

void Channel::on_events(std::uint32_t events) {
  if (closing_) return;
  if ((events & EPOLLOUT) != 0) flush();
  if (closing_) return;
  // Read before honouring EPOLLERR/EPOLLHUP: a closing peer delivers
  // EPOLLIN|EPOLLHUP in one event, and the buffered bytes (plus the EOF
  // itself, which decides truncated-vs-clean) must still be processed.
  if ((events & EPOLLIN) != 0) handle_readable();
  if (closing_) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) close();
}

void Channel::handle_readable() {
  while (!closing_) {
    const ssize_t n = ::recv(fd_, read_chunk_.get(), config_.read_chunk, 0);
    if (n > 0) {
      bytes_in_ += static_cast<std::uint64_t>(n);
      splitter_.feed(read_chunk_.get(), static_cast<std::size_t>(n));
      dispatch_frames();
      if (paused_) return;  // backpressure engaged mid-read
      // Keep reading even after a short recv: if the peer closed right
      // behind its last bytes, only the next recv() sees the EOF that
      // distinguishes a truncated stream from a clean shutdown.
      continue;
    }
    if (n == 0) {  // peer closed
      const DecodeError eof = splitter_.eof_error();
      if (eof == DecodeError::kTruncated && handler_) {
        handler_->on_decode_error(*this, eof);
      }
      close();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close();
    return;
  }
}

void Channel::dispatch_frames() {
  const auto self = shared_from_this();  // handler may drop its reference
  while (!closing_) {
    FrameSplitter::Item item = splitter_.next();
    if (item.error != DecodeError::kNone) {
      if (handler_) handler_->on_decode_error(*this, item.error);
      close();
      return;
    }
    if (!item.has) return;
    ++frames_in_;
    if (handler_) handler_->on_frame(*this, std::move(item.frame));
  }
}

void Channel::send(std::vector<std::uint8_t> bytes) {
  if (closing_ || fd_ < 0) return;
  ++frames_out_;
  out_.insert(out_.end(), bytes.begin(), bytes.end());
  flush();
  if (closing_) return;
  if (!paused_ && write_queue_bytes() > config_.write_high_watermark) {
    paused_ = true;
    ++watermark_pauses_;
    update_interest();
  }
}

void Channel::flush() {
  const auto self = shared_from_this();
  while (out_pos_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_pos_,
                             out_.size() - out_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      out_pos_ += static_cast<std::size_t>(n);
      bytes_out_ += static_cast<std::uint64_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close();
    return;
  }
  if (out_pos_ == out_.size()) {
    out_.clear();
    out_pos_ = 0;
  } else if (out_pos_ > (64u << 10) && out_pos_ >= out_.size() / 2) {
    out_.erase(out_.begin(),
               out_.begin() + static_cast<std::ptrdiff_t>(out_pos_));
    out_pos_ = 0;
  }
  const bool want_write = out_pos_ < out_.size();
  bool resumed = false;
  if (paused_ && write_queue_bytes() < config_.write_low_watermark) {
    paused_ = false;
    resumed = true;
  }
  if (want_write != want_write_ || resumed) {
    want_write_ = want_write;
    update_interest();
  }
  if (resumed && handler_) handler_->on_writable(*this);
}

void Channel::update_interest() {
  if (fd_ < 0) return;
  const std::uint32_t events = (paused_ ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
                               (want_write_ ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  loop_.mod_fd(fd_, events);
}

void Channel::close() {
  if (closing_) return;
  closing_ = true;
  const auto self = shared_from_this();  // outlive the on_close callback
  if (fd_ >= 0) {
    loop_.remove_fd(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  if (handler_) {
    const std::shared_ptr<ChannelHandler> handler = std::move(handler_);
    handler->on_close(*this);
  }
}

}  // namespace rattrap::rpc
