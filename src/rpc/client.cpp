#include "rpc/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace rattrap::rpc {

std::unique_ptr<ClientTransport> ClientTransport::connect(
    const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0) {
    ::close(fd);
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::unique_ptr<ClientTransport>(new ClientTransport(fd));
}

ClientTransport::~ClientTransport() {
  flush();  // buffered one-way submits still reach the server
  if (fd_ >= 0) ::close(fd_);
}

core::Result<std::uint64_t> ClientTransport::open_session(
    const core::SessionConfig& config) {
  encode_open_session(config, pending_);
  if (!flush()) return core::RejectReason::kConnectFailed;
  Frame frame;
  if (!read_frame(frame) || frame.opcode != Opcode::kOpenSessionReply) {
    return core::RejectReason::kConnectFailed;
  }
  const Decoded<OpenSessionReply> reply =
      decode_open_session_reply(frame.payload.data(), frame.payload.size());
  if (!reply.ok()) {
    fail(reply.error);
    return core::RejectReason::kConnectFailed;
  }
  if (reply.value.reject != core::RejectReason::kNone) {
    return reply.value.reject;
  }
  return reply.value.stream_id;
}

void ClientTransport::submit(std::uint64_t id,
                             const workloads::OffloadRequest& request) {
  ++submitted_[id];
  encode_submit(id, request, pending_);  // one-way; TCP order is the ack
  if (pending_.size() >= kSubmitFlushBytes) flush();
}

std::vector<core::RequestOutcome> ClientTransport::close(std::uint64_t id) {
  std::vector<core::RequestOutcome> outcomes;
  outcomes.reserve(submitted_[id]);
  submitted_.erase(id);
  encode_close(id, pending_);
  if (!flush()) return outcomes;
  while (true) {
    Frame frame;
    if (!read_frame(frame)) return outcomes;
    if (frame.opcode == Opcode::kResultChunk) {
      const DecodeError error = decode_result_chunk(
          frame.payload.data(), frame.payload.size(), outcomes);
      if (error != DecodeError::kNone) {
        fail(error);
        return outcomes;
      }
      continue;
    }
    if (frame.opcode == Opcode::kCloseDone) {
      const Decoded<CloseDone> done =
          decode_close_done(frame.payload.data(), frame.payload.size());
      if (!done.ok() || done.value.total != outcomes.size()) {
        fail(done.ok() ? DecodeError::kBadPayload : done.error);
      }
      return outcomes;
    }
    fail(DecodeError::kBadPayload);  // unexpected opcode mid-close
    return outcomes;
  }
}

std::optional<core::RequestOutcome> ClientTransport::result(
    std::uint64_t sequence) {
  encode_result_request(sequence, pending_);
  if (!flush()) return std::nullopt;
  Frame frame;
  if (!read_frame(frame) || frame.opcode != Opcode::kResultReply) {
    return std::nullopt;
  }
  Decoded<ResultReply> reply =
      decode_result_reply(frame.payload.data(), frame.payload.size());
  if (!reply.ok()) {
    fail(reply.error);
    return std::nullopt;
  }
  return std::move(reply.value.outcome);
}

std::string ClientTransport::fetch_metrics() {
  encode_metrics_request(pending_);
  if (!flush()) return {};
  Frame frame;
  if (!read_frame(frame) || frame.opcode != Opcode::kMetricsReply) return {};
  Decoded<std::string> reply =
      decode_metrics_reply(frame.payload.data(), frame.payload.size());
  if (!reply.ok()) {
    fail(reply.error);
    return {};
  }
  return std::move(reply.value);
}

bool ClientTransport::flush() {
  std::size_t sent = 0;
  while (fd_ >= 0 && sent < pending_.size()) {
    const ssize_t n = ::send(fd_, pending_.data() + sent,
                             pending_.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (errno != EINTR) {
      fail(DecodeError::kNone);
    }
  }
  pending_.clear();  // keeps its capacity for the next batch
  return fd_ >= 0;
}

bool ClientTransport::read_frame(Frame& frame) {
  if (fd_ < 0) return false;
  while (true) {
    FrameSplitter::Item item = splitter_.next();
    if (item.error != DecodeError::kNone) {
      fail(item.error);
      return false;
    }
    if (item.has) {
      // A typed server error is terminal for the connection.
      if (item.frame.opcode == Opcode::kError) {
        const Decoded<ErrorFrame> error =
            decode_error(item.frame.payload.data(), item.frame.payload.size());
        fail(error.ok() ? error.value.error : error.error);
        return false;
      }
      frame = std::move(item.frame);
      return true;
    }
    const ssize_t n = ::recv(fd_, read_chunk_.get(), kReadChunkBytes, 0);
    if (n > 0) {
      splitter_.feed(read_chunk_.get(), static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    fail(n == 0 ? splitter_.eof_error() : DecodeError::kNone);
    return false;
  }
}

void ClientTransport::fail(DecodeError error) {
  if (error != DecodeError::kNone) last_error_ = error;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace rattrap::rpc
