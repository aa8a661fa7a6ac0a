#include "rpc/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>
#include <vector>

#include "core/server.hpp"
#include "obs/trace.hpp"

namespace rattrap::rpc {

namespace {
/// Trace track namespace for connection spans: session tracks use the
/// request sequence as tid, so park connections far above them.
constexpr std::uint64_t kConnTrackBase = 1u << 20;
}  // namespace

/// Per-connection pipeline stage: decodes client frames and executes
/// them against the Platform on the channel's loop thread.  Platform
/// calls hold the server's platform mutex; sends happen after it is
/// released, because a failed send closes the channel and on_close
/// takes the mutex again.
class ServerConnection : public ChannelHandler {
 public:
  ServerConnection(Server& server, std::uint64_t conn_id)
      : server_(server), conn_id_(conn_id) {}

  void on_frame(Channel& channel, Frame frame) override {
    const std::uint8_t* data = frame.payload.data();
    const std::size_t size = frame.payload.size();
    std::vector<std::uint8_t> reply;
    switch (frame.opcode) {
      case Opcode::kOpenSession: {
        Decoded<core::SessionConfig> decoded = decode_open_session(data, size);
        if (!decoded.ok()) return protocol_error(channel, decoded.error);
        encode_open_session_reply(open(std::move(decoded.value)), reply);
        break;
      }
      case Opcode::kSubmit: {
        const Decoded<SubmitRequest> decoded = decode_submit(data, size);
        if (!decoded.ok()) return protocol_error(channel, decoded.error);
        return submit(decoded.value);  // one-way: no reply
      }
      case Opcode::kResult: {
        const Decoded<std::uint64_t> decoded =
            decode_result_request(data, size);
        if (!decoded.ok()) return protocol_error(channel, decoded.error);
        const std::lock_guard<std::mutex> lock(server_.platform_mutex_);
        encode_result_reply(server_.platform_.result(decoded.value), reply);
        break;
      }
      case Opcode::kClose: {
        const Decoded<std::uint64_t> decoded = decode_close(data, size);
        if (!decoded.ok()) return protocol_error(channel, decoded.error);
        return close_stream(channel, decoded.value);
      }
      case Opcode::kMetrics: {
        if (size != 0) return protocol_error(channel, DecodeError::kTrailingBytes);
        std::string json;
        {
          const std::lock_guard<std::mutex> lock(server_.platform_mutex_);
          json = server_.platform_.metrics().to_json();
        }
        encode_metrics_reply(json, reply);
        break;
      }
      default:
        // Reply opcodes arriving at the server are a protocol violation.
        return protocol_error(channel, DecodeError::kBadPayload);
    }
    channel.send(std::move(reply));
  }

  void on_decode_error(Channel& channel, DecodeError error) override {
    server_.manager_->record_decode_error(error);
    // Best-effort typed error before the channel closes under us.
    std::vector<std::uint8_t> bytes;
    encode_error(error, to_string(error), bytes);
    channel.send(std::move(bytes));
  }

  void on_close(Channel& channel) override {
    {
      const std::lock_guard<std::mutex> lock(server_.platform_mutex_);
      const auto span = server_.conn_spans_.find(conn_id_);
      if (span != server_.conn_spans_.end()) {
        server_.platform_.trace().end(
            span->second, server_.platform_.server().simulator().now());
        server_.conn_spans_.erase(span);
      }
      // Dropping the Session handles closes the abandoned streams.
      std::erase_if(server_.streams_, [this](const auto& entry) {
        return entry.second.conn_id == conn_id_;
      });
    }
    // Last, so rpc.conn.closed ticking means the sweep is done.
    server_.manager_->release(channel);
  }

 private:
  OpenSessionReply open(core::SessionConfig config) {
    OpenSessionReply body;
    {
      const std::lock_guard<std::mutex> lock(server_.platform_mutex_);
      core::Result<core::Session> opened =
          server_.platform_.open_session(std::move(config));
      if (!opened.ok()) {
        body.reject = opened.error();
      } else {
        body.stream_id = server_.next_stream_id_++;
        server_.streams_.emplace(
            body.stream_id, Server::StreamState{std::move(*opened), conn_id_});
      }
    }
    const std::lock_guard<std::mutex> lock(server_.metrics_mutex_);
    (body.reject == core::RejectReason::kNone ? server_.sessions_opened_
                                              : server_.sessions_rejected_)
        .inc();
    return body;
  }

  void submit(const SubmitRequest& body) {
    {
      const std::lock_guard<std::mutex> lock(server_.platform_mutex_);
      const auto it = server_.streams_.find(body.stream_id);
      if (it == server_.streams_.end()) return;  // closed or never opened
      it->second.session.submit(body.request);
    }
    const std::lock_guard<std::mutex> lock(server_.metrics_mutex_);
    server_.submits_.inc();
  }

  /// Drains the run (blocking this loop thread), then streams the
  /// stream's outcomes as kResultChunk frames and a kCloseDone.
  void close_stream(Channel& channel, std::uint64_t stream_id) {
    std::vector<core::RequestOutcome> outcomes;
    {
      const std::lock_guard<std::mutex> lock(server_.platform_mutex_);
      const auto it = server_.streams_.find(stream_id);
      if (it != server_.streams_.end()) {
        outcomes = it->second.session.close();
        server_.streams_.erase(it);
      }
    }
    {
      const std::lock_guard<std::mutex> lock(server_.metrics_mutex_);
      server_.closes_.inc();
      server_.outcomes_streamed_.inc(outcomes.size());
    }
    for (std::size_t first = 0; first < outcomes.size();
         first += kResultChunkCap) {
      const std::size_t count =
          std::min(kResultChunkCap, outcomes.size() - first);
      std::vector<std::uint8_t> bytes;
      encode_result_chunk(outcomes, first, count, bytes);
      channel.send(std::move(bytes));
    }
    std::vector<std::uint8_t> bytes;
    encode_close_done(outcomes.size(), bytes);
    channel.send(std::move(bytes));
  }

  void protocol_error(Channel& channel, DecodeError error) {
    server_.manager_->record_decode_error(error);
    std::vector<std::uint8_t> bytes;
    encode_error(error, to_string(error), bytes);
    channel.send(std::move(bytes));
    channel.close();
  }

  Server& server_;
  std::uint64_t conn_id_;
};

Server::Server(core::Platform& platform, ServerConfig config)
    : platform_(platform),
      config_(std::move(config)),
      sessions_opened_(rpc_metrics_.counter("rpc.sessions.opened")),
      sessions_rejected_(rpc_metrics_.counter("rpc.sessions.rejected")),
      submits_(rpc_metrics_.counter("rpc.submits")),
      closes_(rpc_metrics_.counter("rpc.closes")),
      outcomes_streamed_(rpc_metrics_.counter("rpc.outcomes.streamed")) {}

Server::~Server() { stop(); }

bool Server::start() {
  if (started_) return false;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1 ||
      ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  loops_ = std::make_unique<EventLoopGroup>(config_.io_threads);
  manager_ = std::make_unique<ConnectionManager>(
      *loops_, config_.connections, rpc_metrics_);

  accept_loop_ = std::make_unique<EventLoop>();
  accept_loop_->post([this] {
    accept_loop_->add_fd(listen_fd_, EPOLLIN,
                         [this](std::uint32_t) { accept_ready(); });
  });
  accept_thread_ = std::thread([this] { accept_loop_->run(); });
  started_ = true;
  return true;
}

void Server::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  accept_loop_->stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  loops_->stop_and_join();
}

std::string Server::rpc_metrics_json() const {
  const std::lock_guard<std::mutex> lock(metrics_mutex_);
  return manager_ ? manager_->metrics_json() : rpc_metrics_.to_json();
}

void Server::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN / shutdown
    manager_->acquire(fd, [this](const std::shared_ptr<Channel>& channel) {
      {
        const std::lock_guard<std::mutex> lock(platform_mutex_);
        obs::TraceRecorder& trace = platform_.trace();
        const obs::SpanId span =
            trace.begin(kConnTrackBase + channel->id(), "rpc.connection",
                        "rpc", platform_.server().simulator().now());
        trace.annotate(span, "conn", channel->id());
        conn_spans_[channel->id()] = span;
      }
      channel->start(std::make_shared<ServerConnection>(*this, channel->id()));
    });
  }
}

}  // namespace rattrap::rpc
