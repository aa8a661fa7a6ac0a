// rpc::Server — the live-traffic front door: a real Platform behind
// real sockets.
//
// Architecture (docs/RPC.md):
//
//   accept loop ──► ConnectionManager (bounded pending-acquire)
//        │                 │ grants a slot
//        ▼                 ▼
//   EventLoopGroup: each channel decodes frames on its loop thread and
//   calls the Platform right there, under one platform mutex (the
//   Platform is not thread-safe); replies go straight back out on the
//   same channel.
//
// A loop thread busy inside the Platform stops reading its sockets, so
// TCP is the backpressure and nothing queues in user space.  The
// platform mutex is never held across Channel::send/close — a failed
// flush closes the channel, whose on_close re-enters the server.
//
// Because one client connection delivers its frames in TCP order and
// its loop thread executes them in that order, a loopback run submits
// the identical call sequence a sim-clock driver would — the sim path
// stays the byte-identical golden twin of the socket path (the parity
// test in tests/tools/test_loadgen_cli.cpp holds the two fingerprints
// equal).
//
// rpc.* metrics live in the server's own registry (schema v5), never
// the Platform's.  Connection lifecycle spans land in the Platform's
// TraceRecorder under the platform mutex, stamped with the platform's
// virtual clock.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/platform.hpp"
#include "obs/metrics.hpp"
#include "rpc/connection_manager.hpp"
#include "rpc/event_loop.hpp"
#include "rpc/wire.hpp"

namespace rattrap::rpc {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  std::size_t io_threads = 2;
  ConnectionManagerConfig connections;
};

class Server {
 public:
  /// The platform must outlive the server; the server's loop threads
  /// become its sole drivers (one at a time) while the server runs.
  Server(core::Platform& platform, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the accept and I/O loops.
  [[nodiscard]] bool start();

  /// Drains and joins everything; idempotent.
  void stop();

  /// Bound port (resolves an ephemeral request after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// rpc.* registry snapshot (thread-safe while running).
  [[nodiscard]] std::string rpc_metrics_json() const;

  [[nodiscard]] ConnectionManager& connections() { return *manager_; }
  [[nodiscard]] const ServerConfig& config() const { return config_; }

 private:
  friend class ServerConnection;

  void accept_ready();

  core::Platform& platform_;
  ServerConfig config_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;

  obs::MetricsRegistry rpc_metrics_;

  // Declared before the loops/threads that use them.
  std::unique_ptr<EventLoopGroup> loops_;
  std::unique_ptr<ConnectionManager> manager_;
  std::unique_ptr<EventLoop> accept_loop_;
  std::thread accept_thread_;

  // Guards the Platform and the state below.  Held only around
  // platform calls, never across Channel::send/close.
  std::mutex platform_mutex_;
  struct StreamState {
    core::Session session;
    std::uint64_t conn_id = 0;
  };
  std::map<std::uint64_t, StreamState> streams_;
  std::map<std::uint64_t, obs::SpanId> conn_spans_;
  std::uint64_t next_stream_id_ = 1;

  // Serializes loop-thread instrument updates against
  // rpc_metrics_json() snapshots (instruments pre-created in the ctor
  // so the registry maps never mutate cross-thread).
  mutable std::mutex metrics_mutex_;
  obs::Counter& sessions_opened_;
  obs::Counter& sessions_rejected_;
  obs::Counter& submits_;
  obs::Counter& closes_;
  obs::Counter& outcomes_streamed_;

  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace rattrap::rpc
