// End-to-end loopback battery: rpc::Server hosting a real Platform
// behind 127.0.0.1 sockets, driven by rpc::ClientTransport.  The load
// run must match the in-process LocalSessionTransport twin outcome for
// outcome and fingerprint for fingerprint (the sim-twin guarantee of
// docs/RPC.md), typed rejects must cross the wire, hostile clients must
// get typed error frames, and connection spans must land in the
// platform trace.  Coalesced client submits must arrive in order, and
// concurrent clients on several loop threads must share the platform
// safely.
#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/load_driver.hpp"
#include "core/platform.hpp"
#include "obs/trace.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "rpc/wire.hpp"

namespace rattrap::rpc {
namespace {

using core::LoadDriverConfig;
using core::LoadSummary;
using core::Platform;

core::PlatformConfig platform_config(std::uint64_t seed) {
  core::PlatformConfig config =
      core::make_config(core::PlatformKind::kRattrap, net::lan_wifi(), seed);
  return config;
}

/// One counter from the server's rpc.* registry (0 while absent).
std::uint64_t rpc_counter(const Server& server, const std::string& name) {
  const std::string json = server.rpc_metrics_json();
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  return at == std::string::npos ? 0
                                 : std::stoull(json.substr(at + key.size()));
}

/// Polls until `name` reaches `target` (or 10 s pass); returns its value.
std::uint64_t wait_for_counter(const Server& server, const std::string& name,
                               std::uint64_t target) {
  for (int i = 0; i < 10000 && rpc_counter(server, name) < target; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return rpc_counter(server, name);
}

workloads::OffloadRequest linpack_request(std::uint64_t sequence) {
  workloads::OffloadRequest request;
  request.sequence = sequence;
  request.device_id = sequence % 16;
  request.arrival = static_cast<sim::SimTime>(sequence * 1000);
  request.task.kind = workloads::Kind::kLinpack;
  request.task.seed = 7;
  return request;
}

LoadDriverConfig small_load() {
  LoadDriverConfig config;
  config.loadgen.devices = 64;
  config.loadgen.requests = 300;
  config.loadgen.rate_per_s = 120;
  config.loadgen.seed = 11;
  return config;
}

TEST(RpcLoopback, MatchesTheSimTwinOutcomeForOutcomeAndByteForByte) {
  // Sim twin: the same workload through LocalSessionTransport.
  Platform local_platform(platform_config(11));
  core::LocalSessionTransport local(local_platform);
  const LoadSummary sim = core::run_load_transport(local, small_load());
  const std::string sim_metrics = local_platform.metrics().to_json();

  // Socket path: identically-seeded platform behind a loopback server.
  Platform rpc_platform(platform_config(11));
  Server server(rpc_platform, ServerConfig{});
  ASSERT_TRUE(server.start());
  auto client = ClientTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(client, nullptr);
  const LoadSummary rpc = core::run_load_transport(*client, small_load());
  const std::string rpc_metrics = client->fetch_metrics();
  ASSERT_TRUE(client->ok());
  client.reset();
  server.stop();

  EXPECT_EQ(sim.offered, rpc.offered);
  EXPECT_EQ(sim.completed, rpc.completed);
  EXPECT_EQ(sim.rejected, rpc.rejected);
  EXPECT_EQ(sim.stranded, rpc.stranded);
  EXPECT_DOUBLE_EQ(sim.mean_ms, rpc.mean_ms);
  EXPECT_DOUBLE_EQ(sim.p99_ms, rpc.p99_ms);
  EXPECT_DOUBLE_EQ(sim.duration_s, rpc.duration_s);
  // The golden-twin teeth: byte-identical server-side metrics.
  EXPECT_EQ(sim_metrics, rpc_metrics);
  // Accounting identity over the wire.
  EXPECT_EQ(rpc.offered, rpc.completed + rpc.rejected);
}

TEST(RpcLoopback, TypedOpenSessionRejectsCrossTheWire) {
  Platform platform(platform_config(1));
  Server server(platform, ServerConfig{});
  ASSERT_TRUE(server.start());
  auto client = ClientTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(client, nullptr);

  core::SessionConfig invalid;
  invalid.tenant = "t";
  invalid.tenant_weight = 0;  // kInvalidConfig at the platform front door
  const core::Result<std::uint64_t> opened = client->open_session(invalid);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.error(), core::RejectReason::kInvalidConfig);

  // The connection survives a typed reject: a valid open still works.
  const core::Result<std::uint64_t> valid =
      client->open_session(core::SessionConfig{});
  ASSERT_TRUE(valid.ok());
  EXPECT_GT(*valid, 0u);
  client.reset();
  server.stop();
}

TEST(RpcLoopback, SubmitResultCloseRoundTripsOutcomes) {
  Platform platform(platform_config(2));
  Server server(platform, ServerConfig{});
  ASSERT_TRUE(server.start());
  auto client = ClientTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(client, nullptr);

  const core::Result<std::uint64_t> stream =
      client->open_session(core::SessionConfig{});
  ASSERT_TRUE(stream.ok());
  workloads::OffloadRequest request;
  request.sequence = 0;
  request.device_id = 1;
  request.arrival = 0;
  request.task.kind = workloads::Kind::kLinpack;
  request.task.seed = 7;
  for (std::uint64_t sequence = 0; sequence < 5; ++sequence) {
    request.sequence = sequence;
    request.arrival = static_cast<sim::SimTime>(sequence * 1000);
    client->submit(*stream, request);
  }
  const std::vector<core::RequestOutcome> outcomes = client->close(*stream);
  ASSERT_EQ(outcomes.size(), 5u);
  for (std::uint64_t sequence = 0; sequence < 5; ++sequence) {
    EXPECT_EQ(outcomes[sequence].request.sequence, sequence);
    EXPECT_FALSE(outcomes[sequence].rejected);
  }
  // The result poll answers from the drained run, any sequence.
  const auto polled = client->result(3);
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(polled->request.sequence, 3u);
  EXPECT_EQ(polled->response, outcomes[3].response);
  // An unknown sequence is absent, not an error.
  EXPECT_FALSE(client->result(99999).has_value());
  EXPECT_TRUE(client->ok());
  client.reset();
  server.stop();
}

TEST(RpcLoopback, HostileBytesGetATypedErrorFrameAndCountedMetric) {
  Platform platform(platform_config(3));
  Server server(platform, ServerConfig{});
  ASSERT_TRUE(server.start());

  // Raw socket, no protocol: an oversized length prefix.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  const std::uint8_t poison[5] = {0xFF, 0xFF, 0xFF, 0x7F, 1};
  ASSERT_EQ(::send(fd, poison, sizeof poison, 0), 5);

  // The server answers with a typed kError frame, then closes.
  FrameSplitter splitter;
  std::uint8_t buffer[1024];
  bool saw_error = false;
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;  // server closed on us, as specified
    splitter.feed(buffer, static_cast<std::size_t>(n));
    FrameSplitter::Item item = splitter.next();
    if (item.has && item.frame.opcode == Opcode::kError) {
      const Decoded<ErrorFrame> decoded =
          decode_error(item.frame.payload.data(), item.frame.payload.size());
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded.value.error, DecodeError::kOversizedFrame);
      saw_error = true;
    }
  }
  ::close(fd);
  EXPECT_TRUE(saw_error);
  const std::string metrics = server.rpc_metrics_json();
  EXPECT_NE(metrics.find("\"rpc.decode_errors.oversized_frame\":1"),
            std::string::npos)
      << metrics;
  server.stop();
}

TEST(RpcLoopback, ConnectionSpansLandInThePlatformTrace) {
  Platform platform(platform_config(4));
  platform.trace().enable();
  Server server(platform, ServerConfig{});
  ASSERT_TRUE(server.start());
  {
    auto client = ClientTransport::connect("127.0.0.1", server.port());
    ASSERT_NE(client, nullptr);
    const auto stream = client->open_session(core::SessionConfig{});
    ASSERT_TRUE(stream.ok());
    client->close(*stream);
  }  // disconnect ends the connection span
  server.stop();
  bool saw_connection_span = false;
  for (const obs::SpanRecord& span : platform.trace().spans()) {
    if (span.name == "rpc.connection") {
      saw_connection_span = true;
      EXPECT_FALSE(span.open());  // closed when the connection dropped
    }
  }
  EXPECT_TRUE(saw_connection_span);
}

TEST(RpcLoopback, AbandonedConnectionSweepsItsStreams) {
  // A client that vanishes without close() must not wedge the platform:
  // the server drops the dead connection's sessions, and a fresh client
  // can run the next load to completion.
  Platform platform(platform_config(5));
  Server server(platform, ServerConfig{});
  ASSERT_TRUE(server.start());
  {
    auto client = ClientTransport::connect("127.0.0.1", server.port());
    ASSERT_NE(client, nullptr);
    const auto stream = client->open_session(core::SessionConfig{});
    ASSERT_TRUE(stream.ok());
    workloads::OffloadRequest request;
    request.sequence = 0;
    request.task.kind = workloads::Kind::kLinpack;
    request.task.seed = 3;
    client->submit(*stream, request);
  }  // vanish mid-run
  auto client = ClientTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(client, nullptr);
  const auto stream = client->open_session(core::SessionConfig{});
  ASSERT_TRUE(stream.ok());
  workloads::OffloadRequest request;
  request.sequence = 1;
  request.task.kind = workloads::Kind::kLinpack;
  request.task.seed = 3;
  client->submit(*stream, request);
  const auto outcomes = client->close(*stream);
  EXPECT_EQ(outcomes.size(), 1u);
  client.reset();
  server.stop();
}

TEST(RpcLoopback, BufferedSubmitsReachTheServerBeforeAReplyBearingCall) {
  Platform platform(platform_config(6));
  Server server(platform, ServerConfig{});
  ASSERT_TRUE(server.start());
  auto client = ClientTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(client, nullptr);
  const auto stream = client->open_session(core::SessionConfig{});
  ASSERT_TRUE(stream.ok());
  for (std::uint64_t sequence = 0; sequence < 3; ++sequence) {
    client->submit(*stream, linpack_request(sequence));
  }
  // The metrics request flushes the three buffered submits ahead of
  // itself, and the server answers frames in order.
  EXPECT_FALSE(client->fetch_metrics().empty());
  EXPECT_EQ(rpc_counter(server, "rpc.submits"), 3u);
  client.reset();
  server.stop();
}

TEST(RpcLoopback, BufferedSubmitsAreFlushedWhenTheClientIsDestroyed) {
  Platform platform(platform_config(7));
  Server server(platform, ServerConfig{});
  ASSERT_TRUE(server.start());
  auto client = ClientTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(client, nullptr);
  const auto stream = client->open_session(core::SessionConfig{});
  ASSERT_TRUE(stream.ok());
  for (std::uint64_t sequence = 0; sequence < 3; ++sequence) {
    client->submit(*stream, linpack_request(sequence));
  }
  client.reset();  // no reply-bearing call: only the destructor flushes
  ASSERT_EQ(wait_for_counter(server, "rpc.conn.closed", 1), 1u);
  EXPECT_EQ(rpc_counter(server, "rpc.submits"), 3u);
  server.stop();
}

TEST(RpcLoopback, ConcurrentClientsOnTwoLoopThreadsGetTheirOwnOutcomes) {
  // Two connections land on different loop threads, so both drive the
  // one Platform at once; the platform mutex must keep them apart.
  Platform platform(platform_config(8));
  ServerConfig config;
  config.io_threads = 2;
  Server server(platform, config);
  ASSERT_TRUE(server.start());
  constexpr std::uint64_t kPerClient = 400;
  std::vector<std::unique_ptr<ClientTransport>> clients;
  std::vector<std::uint64_t> streams;
  for (int i = 0; i < 2; ++i) {
    clients.push_back(ClientTransport::connect("127.0.0.1", server.port()));
    ASSERT_NE(clients.back(), nullptr);
    // Both streams open before either closes, so they share one run.
    const auto stream = clients.back()->open_session(core::SessionConfig{});
    ASSERT_TRUE(stream.ok());
    streams.push_back(*stream);
  }
  std::vector<std::vector<core::RequestOutcome>> outcomes(2);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      // Disjoint sequence ranges keep sequences unique across the run.
      for (std::uint64_t k = 0; k < kPerClient; ++k) {
        clients[i]->submit(streams[i], linpack_request(i * kPerClient + k));
      }
      outcomes[i] = clients[i]->close(streams[i]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(clients[i]->ok());
    ASSERT_EQ(outcomes[i].size(), kPerClient);
    for (std::uint64_t k = 0; k < kPerClient; ++k) {
      EXPECT_EQ(outcomes[i][k].request.sequence, i * kPerClient + k);
    }
    const LoadSummary summary = core::summarize_load(outcomes[i]);
    EXPECT_EQ(summary.offered, kPerClient);
    EXPECT_TRUE(core::accounting_identity(summary));
  }
  EXPECT_EQ(rpc_counter(server, "rpc.submits"), 2 * kPerClient);
  clients.clear();
  server.stop();
}

TEST(RpcLoopback, CloseThenResetDoesNotWedgeTheServer) {
  // The client asks for a close and resets the socket while the server
  // still works through its submits, so the server's reply sends fail
  // and close the channel from inside the kClose handler.  on_close then re-enters the server: the
  // platform mutex must already be released there.
  Platform platform(platform_config(9));
  Server server(platform, ServerConfig{});
  ASSERT_TRUE(server.start());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  std::vector<std::uint8_t> bytes;
  encode_open_session(core::SessionConfig{}, bytes);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  FrameSplitter splitter;
  FrameSplitter::Item reply;
  std::uint8_t buffer[1024];
  while (!reply.has) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    ASSERT_GT(n, 0);
    splitter.feed(buffer, static_cast<std::size_t>(n));
    reply = splitter.next();
  }
  const Decoded<OpenSessionReply> opened =
      decode_open_session_reply(reply.frame.payload.data(),
                                reply.frame.payload.size());
  ASSERT_TRUE(opened.ok());
  bytes.clear();
  for (std::uint64_t sequence = 0; sequence < 2000; ++sequence) {
    encode_submit(opened.value.stream_id, linpack_request(sequence), bytes);
  }
  encode_close(opened.value.stream_id, bytes);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
  // Reset only once the kernel has delivered every byte: a reset drops
  // the sender's unsent data, but not the receiver's queued data.
  int unsent = 1;
  for (int i = 0; i < 10000 && unsent > 0; ++i) {
    ASSERT_EQ(::ioctl(fd, SIOCOUTQ, &unsent), 0);
    if (unsent > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(unsent, 0);
  const linger reset{1, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof reset), 0);
  ::close(fd);  // RST, not FIN

  ASSERT_EQ(wait_for_counter(server, "rpc.conn.closed", 1), 1u);
  auto client = ClientTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(client, nullptr);
  const LoadSummary summary = core::run_load_transport(*client, small_load());
  EXPECT_EQ(summary.offered, small_load().loadgen.requests);
  EXPECT_TRUE(core::accounting_identity(summary));
  EXPECT_TRUE(client->ok());
  client.reset();
  server.stop();
}

TEST(RpcLoopback, HostileSubmitSequencesGetATypedErrorFrame) {
  // A submit's sequence sizes and keys the platform's outcome table.
  // One whose sequence + 1 wraps, one that would ask for terabytes, a
  // fresh one just below the trace-track base that would still ask for
  // hundreds of gigabytes, and a sequence the run already used each get
  // a typed error frame on their own connection; the server keeps
  // serving a fresh client.
  Platform platform(platform_config(10));
  Server server(platform, ServerConfig{});
  ASSERT_TRUE(server.start());
  const std::vector<std::vector<std::uint64_t>> hostile = {
      {std::numeric_limits<std::uint64_t>::max()},
      {100'000'000'000ULL},
      {999'999'999ULL},
      {0, 0}};
  for (const std::vector<std::uint64_t>& sequences : hostile) {
    auto client = ClientTransport::connect("127.0.0.1", server.port());
    ASSERT_NE(client, nullptr);
    const auto stream = client->open_session(core::SessionConfig{});
    ASSERT_TRUE(stream.ok());
    for (const std::uint64_t sequence : sequences) {
      client->submit(*stream, linpack_request(sequence));
    }
    EXPECT_TRUE(client->fetch_metrics().empty());
    EXPECT_EQ(client->last_error(), DecodeError::kBadPayload);
    EXPECT_FALSE(client->ok());
  }
  // Every refused connection has swept its stream, so the clean load
  // below starts a run of its own.
  ASSERT_EQ(wait_for_counter(server, "rpc.conn.closed", 4), 4u);
  EXPECT_EQ(rpc_counter(server, "rpc.decode_errors.bad_payload"), 4u);
  EXPECT_EQ(rpc_counter(server, "rpc.submits"), 1u);  // the first 0 only

  auto client = ClientTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(client, nullptr);
  const LoadSummary summary = core::run_load_transport(*client, small_load());
  EXPECT_EQ(summary.offered, small_load().loadgen.requests);
  EXPECT_TRUE(core::accounting_identity(summary));
  EXPECT_TRUE(client->ok());
  client.reset();
  server.stop();
}

}  // namespace
}  // namespace rattrap::rpc
