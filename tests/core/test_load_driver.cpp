// Load-driver request building and outcome hand-over (docs/LOADGEN.md):
// the materialized stream make_load_stream hands to benches and property
// tests must be exactly the requests the driver submits, adversary task
// shaping included, so one LoadDriverConfig is one workload whichever
// entry point runs it; and the local transport's taking close must
// return what Session::close() copies while leaving no outcome behind.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/load_driver.hpp"
#include "platform_test_peer.hpp"

namespace rattrap::core {
namespace {

/// A SessionTransport that runs nothing: it records every submit in
/// order and returns no outcomes.
class RecordingTransport final : public SessionTransport {
 public:
  Result<std::uint64_t> open_session(const SessionConfig&) override {
    return next_id_++;
  }
  void submit(std::uint64_t id,
              const workloads::OffloadRequest& request) override {
    submits.emplace_back(id, request);
  }
  std::vector<RequestOutcome> close(std::uint64_t) override { return {}; }

  std::vector<std::pair<std::uint64_t, workloads::OffloadRequest>> submits;

 private:
  std::uint64_t next_id_ = 1;
};

void expect_same_request(const workloads::OffloadRequest& a,
                         const workloads::OffloadRequest& b) {
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_EQ(a.device_id, b.device_id);
  EXPECT_EQ(a.arrival, b.arrival);
  EXPECT_EQ(a.task.kind, b.task.kind);
  EXPECT_EQ(a.task.seed, b.task.seed);
  EXPECT_EQ(a.task.size_class, b.task.size_class);
  EXPECT_EQ(a.task.input_file_bytes, b.task.input_file_bytes);
  EXPECT_EQ(a.task.param_bytes, b.task.param_bytes);
  EXPECT_EQ(a.task.result_bytes, b.task.result_bytes);
  EXPECT_EQ(a.task.io_ops, b.task.io_ops);
  EXPECT_EQ(a.task.control_rounds, b.task.control_rounds);
}

TEST(LoadDriver, MakeLoadStreamIsWhatTheDriverSubmits) {
  LoadDriverConfig driver;
  driver.loadgen.arrival = sim::ArrivalProcess::kPoisson;
  driver.loadgen.devices = 8;
  driver.loadgen.requests = 120;
  driver.loadgen.rate_per_s = 10;
  driver.loadgen.seed = 5;
  driver.loadgen.mix = {
      {"victim", 0, 1, 1.0, sim::AdversaryProfile::kNone},
      {"prober", 1, 1, 1.0, sim::AdversaryProfile::kPermissionProbe},
      {"thrasher", 2, 1, 1.0, sim::AdversaryProfile::kCacheThrash},
      {"noisy", 1, 1, 1.0, sim::AdversaryProfile::kNoisyNeighbor},
  };
  driver.size_class = 1;

  RecordingTransport transport;
  (void)run_load_transport(transport, driver);
  const std::vector<workloads::OffloadRequest> stream =
      make_load_stream(driver);
  ASSERT_EQ(transport.submits.size(), stream.size());

  // Stream ids are handed out in mix-slot order, starting at 1.
  std::vector<std::size_t> per_slot(driver.loadgen.mix.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_request(transport.submits[i].second, stream[i]);
    ++per_slot[transport.submits[i].first - 1];
  }
  // Teeth: the shaping slots really carried requests.
  EXPECT_GT(per_slot[2], 0u);
  EXPECT_GT(per_slot[3], 0u);
}

void expect_same_outcome(const RequestOutcome& a, const RequestOutcome& b) {
  expect_same_request(a.request, b.request);
  EXPECT_EQ(a.phases.network_connection, b.phases.network_connection);
  EXPECT_EQ(a.phases.runtime_preparation, b.phases.runtime_preparation);
  EXPECT_EQ(a.phases.data_transfer, b.phases.data_transfer);
  EXPECT_EQ(a.phases.computation, b.phases.computation);
  EXPECT_EQ(a.completed_at, b.completed_at);
  EXPECT_EQ(a.response, b.response);
  EXPECT_EQ(a.local_time, b.local_time);
  EXPECT_EQ(a.speedup, b.speedup);
  EXPECT_EQ(a.offload_energy_mj, b.offload_energy_mj);
  EXPECT_EQ(a.local_energy_mj, b.local_energy_mj);
  EXPECT_EQ(a.upload_time, b.upload_time);
  EXPECT_EQ(a.download_time, b.download_time);
  EXPECT_EQ(a.traffic.up, b.traffic.up);
  EXPECT_EQ(a.traffic.down, b.traffic.down);
  EXPECT_EQ(a.env_id, b.env_id);
  EXPECT_EQ(a.code_cache_hit, b.code_cache_hit);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.reject_reason, b.reject_reason);
  EXPECT_EQ(a.queue_wait, b.queue_wait);
  EXPECT_EQ(a.tenant, b.tenant);
  EXPECT_EQ(a.qos_class, b.qos_class);
  EXPECT_EQ(a.deadline_missed, b.deadline_missed);
  EXPECT_EQ(a.dispatch_attempts, b.dispatch_attempts);
  EXPECT_EQ(a.connect_attempts, b.connect_attempts);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.stranded, b.stranded);
  EXPECT_EQ(a.radio, b.radio);
  EXPECT_EQ(a.resumed, b.resumed);
}

/// The three-tenant QoS load of the loadgen-qos parity line, scaled down
/// to 1500 requests: gold / silver / bronze in three priority classes.
LoadDriverConfig qos_load() {
  LoadDriverConfig driver;
  driver.loadgen.devices = 64;
  driver.loadgen.requests = 1500;
  driver.loadgen.rate_per_s = 400;
  driver.loadgen.seed = 11;
  driver.loadgen.mix = {
      {"gold", 0, 3, 0.3, sim::AdversaryProfile::kNone},
      {"silver", 1, 2, 0.4, sim::AdversaryProfile::kNone},
      {"bronze", 2, 1, 0.3, sim::AdversaryProfile::kNone},
  };
  driver.size_class = 1;
  return driver;
}

PlatformConfig qos_platform() {
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.admission.enabled = true;
  config.admission.qos.enabled = true;
  return config;
}

TEST(LoadDriver, LocalTransportTakesWhatCloseCopies) {
  const LoadDriverConfig driver = qos_load();
  const std::vector<sim::Arrival> arrivals = sim::make_arrivals(driver.loadgen);
  const std::vector<workloads::OffloadRequest> stream =
      make_load_stream(driver);
  ASSERT_EQ(arrivals.size(), stream.size());
  const std::size_t slots = driver.loadgen.mix.size();

  // The same run twice: once through the transport, whose close takes
  // each stream's outcomes, once through handles closed with close().
  Platform taken(qos_platform());
  LocalSessionTransport transport(taken);
  std::vector<std::uint64_t> ids;
  Platform copied(qos_platform());
  std::vector<Session> sessions;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const SessionConfig config = mix_session_config(driver.loadgen, slot);
    Result<std::uint64_t> id = transport.open_session(config);
    Result<Session> session = copied.open_session(config);
    ASSERT_TRUE(id.ok() && session.ok());
    ids.push_back(*id);
    sessions.push_back(std::move(*session));
  }
  for (std::size_t i = 0; i < stream.size(); ++i) {
    transport.submit(ids[arrivals[i].mix_index], stream[i]);
    sessions[arrivals[i].mix_index].submit(stream[i]);
  }
  EXPECT_GE(PlatformTestPeer::outcome_slots(taken), stream.size());

  std::size_t returned = 0;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    SCOPED_TRACE(slot);
    const std::vector<RequestOutcome> by_take = transport.close(ids[slot]);
    const std::vector<RequestOutcome> by_close = sessions[slot].close();
    ASSERT_EQ(by_take.size(), by_close.size());
    EXPECT_GT(by_take.size(), 0u);
    for (std::size_t i = 0; i < by_take.size(); ++i) {
      SCOPED_TRACE(i);
      expect_same_outcome(by_take[i], by_close[i]);
    }
    returned += by_take.size();
  }
  EXPECT_EQ(returned, stream.size());
  // The taking closes left no outcome storage behind; close() keeps its
  // outcomes readable.
  EXPECT_EQ(PlatformTestPeer::outcome_slots(taken), 0u);
  EXPECT_GE(PlatformTestPeer::outcome_slots(copied), stream.size());
}

TEST(LoadDriver, TakenSequencesStayUsedButUnreadable) {
  const auto request_at = [](std::uint64_t sequence, sim::SimTime at) {
    workloads::OffloadRequest request;
    request.sequence = sequence;
    request.device_id = static_cast<std::uint32_t>(sequence);
    request.task.kind = workloads::Kind::kLinpack;
    request.arrival = at;
    return request;
  };
  Platform platform(make_config(PlatformKind::kRattrap));
  Result<Session> first = platform.open_session();
  Result<Session> second = platform.open_session();
  ASSERT_TRUE(first.ok() && second.ok());
  for (std::uint64_t sequence = 0; sequence < 6; ++sequence) {
    Session& session = sequence % 2 == 0 ? *first : *second;
    session.submit(request_at(sequence, sequence * sim::kSecond));
  }

  const std::vector<RequestOutcome> taken = first->take();
  const std::vector<RequestOutcome> copied = second->close();
  ASSERT_EQ(taken.size(), 3u);
  ASSERT_EQ(copied.size(), 3u);
  for (const RequestOutcome& outcome : taken) {
    const std::uint64_t sequence = outcome.request.sequence;
    EXPECT_EQ(platform.result(sequence), nullptr) << sequence;
    EXPECT_FALSE(platform.sequence_free(sequence)) << sequence;
  }
  for (const RequestOutcome& outcome : copied) {
    const std::uint64_t sequence = outcome.request.sequence;
    const RequestOutcome* kept = platform.result(sequence);
    ASSERT_NE(kept, nullptr) << sequence;
    expect_same_outcome(*kept, outcome);
    EXPECT_FALSE(platform.sequence_free(sequence)) << sequence;
  }
  EXPECT_TRUE(platform.sequence_free(6));
}

TEST(LoadDriver, RunLoadHandsBackOutcomesBySequence) {
  // One stream (the adopted buffer) and three (the merge) alike.
  LoadDriverConfig one_stream = qos_load();
  one_stream.loadgen.mix.clear();
  for (const LoadDriverConfig& driver : {one_stream, qos_load()}) {
    SCOPED_TRACE(driver.loadgen.mix.size());
    Platform platform(qos_platform());
    std::vector<RequestOutcome> outcomes;
    const LoadSummary summary = run_load(platform, driver, outcomes);
    ASSERT_EQ(outcomes.size(), driver.loadgen.requests);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      EXPECT_EQ(outcomes[i].request.sequence, i);
    }
    EXPECT_EQ(summary.offered, outcomes.size());
    EXPECT_EQ(summary.completed, summarize_load(outcomes).completed);
    EXPECT_EQ(PlatformTestPeer::outcome_slots(platform), 0u);
    EXPECT_EQ(platform.result(0), nullptr);
  }
}

}  // namespace
}  // namespace rattrap::core
