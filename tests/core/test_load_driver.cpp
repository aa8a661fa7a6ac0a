// Load-driver request building (docs/LOADGEN.md): the materialized
// stream make_load_stream hands to benches and property tests must be
// exactly the requests the driver submits, adversary task shaping
// included, so one LoadDriverConfig is one workload whichever entry
// point runs it.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/load_driver.hpp"

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

}  // namespace
}  // namespace rattrap::core
