// Session-record residency (docs/PERF.md "Arenas"): a submitted request
// waits in its outcome slot and gets its session record only when it
// arrives, so the record arena holds the sessions in flight, not the
// schedule submitted ahead of them; an arrival whose synchronous reject
// feeds follow-ups back through the completion observer still accounts
// for every sequence exactly once; the outcome the completion observer
// reads stays put while the observer submits into its stream; and a step
// queued by a session that ended never acts on the session that reuses
// its record slot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/platform.hpp"
#include "platform_test_peer.hpp"
#include "workloads/generator.hpp"

namespace rattrap::core {
namespace {

/// One Linpack task of `size_class`, shared by every request that uses
/// it (the kernel runs once; the process-wide memo serves the rest).
workloads::TaskSpec linpack_task(std::uint32_t size_class = 1) {
  workloads::StreamConfig config;
  config.kind = workloads::Kind::kLinpack;
  config.count = 1;
  config.size_class = size_class;
  return workloads::make_stream(config).front().task;
}

workloads::OffloadRequest request_at(std::uint64_t sequence,
                                     std::uint32_t device,
                                     sim::SimTime arrival,
                                     const workloads::TaskSpec& task) {
  workloads::OffloadRequest request;
  request.sequence = sequence;
  request.device_id = device;
  request.task = task;
  request.arrival = arrival;
  return request;
}

TEST(SessionResidency, PoolHoldsInFlightSessionsOnly) {
  // 20 000 requests submitted up front, one every 500 ms from 16 devices:
  // well below capacity, so only a handful are ever in flight.  Built at
  // submit, the records would fill ceil(20000 / 256) = 79 slabs.
  constexpr std::size_t kRequests = 20'000;
  Platform platform(make_config(PlatformKind::kRattrap));
  Result<Session> opened = platform.open_session();
  ASSERT_TRUE(opened.ok());
  Session session = std::move(*opened);
  const workloads::TaskSpec task = linpack_task();
  for (std::size_t i = 0; i < kRequests; ++i) {
    session.submit(request_at(i, static_cast<std::uint32_t>(i % 16),
                              static_cast<sim::SimTime>(i) * 500 *
                                  sim::kMillisecond,
                              task));
  }
  EXPECT_EQ(platform.live_session_count(), 0u);  // nothing arrived yet
  const std::vector<RequestOutcome> outcomes = session.close();

  ASSERT_EQ(outcomes.size(), kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(outcomes[i].request.sequence, i);
    EXPECT_FALSE(outcomes[i].rejected) << "sequence " << i;
  }
  EXPECT_EQ(platform.live_session_count(), 0u);
  EXPECT_LE(PlatformTestPeer::session_slabs(platform), 8u);
}

TEST(SessionResidency, ObserverSubmitsDuringDeniedArrival) {
  // A one-session RAC quota turns most arrivals away inside on_arrival;
  // each reject reaches the completion observer synchronously, and the
  // observer submits a follow-up — so outcomes_ grows (and reallocates)
  // while an arrival is being built and rejected.
  constexpr std::uint64_t kSeed = 16;
  constexpr std::uint64_t kTotal = 300;
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.access.tenant_quota = 1;
  Platform platform(std::move(config));
  SessionConfig identity;
  identity.tenant = "flood";
  Result<Session> opened = platform.open_session(identity);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(*opened);

  const workloads::TaskSpec task = linpack_task();
  const auto device_of = [](std::uint64_t sequence) {
    return static_cast<std::uint32_t>(sequence % 7);
  };
  std::uint64_t next = kSeed;
  std::size_t observed = 0;
  std::size_t quota_rejects = 0;
  platform.set_completion_observer([&](const RequestOutcome& done) {
    ++observed;
    if (done.reject_reason == RejectReason::kQuotaExceeded) ++quota_rejects;
    if (next == kTotal) return;
    const std::uint64_t sequence = next++;
    session.submit(request_at(
        sequence, device_of(sequence),
        platform.server().simulator().now() + 50 * sim::kMillisecond,
        task));
  });
  for (std::uint64_t i = 0; i < kSeed; ++i) {
    session.submit(request_at(i, device_of(i), 0, task));
  }
  const std::vector<RequestOutcome> outcomes = session.close();
  platform.set_completion_observer({});

  ASSERT_EQ(outcomes.size(), kTotal);
  EXPECT_EQ(observed, kTotal);
  EXPECT_GT(quota_rejects, kSeed / 2) << "the arrival gate never denied";
  std::vector<int> seen(kTotal, 0);
  for (const RequestOutcome& outcome : outcomes) {
    const std::uint64_t sequence = outcome.request.sequence;
    ASSERT_LT(sequence, kTotal);
    ++seen[sequence];
    EXPECT_EQ(outcome.request.device_id, device_of(sequence));
    const RequestOutcome* recorded = platform.result(sequence);
    ASSERT_NE(recorded, nullptr);
    EXPECT_EQ(recorded->request.sequence, sequence);
    EXPECT_EQ(recorded->rejected, outcome.rejected);
  }
  for (std::uint64_t sequence = 0; sequence < kTotal; ++sequence) {
    EXPECT_EQ(seen[sequence], 1) << "sequence " << sequence;
  }
  EXPECT_EQ(platform.live_session_count(), 0u);
}

TEST(SessionResidency, ObservedOutcomeOutlivesTheObserversSubmits) {
  // Each completion submits two follow-ups into the very stream whose
  // outcome the observer holds, so the stream's outcome buffer grows
  // (and moves) in the middle of the call; the outcome must not move
  // with it.
  constexpr std::uint64_t kTotal = 400;
  Platform platform(make_config(PlatformKind::kRattrap));
  SessionConfig identity;
  identity.tenant = "loop";
  Result<Session> opened = platform.open_session(identity);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(*opened);

  const workloads::TaskSpec task = linpack_task();
  std::uint64_t next = 2;
  std::size_t checked = 0;
  platform.set_completion_observer([&](const RequestOutcome& done) {
    const std::uint64_t sequence = done.request.sequence;
    const std::uint32_t device = done.request.device_id;
    const sim::SimTime at = platform.server().simulator().now();
    for (int i = 0; i < 2 && next < kTotal; ++i, ++next) {
      session.submit(request_at(next, static_cast<std::uint32_t>(next % 5),
                                at + sim::kSecond, task));
    }
    EXPECT_EQ(done.request.sequence, sequence);
    EXPECT_EQ(done.request.device_id, device);
    EXPECT_EQ(done.tenant, "loop");
    EXPECT_EQ(platform.result(sequence), nullptr)
        << "readable before the observer returned";
    ++checked;
  });
  session.submit(request_at(0, 0, 0, task));
  session.submit(request_at(1, 1, 0, task));
  const std::vector<RequestOutcome> outcomes = session.close();
  platform.set_completion_observer({});

  ASSERT_EQ(outcomes.size(), kTotal);
  EXPECT_EQ(checked, kTotal);
  for (std::uint64_t sequence = 0; sequence < kTotal; ++sequence) {
    const RequestOutcome* recorded = platform.result(sequence);
    ASSERT_NE(recorded, nullptr) << sequence;
    EXPECT_EQ(recorded->request.sequence, sequence);
    EXPECT_EQ(recorded->tenant, "loop");
  }
}

TEST(SessionResidency, StaleContinuationSkipsTheSlotsNextSession) {
  // A RAC block sweep ends an in-flight session of the blocked tenant
  // while its next phase step is still queued.  The sweep frees the
  // record's slot, and arrivals submitted at that instant reuse it.  The
  // queued step still fires, against whichever session now holds the
  // slot: the generation it captured must turn it away, or it would
  // drive another tenant's session.
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.force_invariants = true;
  config.access.violation_threshold = 1;  // one probe blocks the tenant
  Platform platform(std::move(config));
  sim::Simulator& simulator = platform.server().simulator();

  SessionConfig honest;
  honest.tenant = "mallory";
  SessionConfig probing = honest;
  probing.probe_ops = {Operation::kWriteSharedLayer};
  SessionConfig bystander;
  bystander.tenant = "alice";
  Result<Session> victim = platform.open_session(honest);
  Result<Session> prober = platform.open_session(probing);
  Result<Session> next = platform.open_session(bystander);
  ASSERT_TRUE(victim.ok() && prober.ok() && next.ok());

  // The victim's long task is still in flight when the prober's upload
  // lands and its probe blocks their shared tenant.
  const workloads::TaskSpec task = linpack_task();
  victim->submit(request_at(0, 0, 0, linpack_task(3)));
  prober->submit(request_at(1, 1, 500 * sim::kMillisecond, task));
  std::uint32_t victim_slot = sim::kNoSlot;
  simulator.schedule_at(sim::kMillisecond, [&]() {
    victim_slot = PlatformTestPeer::session_slot(platform, 0);
  });
  std::vector<std::uint32_t> reused;  // the follow-ups' slots
  platform.set_completion_observer([&](const RequestOutcome& done) {
    if (done.request.sequence != 0) return;
    // Bound, and uploading or computing: a phase step is still queued.
    EXPECT_GT(done.phases.data_transfer, 0);
    EXPECT_EQ(done.phases.computation, 0);
    const sim::SimTime now = simulator.now();
    for (std::uint64_t sequence = 2; sequence < 4; ++sequence) {
      next->submit(request_at(sequence, static_cast<std::uint32_t>(sequence),
                              now, linpack_task(3)));
    }
    simulator.schedule_at(now, [&]() {
      for (std::uint64_t sequence = 2; sequence < 4; ++sequence) {
        reused.push_back(PlatformTestPeer::session_slot(platform, sequence));
      }
    });
  });
  (void)victim->close();
  platform.set_completion_observer({});

  ASSERT_NE(victim_slot, sim::kNoSlot);
  EXPECT_NE(std::find(reused.begin(), reused.end(), victim_slot),
            reused.end())
      << "no follow-up reused the swept session's slot";
  for (std::uint64_t sequence = 0; sequence < 2; ++sequence) {
    const RequestOutcome* swept = platform.result(sequence);
    ASSERT_NE(swept, nullptr);
    EXPECT_TRUE(swept->rejected);
    EXPECT_EQ(swept->reject_reason, RejectReason::kAccessDenied);
  }
  for (std::uint64_t sequence = 2; sequence < 4; ++sequence) {
    const RequestOutcome* served = platform.result(sequence);
    ASSERT_NE(served, nullptr);
    EXPECT_FALSE(served->rejected) << "sequence " << sequence;
    EXPECT_EQ(served->tenant, "alice");
    EXPECT_EQ(served->dispatch_attempts, 1u);
    EXPECT_GT(served->phases.computation, 0);
  }
  EXPECT_EQ(platform.live_session_count(), 0u);
  EXPECT_TRUE(platform.invariants().ok()) << platform.invariants().report();
}

}  // namespace
}  // namespace rattrap::core
