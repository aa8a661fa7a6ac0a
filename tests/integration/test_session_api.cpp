// Session-handle API (docs/QOS.md): open_session / submit / result /
// close, its QoS identity plumbing, and equivalence with run(), which is
// sugar over one session.
#include "core/platform.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "workloads/generator.hpp"

namespace rattrap::core {
namespace {

std::vector<workloads::OffloadRequest> small_stream(std::size_t count = 8,
                                                    std::uint64_t seed = 33) {
  workloads::StreamConfig config;
  config.kind = workloads::Kind::kLinpack;
  config.count = count;
  config.devices = 4;
  config.mean_gap = 4 * sim::kSecond;
  config.size_class = 2;
  config.seed = seed;
  return workloads::make_stream(config);
}

TEST(SessionApi, OpenSubmitCloseRoundTrip) {
  Platform platform(make_config(PlatformKind::kRattrap));
  Result<Session> opened = platform.open_session();
  ASSERT_TRUE(opened.ok());
  Session session = std::move(*opened);
  ASSERT_TRUE(session.open());

  const auto stream = small_stream();
  for (const auto& request : stream) session.submit(request);
  const auto outcomes = session.close();
  EXPECT_FALSE(session.open());
  ASSERT_EQ(outcomes.size(), stream.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].request.sequence, stream[i].sequence);
    EXPECT_GT(outcomes[i].response, 0);
    // Default session: standard class, per-app tenancy.
    EXPECT_EQ(outcomes[i].qos_class, qos::PriorityClass::kStandard);
    EXPECT_FALSE(outcomes[i].tenant.empty());
  }
}

TEST(SessionApi, ResultVisibleAfterCloseBySequence) {
  Platform platform(make_config(PlatformKind::kRattrap));
  Result<Session> opened = platform.open_session();
  ASSERT_TRUE(opened.ok());
  Session session = std::move(*opened);
  const auto stream = small_stream(4);
  EXPECT_EQ(session.result(0), nullptr);  // nothing ran yet
  for (const auto& request : stream) session.submit(request);
  const auto outcomes = session.close();
  ASSERT_EQ(outcomes.size(), 4u);
  for (const auto& outcome : outcomes) {
    const RequestOutcome* found =
        platform.result(outcome.request.sequence);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->response, outcome.response);
  }
}

TEST(SessionApi, InvalidConfigsAreTypedRejects) {
  Platform platform(make_config(PlatformKind::kRattrap));
  SessionConfig zero_weight;
  zero_weight.tenant = "t";
  zero_weight.tenant_weight = 0;
  EXPECT_EQ(platform.open_session(zero_weight).error(),
            RejectReason::kInvalidConfig);

  SessionConfig anonymous_weight;
  anonymous_weight.tenant_weight = 3;  // weight without a named tenant
  EXPECT_EQ(platform.open_session(anonymous_weight).error(),
            RejectReason::kInvalidConfig);
}

TEST(SessionApi, CarriesClassTenantAndDeadlineOntoOutcomes) {
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.admission.enabled = true;
  config.admission.qos.enabled = true;
  Platform platform(std::move(config));

  SessionConfig session_config;
  session_config.tenant = "gold";
  session_config.priority = qos::PriorityClass::kInteractive;
  session_config.tenant_weight = 3;
  session_config.deadline = 1;  // 1 us: everything misses
  Result<Session> opened = platform.open_session(session_config);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(*opened);
  EXPECT_EQ(session.config().tenant, "gold");

  for (const auto& request : small_stream(6)) session.submit(request);
  const auto outcomes = session.close();
  ASSERT_EQ(outcomes.size(), 6u);
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.tenant, "gold");
    EXPECT_EQ(outcome.qos_class, qos::PriorityClass::kInteractive);
    if (!outcome.rejected) {
      EXPECT_TRUE(outcome.deadline_missed);
    }
  }
}

TEST(SessionApi, TwoSessionsInterleaveOneRun) {
  Platform platform(make_config(PlatformKind::kRattrap));
  Result<Session> a = platform.open_session();
  Result<Session> b = platform.open_session();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  const auto stream = small_stream(10);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ((i % 2 != 0) ? *b : *a).submit(stream[i]);
  }
  const auto from_a = a->close();
  const auto from_b = b->close();
  EXPECT_EQ(from_a.size(), 5u);
  EXPECT_EQ(from_b.size(), 5u);
  // Submission order per session is preserved in its outcome vector.
  for (std::size_t i = 0; i + 1 < from_a.size(); ++i) {
    EXPECT_LT(from_a[i].request.sequence, from_a[i + 1].request.sequence);
  }
}

TEST(SessionApi, MoveTransfersOwnership) {
  Platform platform(make_config(PlatformKind::kRattrap));
  Result<Session> opened = platform.open_session();
  ASSERT_TRUE(opened.ok());
  Session first = std::move(*opened);
  ASSERT_TRUE(first.open());
  Session second = std::move(first);
  EXPECT_FALSE(first.open());  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(second.open());
  const auto stream = small_stream(3);
  for (const auto& request : stream) second.submit(request);
  EXPECT_EQ(second.close().size(), 3u);
}

TEST(SessionApi, DestructorClosesWithoutLeakingTheRun) {
  Platform platform(make_config(PlatformKind::kRattrap));
  {
    Result<Session> opened = platform.open_session();
    ASSERT_TRUE(opened.ok());
    Session session = std::move(*opened);
    for (const auto& request : small_stream(3)) session.submit(request);
    // Dropped without close(): the destructor drains the run.
  }
  // A fresh session starts a fresh run on the same platform.
  Result<Session> next = platform.open_session();
  ASSERT_TRUE(next.ok());
  Session session = std::move(*next);
  for (const auto& request : small_stream(3)) session.submit(request);
  EXPECT_EQ(session.close().size(), 3u);
}

TEST(SessionApi, RunMatchesOneSessionByteForByte) {
  const auto stream = small_stream(12);

  Platform replayed(make_config(PlatformKind::kRattrap));
  const auto by_run = replayed.run(stream);

  Platform modern(make_config(PlatformKind::kRattrap));
  Result<Session> opened = modern.open_session();
  ASSERT_TRUE(opened.ok());
  Session session = std::move(*opened);
  for (const auto& request : stream) session.submit(request);
  const auto by_session = session.close();

  ASSERT_EQ(by_run.size(), by_session.size());
  for (std::size_t i = 0; i < by_run.size(); ++i) {
    EXPECT_EQ(by_run[i].response, by_session[i].response) << i;
    EXPECT_EQ(by_run[i].completed_at, by_session[i].completed_at) << i;
    EXPECT_EQ(by_run[i].tenant, by_session[i].tenant) << i;
  }
}

TEST(SessionApi, LegacyRunStillWorksAfterSessionRuns) {
  Platform platform(make_config(PlatformKind::kRattrap));
  {
    Result<Session> opened = platform.open_session();
    ASSERT_TRUE(opened.ok());
    Session session = std::move(*opened);
    for (const auto& request : small_stream(4)) session.submit(request);
    EXPECT_EQ(session.close().size(), 4u);
  }
  const auto outcomes = platform.run(small_stream(4, /*seed=*/34));
  EXPECT_EQ(outcomes.size(), 4u);
}

}  // namespace
}  // namespace rattrap::core
