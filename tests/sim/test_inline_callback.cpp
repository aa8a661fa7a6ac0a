// InlineCallback, the event queue's move-only callable: inline storage,
// heap fallback, and capture lifetimes through schedule, fire, cancel and
// clear on both queue engines.
#include "sim/inline_callback.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace rattrap::sim {
namespace {

TEST(InlineCallback, DefaultIsEmpty) {
  const InlineCallback none;
  EXPECT_FALSE(none);
  EXPECT_FALSE(none.is_inline());
}

TEST(InlineCallback, EmptyStdFunctionConvertsToEmpty) {
  const std::function<void()> empty;
  const InlineCallback from_copy = empty;
  const InlineCallback from_move = std::function<void()>{};
  EXPECT_FALSE(from_copy);
  EXPECT_FALSE(from_move);
  void (*no_function)() = nullptr;
  EXPECT_FALSE(InlineCallback(no_function));
}

TEST(InlineCallback, NonEmptyStdFunctionFiresInline) {
  int fired = 0;
  const InlineCallback cb = std::function<void()>([&fired] { ++fired; });
  ASSERT_TRUE(cb);
  EXPECT_TRUE(cb.is_inline());  // std::function itself is 32 bytes
  cb();
  EXPECT_EQ(fired, 1);
}

TEST(InlineCallback, MoveOnlyCaptureFires) {
  auto value = std::make_unique<int>(41);
  int seen = 0;
  InlineCallback cb = [&seen, owned = std::move(value)] { seen = *owned + 1; };
  EXPECT_TRUE(cb.is_inline());
  InlineCallback moved = std::move(cb);
  EXPECT_FALSE(cb);  // NOLINT(bugprone-use-after-move): moved-from is empty
  moved();
  EXPECT_EQ(seen, 42);
}

TEST(InlineCallback, SharedPtrCaptureStaysInline) {
  // The platform's session continuations: a shared_ptr plus two words.
  auto session = std::make_shared<int>(0);
  void* self = nullptr;
  const std::uint64_t epoch = 3;
  const InlineCallback cb = [self, session, epoch] {
    (void)self;
    *session += static_cast<int>(epoch);
  };
  EXPECT_TRUE(cb.is_inline());
  cb();
  EXPECT_EQ(*session, 3);
}

TEST(InlineCallback, OversizedCaptureTakesHeapFallbackAndFires) {
  std::array<std::uint64_t, 8> big{};  // 64 bytes > kInlineBytes
  big[7] = 9;
  auto token = std::make_shared<int>(0);
  std::uint64_t seen = 0;
  InlineCallback cb = [big, token, &seen] { seen = big[7]; };
  EXPECT_FALSE(cb.is_inline());
  EXPECT_EQ(token.use_count(), 2);
  InlineCallback moved = std::move(cb);  // moves the pointer, not the target
  EXPECT_EQ(token.use_count(), 2);
  moved();
  EXPECT_EQ(seen, 9u);
  moved.reset();
  EXPECT_FALSE(moved);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineCallback, MutableTargetKeepsStateAcrossCalls) {
  int total = 0;
  const InlineCallback cb = [&total, n = 0]() mutable { total += ++n; };
  cb();
  cb();
  EXPECT_EQ(total, 3);
}

TEST(InlineCallback, MoveAssignDestroysPreviousTarget) {
  auto first = std::make_shared<int>(1);
  auto second = std::make_shared<int>(2);
  InlineCallback cb = [first] {};
  InlineCallback other = [second] {};
  EXPECT_EQ(first.use_count(), 2);
  cb = std::move(other);
  EXPECT_EQ(first.use_count(), 1);
  EXPECT_EQ(second.use_count(), 2);
}

class InlineCallbackLifetime
    : public ::testing::TestWithParam<EventQueue::Engine> {};

TEST_P(InlineCallbackLifetime, FireDestroysCapture) {
  EventQueue queue(GetParam());
  auto token = std::make_shared<int>(0);
  queue.schedule(10, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  queue.pop().callback();
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);
}

TEST_P(InlineCallbackLifetime, CancelDestroysCapture) {
  EventQueue queue(GetParam());
  auto token = std::make_shared<int>(0);
  std::array<std::uint64_t, 8> big{};
  const EventId small_id = queue.schedule(10, [token] {});
  const EventId big_id = queue.schedule(20, [token, big] { (void)big; });
  EXPECT_EQ(token.use_count(), 3);
  EXPECT_TRUE(queue.cancel(small_id));
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(queue.cancel(big_id));
  EXPECT_EQ(token.use_count(), 1);
}

TEST_P(InlineCallbackLifetime, ClearDestroysCaptures) {
  EventQueue queue(GetParam());
  auto token = std::make_shared<int>(0);
  std::array<std::uint64_t, 8> big{};
  for (SimTime t = 1; t <= 64; ++t) queue.schedule(t, [token] {});
  // Far events park unstructured on the calendar engine.
  queue.schedule(SimTime{1} << 40, [token, big] { (void)big; });
  EXPECT_EQ(token.use_count(), 66);
  queue.clear();
  EXPECT_EQ(token.use_count(), 1);
}

TEST_P(InlineCallbackLifetime, DestructorDestroysCaptures) {
  auto token = std::make_shared<int>(0);
  {
    EventQueue queue(GetParam());
    queue.schedule(5, [token] {});
    queue.schedule(SimTime{1} << 40, [token] {});
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST_P(InlineCallbackLifetime, SimulatorFiresMoveOnlyCaptures) {
  EventQueue::set_default_engine(GetParam());
  Simulator simulator;
  EventQueue::set_default_engine(EventQueue::Engine::kCalendar);
  int seen = 0;
  simulator.schedule_in(
      7, [&seen, owned = std::make_unique<int>(5)] { seen = *owned; });
  simulator.run();
  EXPECT_EQ(seen, 5);
  EXPECT_EQ(simulator.now(), 7);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, InlineCallbackLifetime,
    ::testing::Values(EventQueue::Engine::kCalendar,
                      EventQueue::Engine::kReferenceHeap),
    [](const ::testing::TestParamInfo<EventQueue::Engine>& info) {
      return info.param == EventQueue::Engine::kCalendar ? "Calendar"
                                                         : "ReferenceHeap";
    });

}  // namespace
}  // namespace rattrap::sim
