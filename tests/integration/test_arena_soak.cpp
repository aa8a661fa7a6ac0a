// Arena soak (ctest label: soak — opt-in via RATTRAP_SOAK=1, run under
// ASan in CI like the loadgen soak).
//
// Churns a SlabArena at event-queue rates for a
// wall-clock budget and asserts the resident set stays bounded: slabs
// are recycled, never accreted.  This is the allocator-level counterpart
// of EventQueue's ChurnWorkloadStaysBounded — that test proves node
// counts stay flat, this one proves actual process memory does.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "sim/arena.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace rattrap::sim {
namespace {

/// Resident set size in bytes via /proc/self/statm (0 where unsupported).
std::size_t resident_bytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long size_pages = 0;
  unsigned long resident_pages = 0;
  const int got = std::fscanf(statm, "%lu %lu", &size_pages, &resident_pages);
  std::fclose(statm);
  if (got != 2) return 0;
  return static_cast<std::size_t>(resident_pages) * 4096u;
}

TEST(ArenaSoak, ChurnKeepsResidentSetBounded) {
  const char* opt_in = std::getenv("RATTRAP_SOAK");
  if (opt_in == nullptr || *opt_in == '\0' || *opt_in == '0') {
    GTEST_SKIP() << "soak battery runs only with RATTRAP_SOAK=1 "
                    "(see docs/LOADGEN.md)";
  }
  double budget_s = 30.0;
  if (const char* seconds = std::getenv("RATTRAP_SOAK_SECONDS")) {
    budget_s = std::strtod(seconds, nullptr);
    if (budget_s <= 0) budget_s = 30.0;
  }

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&start]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  struct Session {
    std::uint64_t device = 0;
    std::uint64_t bytes_up = 0;
    std::uint64_t bytes_down = 0;
  };

  Rng rng(7);
  EventQueue queue;
  SlabArena<Session> sessions;
  std::vector<std::uint32_t> live_sessions;
  std::vector<EventId> live_events;

  // Warm-up: reach steady-state population so the baseline RSS includes
  // every slab the workload will ever need.
  constexpr std::size_t kPopulation = 50'000;
  std::size_t baseline_rss = 0;
  std::uint64_t rounds = 0;

  while (elapsed_s() < budget_s) {
    ++rounds;
    for (std::uint64_t i = 0; i < kPopulation; ++i) {
      // Grow to population, then replace — a pop/schedule hold pattern.
      if (live_events.size() < kPopulation) {
        live_events.push_back(queue.schedule(
            static_cast<SimTime>(rng.uniform(0.0, 1e9)), [] {}));
        live_sessions.push_back(sessions.create().second);
        continue;
      }
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kPopulation) - 1));
      queue.cancel(live_events[pick]);
      live_events[pick] = queue.schedule(
          static_cast<SimTime>(rng.uniform(0.0, 1e9)), [] {});
      sessions.destroy(live_sessions[pick]);
      live_sessions[pick] = sessions.create().second;
    }
    if (rounds == 1) baseline_rss = resident_bytes();
  }

  const std::size_t final_rss = resident_bytes();
  // Steady-state churn must not accrete memory: allow slack for heap
  // noise (fragmentation, sanitizer bookkeeping) but fail on growth
  // proportional to rounds — the signature of a leak.
  if (baseline_rss != 0 && final_rss != 0) {
    EXPECT_LE(final_rss, baseline_rss + (baseline_rss / 4) + (64u << 20))
        << "RSS grew from " << baseline_rss << " to " << final_rss
        << " over " << rounds << " churn rounds";
  }
  // Allocator-level bounds hold regardless of /proc availability.
  EXPECT_LE(queue.allocated_nodes(), kPopulation + 8);
  EXPECT_EQ(sessions.allocated_slots(), kPopulation);

  for (const std::uint32_t slot : live_sessions) sessions.destroy(slot);
  queue.clear();
}

}  // namespace
}  // namespace rattrap::sim
