// Heap-allocation budget of the per-session host path.
//
// This binary replaces the global operator new/delete with counting
// versions, so it is its own executable: every other test binary keeps
// the library allocator.  It drives a warm-qos-shaped run (64 devices,
// admission and QoS on, three weighted tenants) through the Session API
// and bounds the heap allocations per session over submit + close — the
// event callbacks, metric handles, tmpfs staging and per-kind app data
// the session path touches (docs/PERF.md "Session hot path").
//
// Sanitizer builds install their own operator new; the test skips there.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "core/load_driver.hpp"
#include "core/platform.hpp"
#include "workloads/workload.hpp"

#if defined(RATTRAP_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define RATTRAP_ALLOC_COUNTING 0
#else
#define RATTRAP_ALLOC_COUNTING 1
#endif

#if RATTRAP_ALLOC_COUNTING

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants the size rounded up to the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // RATTRAP_ALLOC_COUNTING

namespace rattrap::core {
namespace {

/// Heap allocations per session over submit + close on the run below:
/// measured 2.82 (seed 9, 20 000 sessions, x86-64 with libstdc++, in
/// Release and in -O2 builds with assertions); the budget leaves 24%
/// headroom.  The same run measured 55.9 before event callbacks, metric
/// handles, tmpfs staging and per-kind app data stopped allocating.
constexpr double kAllocationsPerSessionBudget = 3.5;

std::uint64_t allocations() {
#if RATTRAP_ALLOC_COUNTING
  return g_allocations.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

TEST(AllocBudget, CounterSeesHeapAllocations) {
  if (!RATTRAP_ALLOC_COUNTING) GTEST_SKIP() << "sanitizer allocator";
  const std::uint64_t before = allocations();
  // A direct call, not a new-expression: the compiler may elide those.
  void* block = ::operator new(64);
  EXPECT_EQ(allocations() - before, 1u);
  ::operator delete(block);
}

TEST(AllocBudget, WarmQosSessionPathStaysUnderBudget) {
  if (!RATTRAP_ALLOC_COUNTING) GTEST_SKIP() << "sanitizer allocator";
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.seed = 9;
  config.admission.enabled = true;
  config.admission.qos.enabled = true;

  LoadDriverConfig load;
  load.kind = workloads::Kind::kLinpack;
  sim::LoadGenConfig& loadgen = load.loadgen;
  loadgen.arrival = sim::ArrivalProcess::kPoisson;
  loadgen.seed = 9;
  loadgen.devices = 64;
  loadgen.rate_per_s = 36;
  loadgen.requests = 20000;
  loadgen.mix = {{"gold", 0, 1, 0.2}, {"silver", 1, 2, 0.5},
                 {"bronze", 2, 1, 0.3}};

  // Everything outside submit + close is built before the window: the
  // stream, each arrival's mix slot, the sessions, and the real kernel
  // runs the process-wide memo serves every later submit from.
  const std::vector<workloads::OffloadRequest> stream =
      make_load_stream(load);
  const std::vector<sim::Arrival> arrivals = sim::make_arrivals(loadgen);
  ASSERT_EQ(stream.size(), arrivals.size());
  for (const auto& request : stream) {
    (void)workloads::execute_task_cached(request.task);
  }
  Platform platform(config);
  std::vector<Session> sessions;
  for (std::size_t slot = 0; slot < loadgen.mix.size(); ++slot) {
    Result<Session> opened =
        platform.open_session(mix_session_config(loadgen, slot));
    ASSERT_TRUE(opened.ok());
    sessions.push_back(std::move(*opened));
  }

  const std::uint64_t before = allocations();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    sessions[arrivals[i].mix_index].submit(stream[i]);
  }
  std::size_t returned = 0;
  std::size_t completed = 0;
  for (Session& session : sessions) {
    const std::vector<RequestOutcome> outcomes = session.close();
    returned += outcomes.size();
    for (const RequestOutcome& outcome : outcomes) {
      if (!outcome.rejected) ++completed;
    }
  }
  const std::uint64_t spent = allocations() - before;

  ASSERT_EQ(returned, stream.size());
  // The run must exercise the served path, not only admission rejects.
  EXPECT_GT(completed, stream.size() / 2);
  const double per_session =
      static_cast<double>(spent) / static_cast<double>(stream.size());
  RecordProperty("allocations_per_session", std::to_string(per_session));
  std::printf("allocations per session: %.2f (budget %.1f)\n", per_session,
              kAllocationsPerSessionBudget);
  EXPECT_LE(per_session, kAllocationsPerSessionBudget);
}

}  // namespace
}  // namespace rattrap::core
