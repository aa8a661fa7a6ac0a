// Heap-allocation budget of the per-session host path.
//
// This binary replaces the global operator new/delete with counting
// versions, so it is its own executable: every other test binary keeps
// the library allocator.  It drives a warm-qos-shaped run (64 devices,
// admission and QoS on, three weighted tenants) through the Session API
// and bounds the heap allocations per session over submit + close — the
// event callbacks, metric handles, tmpfs staging and per-kind app data
// the session path touches (docs/PERF.md "Session hot path").  A second
// case runs it again with the invariant oracle armed and bounds what the
// oracle adds per session (docs/PERF.md "Invariant oracle").  A third
// case drives a cold-fleet-shaped run in which every request comes from
// a new device, and bounds the allocations per provisioned environment:
// one CAC cloned from the platform's template, booted, used once and
// reclaimed (docs/PERF.md "CAC lifecycle").
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
#include "obs/metrics.hpp"
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

/// What one warm-qos-shaped run spent over submit + close.
struct WarmQosRun {
  double allocations_per_session = 0;
  std::size_t sessions = 0;
  std::size_t returned = 0;
  std::size_t completed = 0;
};

/// The warm-qos-shaped run: 64 devices, admission and QoS on, three
/// weighted tenants, 20 000 linpack sessions (seed 9); `armed` forces the
/// invariant oracle on, as a fault plan would.
WarmQosRun run_warm_qos(bool armed) {
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.seed = 9;
  config.admission.enabled = true;
  config.admission.qos.enabled = true;
  config.force_invariants = armed;

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
  EXPECT_EQ(stream.size(), arrivals.size());
  for (const auto& request : stream) {
    (void)workloads::execute_task_cached(request.task);
  }
  Platform platform(config);
  std::vector<Session> sessions;
  for (std::size_t slot = 0; slot < loadgen.mix.size(); ++slot) {
    Result<Session> opened =
        platform.open_session(mix_session_config(loadgen, slot));
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) sessions.push_back(std::move(*opened));
  }

  WarmQosRun run;
  run.sessions = stream.size();
  const std::uint64_t before = allocations();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    sessions[arrivals[i].mix_index].submit(stream[i]);
  }
  for (Session& session : sessions) {
    const std::vector<RequestOutcome> outcomes = session.close();
    run.returned += outcomes.size();
    for (const RequestOutcome& outcome : outcomes) {
      if (!outcome.rejected) ++run.completed;
    }
  }
  const std::uint64_t spent = allocations() - before;
  EXPECT_EQ(platform.invariants().invariant_count(), armed ? 14u : 0u);
  EXPECT_TRUE(platform.invariants().ok()) << platform.invariants().report();
  run.allocations_per_session =
      static_cast<double>(spent) / static_cast<double>(stream.size());
  return run;
}

TEST(AllocBudget, WarmQosSessionPathStaysUnderBudget) {
  if (!RATTRAP_ALLOC_COUNTING) GTEST_SKIP() << "sanitizer allocator";
  const WarmQosRun run = run_warm_qos(/*armed=*/false);
  ASSERT_EQ(run.returned, run.sessions);
  // The run must exercise the served path, not only admission rejects.
  EXPECT_GT(run.completed, run.sessions / 2);
  RecordProperty("allocations_per_session",
                 std::to_string(run.allocations_per_session));
  std::printf("allocations per session: %.2f (budget %.1f)\n",
              run.allocations_per_session, kAllocationsPerSessionBudget);
  EXPECT_LE(run.allocations_per_session, kAllocationsPerSessionBudget);
}

/// What arming the invariant oracle may add per session on the run above.
/// Its books are a slot-indexed vector and flat maps that stop growing
/// once the run reaches its in-flight peak, and a detail string is built
/// only for a violation, so the difference is a fraction of an allocation.
/// It measured 2.51 when the session books were an unordered_map node per
/// session and each environment's bound sessions a vector.
constexpr double kArmedOracleAllocationsBudget = 0.5;

TEST(AllocBudget, ArmedOracleStaysUnderBudget) {
  if (!RATTRAP_ALLOC_COUNTING) GTEST_SKIP() << "sanitizer allocator";
  const WarmQosRun unarmed = run_warm_qos(/*armed=*/false);
  const WarmQosRun armed = run_warm_qos(/*armed=*/true);
  ASSERT_EQ(armed.returned, armed.sessions);
  EXPECT_EQ(armed.completed, unarmed.completed);
  const double extra =
      armed.allocations_per_session - unarmed.allocations_per_session;
  RecordProperty("armed_oracle_allocations_per_session", std::to_string(extra));
  std::printf("allocations per session: %.3f armed, %.3f unarmed "
              "(budget +%.1f)\n",
              armed.allocations_per_session,
              unarmed.allocations_per_session,
              kArmedOracleAllocationsBudget);
  EXPECT_LE(extra, kArmedOracleAllocationsBudget);
}

/// Heap allocations per provisioned environment over submit + close on
/// the cold run below (seed 1, 4 000 sessions, every one provisioning,
/// booting and reclaiming its own CAC; x86-64 with libstdc++, Release):
/// measured 16.33 once CACs were cloned from a booted template and
/// reclaim handed their containers back; the budget leaves 25% headroom.
/// The same run measured 49.37 when every CAC built and took apart its
/// host-side state piece by piece.
constexpr double kAllocationsPerColdEnvBudget = 20.5;

TEST(AllocBudget, ColdCacLifecycleStaysUnderBudget) {
  if (!RATTRAP_ALLOC_COUNTING) GTEST_SKIP() << "sanitizer allocator";
  constexpr std::size_t kSessions = 4000;
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.seed = 1;
  // Reclaim runs from the first seconds on, so the run is a steady
  // stream of provision, offload and reclaim.
  config.env_idle_timeout = 10 * sim::kSecond;

  LoadDriverConfig load;
  load.kind = workloads::Kind::kLinpack;
  load.loadgen.arrival = sim::ArrivalProcess::kPoisson;
  load.loadgen.seed = 1;
  load.loadgen.rate_per_s = 20;
  load.loadgen.devices = kSessions;
  load.loadgen.requests = kSessions;
  std::vector<workloads::OffloadRequest> stream = make_load_stream(load);
  // One device per request: every session binds a new environment.
  for (workloads::OffloadRequest& request : stream) {
    request.device_id = static_cast<std::uint32_t>(request.sequence);
    (void)workloads::execute_task_cached(request.task);
  }
  Platform platform(config);
  Result<Session> session = platform.open_session();
  ASSERT_TRUE(session.ok());

  const std::uint64_t before = allocations();
  for (const auto& request : stream) session->submit(request);
  const std::vector<RequestOutcome> outcomes = session->close();
  const std::uint64_t spent = allocations() - before;

  ASSERT_EQ(outcomes.size(), stream.size());
  for (const RequestOutcome& outcome : outcomes) {
    EXPECT_FALSE(outcome.rejected || outcome.stranded);
  }
  const obs::Counter* provisioned =
      platform.metrics().find_counter("env.provisioned");
  ASSERT_NE(provisioned, nullptr);
  ASSERT_EQ(provisioned->value(), kSessions);
  const double per_env =
      static_cast<double>(spent) / static_cast<double>(kSessions);
  RecordProperty("allocations_per_cold_env", std::to_string(per_env));
  std::printf("allocations per cold environment: %.2f (budget %.1f)\n",
              per_env, kAllocationsPerColdEnvBudget);
  EXPECT_LE(per_env, kAllocationsPerColdEnvBudget);
}

}  // namespace
}  // namespace rattrap::core
