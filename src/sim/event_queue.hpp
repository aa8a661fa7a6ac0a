// Calendar-queue scheduler for the discrete-event engine.
//
// The seed implementation was a binary heap over an unordered_map of
// callbacks: O(log n) per operation, two hash-table touches and a heap
// percolation per event, and tombstones that accumulated when events
// were cancelled before firing.  At 10^6-device scale the queue is the
// simulator's hot path, so this is a Brown calendar queue instead:
//
//   * callbacks live in arena slots (sim/arena.hpp) as InlineCallback
//     cells — no malloc/free per event for captures of up to 48 bytes,
//     freed slots are ASan-poisoned — while the hot metadata
//     (time/seq keys, intrusive links, bucket index, liveness
//     generation) is packed into a dense parallel array indexed by the
//     same slot, so the sorted inserts and min-scans stream packed keys
//     instead of pulling a cold 64-byte node per comparison;
//   * buckets are doubly-linked lists sorted by (time, seq), indexed by
//     (time >> width_shift) mod nbuckets; width and bucket count track
//     the live population, so insert and pop are O(1) amortized;
//   * events due beyond the current calendar year (nbuckets * width) —
//     the platform's standard far clump of session watchdogs — are
//     parked completely unstructured instead of wrapping around into
//     the near-term buckets: scheduling one tags its meta record and
//     cancelling one (which is how almost all of them die) touches only
//     that record — no list, no neighbours, no tombstones.  They are
//     enumerated by a sequential meta sweep only when the year
//     advances and the calendar rebuilds;
//   * cancel() is O(1): the EventId encodes (slot, generation), so a
//     cancel unlinks the node immediately — no tombstones, bounded
//     memory under timer churn (the seed's monotonic-growth bug);
//   * FIFO among same-time events is guaranteed by a monotonic sequence
//     number, exactly like the seed's monotonic id — the total firing
//     order (time, schedule order) is bit-identical to the seed queue,
//     which the differential oracle tests and the golden-determinism
//     battery prove.
//
// The seed implementation survives as sim/heap_queue_ref.hpp; a process-
// wide test hook (set_default_engine) lets the battery re-run entire
// platform workloads on it to compare metric fingerprints.
// Determinism contract: see docs/PERF.md.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/arena.hpp"
#include "sim/inline_callback.hpp"
#include "sim/time.hpp"

namespace rattrap::sim {

class ReferenceHeapQueue;

/// Opaque handle identifying a scheduled event; usable for cancellation.
/// Encodes (arena slot + 1, generation) — never 0 for a live event.
using EventId = std::uint64_t;

/// Invalid event handle.
inline constexpr EventId kNoEvent = 0;

class EventQueue {
 public:
  /// Move-only, with 48 bytes of inline capture storage: a continuation
  /// capturing a shared_ptr and a few words schedules and fires without
  /// touching the allocator (sim/inline_callback.hpp).
  using Callback = InlineCallback;

  /// Which scheduler backs the queue.  kCalendar is the production
  /// engine; kReferenceHeap routes every operation to the preserved seed
  /// implementation (test-only — the golden-determinism battery flips
  /// this to prove fingerprints are identical across the swap).
  enum class Engine : std::uint8_t { kCalendar, kReferenceHeap };

  /// Engine used by queues constructed without an explicit engine.
  /// Test-only; not thread-safe against concurrent queue construction —
  /// set it outside parallel sections.
  static void set_default_engine(Engine engine);
  [[nodiscard]] static Engine default_engine();

  EventQueue();
  explicit EventQueue(Engine engine);
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb` to fire at absolute time `when` (when >= 0).  Returns
  /// a handle that can later be passed to cancel().
  EventId schedule(SimTime when, Callback cb);

  /// Cancels a pending event. Returns true if the event existed and had
  /// not yet fired; false otherwise (already fired, already cancelled,
  /// unknown).  O(1): the node is unlinked and its slot recycled.
  bool cancel(EventId id);

  /// True when no live events remain.
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const;

  /// Time of the earliest live event, or kTimeInfinity when empty.
  /// May advance the internal cursor, hence non-const.
  [[nodiscard]] SimTime next_time();

  /// A fired event: when it was due, its handle, and its callback.
  struct Fired {
    SimTime time;
    EventId id;
    Callback callback;
  };

  /// Removes the earliest live event and returns it. Precondition:
  /// !empty().  Total order: (time, schedule sequence).
  Fired pop();

  /// Drops all pending events.
  void clear();

  [[nodiscard]] Engine engine() const {
    return ref_ ? Engine::kReferenceHeap : Engine::kCalendar;
  }

  // -- Introspection (tests, bench, docs/PERF.md) -----------------------
  // All three report 0 / defaults when running the reference engine.

  /// Current calendar size (power of two).
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
  /// Current bucket width in microseconds.
  [[nodiscard]] SimTime bucket_width() const { return width_; }
  /// Arena high-water mark: slots ever handed out.  The churn regression
  /// test asserts this stays bounded when events are cancelled before
  /// firing (the seed heap grew monotonically instead).
  [[nodiscard]] std::size_t allocated_nodes() const {
    return arena_.allocated_slots();
  }
  /// Calendar rebuilds so far (growth, shrink, or width resampling).
  [[nodiscard]] std::uint64_t resizes() const { return resizes_; }

 private:
  // Hot/cold split event storage.  A scheduled event is an arena slot
  // holding only its callback (56 bytes: 48 of inline capture storage
  // plus the dispatch pointer; touched twice per event: once to store,
  // once to fire); everything link() / find_min() / cancel()
  // chase — the (time, seq) ordering key, the intrusive bucket links,
  // the owning bucket and the liveness generation — is packed into one
  // 32-byte Meta record per slot in a dense parallel array, two per
  // cache line.  Sorted inserts and min-scans therefore stream packed
  // keys and never pull callback bytes into the cache.  (A consolidated
  // one-line-per-event node was measured ~20% slower on the throughput
  // bench: the walk/scan paths dominate, and halving their line density
  // costs more than the fused payload line saves.)
  struct Meta {
    SimTime time = 0;
    std::uint64_t seq = 0;        ///< monotonic schedule order (FIFO ties)
    std::uint32_t prev = kNoSlot;
    std::uint32_t next = kNoSlot;
    std::uint32_t bucket = kFreeBucket;  ///< bucket index or sentinel
    std::uint32_t gen = 1;        ///< liveness generation for handles
  };
  static_assert(sizeof(Meta) == 32, "Meta must stay half a cache line");

  /// Meta::bucket sentinel for far events parked past year_end_.
  static constexpr std::uint32_t kOverflowBucket = UINT32_MAX;
  /// Meta::bucket sentinel for freed slots, so the overflow sweep in
  /// rebuild()/clear() cannot resurrect a recycled slot.
  static constexpr std::uint32_t kFreeBucket = UINT32_MAX - 1;

  // 16 bytes → four buckets per cache line.  head_time mirrors
  // meta_[head].time so the find_min() scan — which mostly visits
  // buckets whose head is a far-future event (wrapped into an earlier
  // year) — never has to chase into the meta array: occupied-but-not-
  // yet-due buckets are rejected from the sequentially streamed bucket
  // array alone.  Stale when head == kNoSlot (never read then).
  struct Bucket {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
    SimTime head_time = 0;
  };
  static_assert(sizeof(Bucket) == 16, "Bucket must stay a quarter line");

  [[nodiscard]] static EventId handle_of(std::uint32_t slot,
                                         std::uint32_t gen) {
    return (static_cast<EventId>(slot) + 1) << 32 | gen;
  }

  [[nodiscard]] std::uint32_t bucket_index(SimTime when) const {
    // width_ is always a power of two (2^width_shift_), so the
    // time-to-bucket mapping is two shifts — no integer division on the
    // hot path.
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(when) >> width_shift_) &
        (buckets_.size() - 1));
  }

  /// Returns true when event a = (ta, sa) orders before b.
  [[nodiscard]] static bool before(SimTime ta, std::uint64_t sa, SimTime tb,
                                   std::uint64_t sb) {
    return ta != tb ? ta < tb : sa < sb;
  }

  void link(std::uint32_t slot);            ///< sorted insert into bucket
  void unlink(std::uint32_t slot);          ///< remove from its bucket
  [[nodiscard]] std::uint32_t find_min();   ///< slot of earliest event
  void rebuild(std::size_t nbuckets);       ///< resize + width resample
  void maybe_resize();
  void ensure_slot(std::uint32_t slot);     ///< grow parallel arrays

  SlabArena<Callback> arena_;       ///< callback payloads (by slot)
  std::vector<Meta> meta_;          ///< key + links + generation per slot
  std::vector<Bucket> buckets_;
  SimTime width_ = 1024;            ///< bucket width, µs (power of two)
  std::uint32_t width_shift_ = 10;  ///< log2(width_)
  SimTime cursor_ = 0;              ///< lower bound on the next fire time
  /// First time NOT covered by the bucket array (anchored at rebuild).
  /// Events at or past it park unstructured (bucket == kOverflowBucket);
  /// bucketed events are always earlier, so the bucketed minimum is the
  /// global minimum whenever any bucketed event exists.
  SimTime year_end_ = 16 * 1024;
  std::size_t overflow_live_ = 0;  ///< events parked past year_end_
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::uint32_t cached_min_ = kNoSlot;  ///< memoized find_min() result
  std::uint64_t resizes_ = 0;
  // Scan-effort feedback: buckets examined / pops since the last check.
  // The event-time distribution drifts during a run (a dense warm-up
  // hour draining into a sparse day, diurnal swings), and the classic
  // live-count resize trigger never fires while the population is
  // stable — so pop() also resamples the width whenever the average
  // scan length degrades (see pop()).
  std::uint64_t scan_steps_ = 0;
  std::uint32_t scan_pops_ = 0;

  /// Engaged when engine() == kReferenceHeap (test-only).
  std::unique_ptr<ReferenceHeapQueue> ref_;
};

}  // namespace rattrap::sim
