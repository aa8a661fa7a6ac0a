// Slab arena for the discrete-event hot path.
//
// The simulator allocates and frees one object per event (the event node)
// and one per offloading session (the session record) — at 10^6-device
// scale that is tens of millions of malloc/free pairs per run, most of
// them the same two sizes.  SlabArena<T> turns each of those into a
// free-list pop/push inside large slabs.  It is typed and slot-indexed:
// create() returns (T*, slot); the slot index is stable for the object's
// lifetime and reusable as a compact handle (the calendar queue packs it
// into EventId, the platform pairs it with a generation as a session
// handle).  destroy(slot) runs the destructor and recycles the slot.
//
// Lifetime/poisoning contract (docs/PERF.md): freed slots are poisoned
// under AddressSanitizer, so any dangling use of a recycled event node or
// session record faults immediately instead of silently reading the next
// tenant's state.  Arenas are single-threaded by design — one arena per
// shard/simulation, never shared across threads (the TSan battery arm
// exercises exactly that usage).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define RATTRAP_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RATTRAP_ASAN 1
#endif
#endif

#ifdef RATTRAP_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace rattrap::sim {

namespace detail {
inline void poison(void* p, std::size_t n) {
#ifdef RATTRAP_ASAN
  ASAN_POISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}
inline void unpoison(void* p, std::size_t n) {
#ifdef RATTRAP_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}
}  // namespace detail

/// Invalid slot index.
inline constexpr std::uint32_t kNoSlot = UINT32_MAX;

/// Typed slab arena with stable slot handles.
///
/// Objects live in slabs of `kSlabSlots` uninitialized cells; addresses
/// and slot indexes are stable for an object's lifetime (slabs are never
/// moved or freed before clear()/destruction).  The free list is kept
/// outside the cells, so recycling never reads freed (poisoned) memory.
template <typename T, std::size_t kSlabSlots = 1024>
class SlabArena {
  static_assert(kSlabSlots > 0 && (kSlabSlots & (kSlabSlots - 1)) == 0,
                "slab size must be a power of two");

 public:
  SlabArena() = default;
  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;
  ~SlabArena() { clear(); }

  /// Constructs a T in a recycled or fresh slot; returns (object, slot).
  template <typename... Args>
  std::pair<T*, std::uint32_t> create(Args&&... args) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      if (next_ == capacity()) {
        slabs_.push_back(std::make_unique<Cell[]>(kSlabSlots));
        detail::poison(slabs_.back().get(), sizeof(Cell) * kSlabSlots);
      }
      slot = next_++;
    }
    Cell* cell = cell_at(slot);
    detail::unpoison(cell, sizeof(Cell));
    T* object = new (cell->bytes) T(std::forward<Args>(args)...);
    ++live_;
    return {object, slot};
  }

  /// Destroys the object in `slot` and poisons + recycles the cell.
  void destroy(std::uint32_t slot) {
    assert(slot < next_ && "destroy of a slot never handed out");
    Cell* cell = cell_at(slot);
    reinterpret_cast<T*>(cell->bytes)->~T();
    detail::poison(cell, sizeof(Cell));
    free_.push_back(slot);
    --live_;
  }

  /// Hints the CPU to start fetching `slot`'s cell.  Callers on the hot
  /// path issue this as soon as the slot is known, so the (usually cold)
  /// cell load overlaps the pointer-chasing work between the hint and
  /// the actual access.
  void prefetch(std::uint32_t slot) const {
    __builtin_prefetch(cell_at(slot)->bytes, 1 /*rw*/, 1 /*locality*/);
  }

  /// The live object in `slot` (undefined for freed slots — poisoned
  /// under ASan, so misuse traps rather than aliasing).
  [[nodiscard]] T& at(std::uint32_t slot) {
    return *reinterpret_cast<T*>(cell_at(slot)->bytes);
  }
  [[nodiscard]] const T& at(std::uint32_t slot) const {
    return *reinterpret_cast<const T*>(cell_at(slot)->bytes);
  }

  [[nodiscard]] std::size_t live() const { return live_; }
  /// Slots ever handed out (high-water mark; bounds arena memory).
  [[nodiscard]] std::size_t allocated_slots() const { return next_; }
  [[nodiscard]] std::size_t capacity() const {
    return slabs_.size() * kSlabSlots;
  }

  /// True when `slot`'s memory is ASan-poisoned (freed).  Always false
  /// in non-ASan builds — callers must gate on poisoning_active().
  [[nodiscard]] bool slot_poisoned(std::uint32_t slot) const {
#ifdef RATTRAP_ASAN
    return __asan_address_is_poisoned(cell_at(slot)->bytes) != 0;
#else
    (void)slot;
    return false;
#endif
  }

  [[nodiscard]] static constexpr bool poisoning_active() {
#ifdef RATTRAP_ASAN
    return true;
#else
    return false;
#endif
  }

  /// Destroys every live object and releases all slabs.
  /// Precondition: callers must have destroyed live objects themselves if
  /// T's destructor has effects they depend on orderings of; clear()
  /// destroys remaining live objects in an unspecified order — but the
  /// arena cannot know which slots are live without a bitmap, so it
  /// requires all objects to have been destroyed already.
  void clear() {
    assert(live_ == 0 && "clear() with live objects still in the arena");
    for (auto& slab : slabs_) {
      detail::unpoison(slab.get(), sizeof(Cell) * kSlabSlots);
    }
    slabs_.clear();
    free_.clear();
    next_ = 0;
    live_ = 0;
  }

 private:
  struct Cell {
    alignas(T) unsigned char bytes[sizeof(T)];
  };

  [[nodiscard]] Cell* cell_at(std::uint32_t slot) {
    return &slabs_[slot / kSlabSlots][slot & (kSlabSlots - 1)];
  }
  [[nodiscard]] const Cell* cell_at(std::uint32_t slot) const {
    return &slabs_[slot / kSlabSlots][slot & (kSlabSlots - 1)];
  }

  std::vector<std::unique_ptr<Cell[]>> slabs_;
  std::vector<std::uint32_t> free_;  ///< recycled slots (LIFO)
  std::uint32_t next_ = 0;           ///< first never-used slot
  std::size_t live_ = 0;
};

}  // namespace rattrap::sim
