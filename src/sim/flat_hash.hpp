// Open-addressing hash map for simulator-core indexes.
//
// The AID→CID warehouse index and the environment table's binding-key
// index sit on the dispatch hot path; std::map's pointer chasing and std::unordered_map's
// per-node allocations dominated their lookup cost.  FlatHashMap keeps
// keys and values in one flat array with linear probing:
//
//   * power-of-two capacity, max load factor 7/8, backward-shift erase
//     (no tombstones, so probe sequences never degrade);
//   * heterogeneous lookup for string keys (find(std::string_view) without
//     materializing a std::string);
//   * NO pointer/iterator stability across rehash — callers that hand out
//     stable references keep records in a deque and index them here
//     (see core::EnvTable).
//
// Iteration order is unspecified; deterministic consumers must not iterate
// (the determinism contract in docs/PERF.md) — EnvTable and Warehouse
// keep their own ordered views for that.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace rattrap::sim {

namespace detail {

/// Transparent hasher: hashes integral keys and string-ish keys without
/// conversion.
struct FlatHash {
  using is_transparent = void;

  static std::uint64_t mix(std::uint64_t x) {
    // splitmix64 finalizer — cheap avalanche over the low bits that
    // power-of-two masking exposes.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  template <typename I,
            typename = std::enable_if_t<std::is_integral_v<I>>>
  std::uint64_t operator()(I key) const {
    return mix(static_cast<std::uint64_t>(key));
  }
  std::uint64_t operator()(std::string_view key) const {
    return mix(std::hash<std::string_view>{}(key));
  }
  std::uint64_t operator()(const std::string& key) const {
    return (*this)(std::string_view(key));
  }
};

struct FlatEq {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return a == b;
  }
};

}  // namespace detail

/// Open-addressing hash map: power-of-two capacity, linear probing,
/// backward-shift deletion.  Key must be hashable by detail::FlatHash
/// (integers, std::string — with transparent string_view lookup).
template <typename Key, typename Value>
class FlatHashMap {
 public:
  FlatHashMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Pointer to the value for `key`, or nullptr. `K` may be any type the
  /// transparent hasher accepts (e.g. string_view against string keys).
  template <typename K>
  [[nodiscard]] Value* find(const K& key) {
    const std::size_t idx = find_index(key);
    return idx == kNpos ? nullptr : &slots_[idx].value;
  }
  template <typename K>
  [[nodiscard]] const Value* find(const K& key) const {
    const std::size_t idx = find_index(key);
    return idx == kNpos ? nullptr : &slots_[idx].value;
  }

  template <typename K>
  [[nodiscard]] bool contains(const K& key) const {
    return find_index(key) != kNpos;
  }

  /// Inserts or overwrites. Returns the stored value (stable only until
  /// the next rehashing insert).
  Value& insert_or_assign(Key key, Value value) {
    reserve_for(size_ + 1);
    const std::size_t idx = probe_for(key);
    Slot& slot = slots_[idx];
    if (slot.state == State::kFull) {
      slot.value = std::move(value);
      return slot.value;
    }
    slot.key = std::move(key);
    slot.value = std::move(value);
    slot.state = State::kFull;
    ++size_;
    return slot.value;
  }

  /// Value for `key`, default-constructing it when absent.
  Value& operator[](const Key& key) {
    reserve_for(size_ + 1);
    const std::size_t idx = probe_for(key);
    Slot& slot = slots_[idx];
    if (slot.state != State::kFull) {
      slot.key = key;
      slot.value = Value{};
      slot.state = State::kFull;
      ++size_;
    }
    return slot.value;
  }

  /// Removes `key`; returns true when it was present.  Backward-shift:
  /// subsequent probe-chain entries slide back, so no tombstones exist.
  template <typename K>
  bool erase(const K& key) {
    std::size_t hole = find_index(key);
    if (hole == kNpos) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t probe = (hole + 1) & mask;
    while (slots_[probe].state == State::kFull) {
      const std::size_t home =
          static_cast<std::size_t>(hasher_(slots_[probe].key)) & mask;
      // Shift back only if the hole lies within [home, probe) cyclically —
      // i.e. the entry may no longer be reachable from its home slot.
      const bool reachable_via_hole =
          ((probe - home) & mask) >= ((probe - hole) & mask);
      if (reachable_via_hole) {
        slots_[hole] = std::move(slots_[probe]);
        slots_[probe].state = State::kEmpty;
        hole = probe;
      }
      probe = (probe + 1) & mask;
    }
    slots_[hole].state = State::kEmpty;
    slots_[hole].key = Key{};
    slots_[hole].value = Value{};
    --size_;
    return true;
  }

  void clear() {
    slots_.clear();
    size_ = 0;
  }

  /// Calls `fn(key, value)` for every entry, in unspecified order.
  /// Determinism-sensitive callers must sort what they collect.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.state == State::kFull) fn(slot.key, slot.value);
    }
  }

  void reserve(std::size_t n) { reserve_for(n); }

 private:
  enum class State : std::uint8_t { kEmpty, kFull };

  struct Slot {
    Key key{};
    Value value{};
    State state = State::kEmpty;
  };

  static constexpr std::size_t kNpos = SIZE_MAX;
  static constexpr std::size_t kMinCapacity = 16;

  template <typename K>
  [[nodiscard]] std::size_t find_index(const K& key) const {
    if (slots_.empty()) return kNpos;
    const std::size_t mask = slots_.size() - 1;
    std::size_t probe = static_cast<std::size_t>(hasher_(key)) & mask;
    while (slots_[probe].state == State::kFull) {
      if (eq_(slots_[probe].key, key)) return probe;
      probe = (probe + 1) & mask;
    }
    return kNpos;
  }

  /// Slot where `key` lives or should be inserted. Requires a free slot.
  template <typename K>
  [[nodiscard]] std::size_t probe_for(const K& key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t probe = static_cast<std::size_t>(hasher_(key)) & mask;
    while (slots_[probe].state == State::kFull &&
           !eq_(slots_[probe].key, key)) {
      probe = (probe + 1) & mask;
    }
    return probe;
  }

  void reserve_for(std::size_t n) {
    // Grow at 7/8 load.
    if (slots_.size() >= kMinCapacity && n <= slots_.size() - slots_.size() / 8)
      return;
    std::size_t want = kMinCapacity;
    while (want - want / 8 < n) want <<= 1;
    if (want <= slots_.size()) return;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(want, Slot{});
    for (Slot& slot : old) {
      if (slot.state != State::kFull) continue;
      const std::size_t idx = probe_for(slot.key);
      slots_[idx] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  detail::FlatHash hasher_;
  detail::FlatEq eq_;
};

}  // namespace rattrap::sim
