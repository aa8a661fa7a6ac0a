// Move-only void() callable with inline storage: the event callback.
//
// libstdc++'s std::function stores a callable inline only when it is
// trivially copyable and at most 16 bytes, so every continuation that
// captures a shared_ptr, or more than two words (the platform's session
// continuations capture up to three), costs a malloc and a free per event.
// InlineCallback keeps any nothrow-movable callable of up to kInlineBytes
// bytes (alignment up to 8) in the object itself and falls back to one
// heap block only for bigger or over-aligned ones.  Like std::function,
// operator() is const and invokes the target as a non-const lvalue;
// unlike it, the wrapper is move-only, so move-only captures
// (unique_ptr) work too.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace rattrap::sim {

class InlineCallback {
 public:
  /// Inline capture capacity: a shared_ptr plus three words.
  static constexpr std::size_t kInlineBytes = 48;

  InlineCallback() noexcept {}  // storage stays uninitialized until set

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineCallback> &&
                std::is_invocable_r_v<void, D&>>>
  InlineCallback(F&& f) {  // NOLINT: implicit, like std::function
    if constexpr (std::is_pointer_v<D> ||
                  std::is_same_v<D, std::function<void()>>) {
      if (!f) return;  // an empty target converts to an empty callback
    }
    if constexpr (stored_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { take(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { reset(); }

  /// Invokes the target.  Precondition: non-empty.
  void operator()() const { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when the target lives in the object (no heap block).
  [[nodiscard]] bool is_inline() const noexcept {
    return ops_ != nullptr && ops_->is_inline;
  }

  /// Destroys the target; the callback becomes empty.
  void reset() noexcept {
    if (ops_ == nullptr) return;
    ops_->destroy(storage_);
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs `to` from `from` and destroys `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool is_inline;
  };

  template <typename D>
  static constexpr bool stored_inline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= kAlign &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* s) { (*std::launder(static_cast<D*>(s)))(); },
      [](void* from, void* to) noexcept {
        D* src = std::launder(static_cast<D*>(from));
        ::new (to) D(std::move(*src));
        src->~D();
      },
      [](void* s) noexcept { std::launder(static_cast<D*>(s))->~D(); },
      true};

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* s) { (**static_cast<D**>(s))(); },
      [](void* from, void* to) noexcept {
        *static_cast<D**>(to) = *static_cast<D**>(from);
      },
      [](void* s) noexcept { delete *static_cast<D**>(s); },
      false};

  void take(InlineCallback& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(other.storage_, storage_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  static constexpr std::size_t kAlign = alignof(void*);
  alignas(kAlign) mutable unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace rattrap::sim
