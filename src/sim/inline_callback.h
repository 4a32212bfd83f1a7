// Small-buffer-optimized callable for simulator events.
//
// `std::function<void()>` heap-allocates for any capture list larger than
// the implementation's tiny inline buffer (typically two pointers), which
// made every timer and self-scheduling event an allocator round trip. This
// type stores captures up to kInlineBytes in place — large enough for the
// common "this + a couple of scalars" closures — and falls back to the heap
// for oversized captures. A moved-in Packet is one 24-byte vector, so the
// closures that carry a frame (port delivery, the switch's forward and
// mirror emits) fit inline too.
//
// Move-only: events are scheduled once and fired once; copyability would
// force every capture to be copyable and invite accidental duplication.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace lumina {

class InlineCallback {
 public:
  /// Inline capture budget. 48 bytes covers a `this` pointer plus several
  /// scalars, or a moved-in Packet plus a pointer and a few routing
  /// scalars, while keeping the whole event slot within one cache line.
  static constexpr std::size_t kInlineBytes = 48;

  InlineCallback() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineCallback> &&
                std::is_invocable_r_v<void, D&>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &inline_ops<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = &heap_ops<D>;
    }
  }

  InlineCallback(InlineCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  /// Whether this callback's captures fit the inline buffer (telemetry for
  /// the sim_kernel bench; heap fallbacks are the allocations left to hunt).
  bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Moves the callable from `src` storage into `dst` storage and leaves
    /// `src` destroyed; with dst == nullptr, destroys only.
    void (*relocate)(void* src, void* dst);
    bool inline_storage;
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static void inline_invoke(void* storage) {
    (*std::launder(reinterpret_cast<D*>(storage)))();
  }
  template <typename D>
  static void inline_relocate(void* src, void* dst) {
    D* f = std::launder(reinterpret_cast<D*>(src));
    if (dst != nullptr) ::new (dst) D(std::move(*f));
    f->~D();
  }
  template <typename D>
  static void heap_invoke(void* storage) {
    (**std::launder(reinterpret_cast<D**>(storage)))();
  }
  template <typename D>
  static void heap_relocate(void* src, void* dst) {
    D** p = std::launder(reinterpret_cast<D**>(src));
    if (dst != nullptr) {
      *reinterpret_cast<D**>(dst) = *p;  // steal the heap object
    } else {
      delete *p;
    }
  }

  template <typename D>
  static constexpr Ops inline_ops = {&inline_invoke<D>, &inline_relocate<D>,
                                     true};
  template <typename D>
  static constexpr Ops heap_ops = {&heap_invoke<D>, &heap_relocate<D>, false};

  void reset() {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, nullptr);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace lumina
