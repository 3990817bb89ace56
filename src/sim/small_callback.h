// Move-only callable with small-buffer optimization, used as the simulator's
// event callback type. The common captures on the hot path (`this` + a
// ref-counted frame + a trace context, ~32-40 bytes) fit in the inline
// buffer, so scheduling them performs no heap allocation —
// std::function's inline buffer (16 bytes on libstdc++) is too small for
// them and allocated on every Schedule().
#ifndef SRC_SIM_SMALL_CALLBACK_H_
#define SRC_SIM_SMALL_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace strom {

class SmallCallback {
 public:
  // Sized for the DMA completions (`this` + an address + a FrameBuf + a
  // std::function, 64 bytes); larger callables fall back to the heap
  // transparently. Two 112-byte per-packet captures do (DESIGN.md §7), and
  // a buffer large enough to hold them measured no faster.
  static constexpr size_t kInlineSize = 64;

  SmallCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  SmallCallback(SmallCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  SmallCallback& operator=(SmallCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallCallback(const SmallCallback&) = delete;
  SmallCallback& operator=(const SmallCallback&) = delete;

  ~SmallCallback() { Reset(); }

  void operator()() { ops_->call(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*call)(void* storage);
    // Move-constructs into `to` and destroys `from` (trivial pointer copy
    // for the heap-allocated case).
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  struct InlineOps {
    static void Call(void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); }
    static void Relocate(void* from, void* to) noexcept {
      Fn* f = std::launder(reinterpret_cast<Fn*>(from));
      ::new (to) Fn(std::move(*f));
      f->~Fn();
    }
    static void Destroy(void* s) noexcept {
      std::launder(reinterpret_cast<Fn*>(s))->~Fn();
    }
    static constexpr Ops ops{&Call, &Relocate, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn*& Ptr(void* s) { return *reinterpret_cast<Fn**>(s); }
    static void Call(void* s) { (*Ptr(s))(); }
    static void Relocate(void* from, void* to) noexcept {
      *reinterpret_cast<Fn**>(to) = Ptr(from);
    }
    static void Destroy(void* s) noexcept { delete Ptr(s); }
    static constexpr Ops ops{&Call, &Relocate, &Destroy};
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace strom

#endif  // SRC_SIM_SMALL_CALLBACK_H_
