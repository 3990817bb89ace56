// Callable slot with small-buffer optimization: the event queue builds each
// scheduled callable in place in one of these (src/sim/event_queue.h), runs
// it there and resets the slot, so a callable never moves. The common
// captures on the hot path (`this` + a ref-counted frame + a trace context,
// ~32-40 bytes) fit in the inline buffer, so scheduling them performs no
// heap allocation — std::function's inline buffer (16 bytes on libstdc++) is
// too small for them and allocated on every Schedule().
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
  SmallCallback(const SmallCallback&) = delete;
  SmallCallback& operator=(const SmallCallback&) = delete;
  ~SmallCallback() { Reset(); }

  // Builds `f` in this slot. Precondition: the slot is empty.
  template <typename F>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>, "callable must take no arguments");
    if constexpr (sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  void operator()() { ops_->call(storage_); }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*call)(void* storage);
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  struct InlineOps {
    static void Call(void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); }
    static void Destroy(void* s) noexcept {
      std::launder(reinterpret_cast<Fn*>(s))->~Fn();
    }
    static constexpr Ops ops{&Call, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn*& Ptr(void* s) { return *reinterpret_cast<Fn**>(s); }
    static void Call(void* s) { (*Ptr(s))(); }
    static void Destroy(void* s) noexcept { delete Ptr(s); }
    static constexpr Ops ops{&Call, &Destroy};
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace strom

#endif  // SRC_SIM_SMALL_CALLBACK_H_
