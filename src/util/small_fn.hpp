// Small-buffer-optimized move-only callables for the event and request hot
// paths.
//
// std::function heap-allocates any capture larger than its tiny internal
// buffer (16 bytes on libstdc++), which means one malloc per scheduled
// event or per callback handed through the runtime. SmallFunction<void(
// Args...)> inlines captures up to kInlineBytes — sized so every hot-path
// closure fits — and falls back to the heap only for oversized captures
// (a closure that itself captures another SmallFunction, the cold
// install/bind paths). It is move-only, so closures may own move-only state
// (another callback, a Response) without the shared_ptr wrapping that
// std::function's copyability forces. Like std::function, the call operator
// is const and invokes the stored callable as a non-const lvalue.
//
// SmallFn (= SmallFunction<void()>) is the simulator's event type. Every
// signature shares one process-wide counter block, so benches and tests can
// gate on allocator traffic without naming each instantiation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace psf::util {

namespace detail {

struct SmallFnCounters {
  std::atomic<std::uint64_t> constructed{0};
  std::atomic<std::uint64_t> heap_fallbacks{0};
};

inline SmallFnCounters& small_fn_counters() {
  // detlint:allow(DET020 SmallFnCounters holds only std::atomic fields)
  static SmallFnCounters c;
  return c;
}

}  // namespace detail

template <typename Signature>
class SmallFunction;

template <typename... Args>
class SmallFunction<void(Args...)> {
 public:
  // Large enough for the runtime's record-plus-hop event closures and the
  // timer closures (a pointer or shared_ptr plus a couple of words).
  static constexpr std::size_t kInlineBytes = 48;

  SmallFunction() = default;
  SmallFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&, Args...>>>
  SmallFunction(F&& fn) {  // NOLINT(google-explicit-constructor): callers
                           // pass lambdas straight through
    using D = std::decay_t<F>;
    detail::small_fn_counters().constructed.fetch_add(
        1, std::memory_order_relaxed);
    invoke_ = [](void* p, Args&&... args) {
      (*static_cast<D*>(p))(std::forward<Args>(args)...);
    };
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      destroy_ = [](void* p) { static_cast<D*>(p)->~D(); };
      relocate_ = [](void* dst, void* src) {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      };
    } else {
      detail::small_fn_counters().heap_fallbacks.fetch_add(
          1, std::memory_order_relaxed);
      heap_ = new D(std::forward<F>(fn));
      destroy_ = [](void* p) { delete static_cast<D*>(p); };
      relocate_ = nullptr;  // heap targets move by pointer steal
    }
  }

  SmallFunction(SmallFunction&& other) noexcept { move_from(other); }

  SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;

  ~SmallFunction() { reset(); }

  void operator()(Args... args) const {
    PSF_CHECK_MSG(invoke_ != nullptr, "calling an empty SmallFn");
    invoke_(target(), std::forward<Args>(args)...);
  }

  explicit operator bool() const { return invoke_ != nullptr; }

  // ---- allocator telemetry (process-wide, relaxed counters) ---------------
  // constructed: SmallFunctions of any signature built from a callable
  // (moves don't count). heap_fallbacks: the subset whose capture exceeded
  // kInlineBytes.
  static std::uint64_t constructed_count() {
    return detail::small_fn_counters().constructed.load(
        std::memory_order_relaxed);
  }
  static std::uint64_t heap_fallback_count() {
    return detail::small_fn_counters().heap_fallbacks.load(
        std::memory_order_relaxed);
  }
  static void reset_counters() {
    detail::small_fn_counters().constructed.store(0,
                                                  std::memory_order_relaxed);
    detail::small_fn_counters().heap_fallbacks.store(
        0, std::memory_order_relaxed);
  }

 private:
  void* target() const {
    return heap_ != nullptr ? heap_ : static_cast<void*>(buf_);
  }

  void reset() {
    if (invoke_ != nullptr) destroy_(target());
    heap_ = nullptr;
    invoke_ = nullptr;
    destroy_ = nullptr;
    relocate_ = nullptr;
  }

  void move_from(SmallFunction& other) noexcept {
    invoke_ = other.invoke_;
    destroy_ = other.destroy_;
    relocate_ = other.relocate_;
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;  // pointer steal
    } else if (other.invoke_ != nullptr) {
      other.relocate_(buf_, other.buf_);
    }
    other.heap_ = nullptr;
    other.invoke_ = nullptr;
    other.destroy_ = nullptr;
    other.relocate_ = nullptr;
  }

  // mutable: a const call still runs the stored callable as non-const, the
  // way std::function does.
  alignas(std::max_align_t) mutable unsigned char buf_[kInlineBytes];
  void* heap_ = nullptr;
  void (*invoke_)(void*, Args&&...) = nullptr;
  void (*destroy_)(void*) = nullptr;
  void (*relocate_)(void* dst, void* src) = nullptr;
};

using SmallFn = SmallFunction<void()>;

}  // namespace psf::util
