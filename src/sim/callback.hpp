// Small-buffer move-only callable: the event callback type of the
// discrete-event scheduler. Unlike std::function, captures up to
// k_inline_bytes live inside the object itself — scheduling a packet
// delivery (capturing ~64 bytes of lambda state) performs no heap
// allocation. Larger callables transparently fall back to the heap, so any
// `void()` callable is accepted; the steady-state simulation path never
// produces one that spills.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tcppred::sim {

class small_callback {
public:
    /// Inline capture capacity. Sized for the largest steady-state capture
    /// in the simulator: a lambda holding `this` plus a net::packet by value
    /// (8 + 56 bytes). The capture sites that matter static_assert
    /// fits_inline — net/link.cpp's delivery and net/path.cpp's shared-link
    /// conduit hops — so a net::packet grown past 72 bytes fails to compile
    /// instead of moving every delivery callback to the heap.
    static constexpr std::size_t k_inline_bytes = 80;

    /// Whether a callable of type F is held inline (no heap allocation).
    template <typename F>
    static constexpr bool fits_inline =
        sizeof(F) <= k_inline_bytes && alignof(F) <= alignof(std::max_align_t);

    small_callback() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, small_callback> &&
                  std::is_invocable_r_v<void, std::decay_t<F>&>>>
    small_callback(F&& f) {  // NOLINT(google-explicit-constructor): callback sink
        using fn = std::decay_t<F>;
        if constexpr (fits_inline<fn>) {
            ::new (static_cast<void*>(storage_)) fn(std::forward<F>(f));
            vt_ = &vtable_inline<fn>;
        } else {
            ::new (static_cast<void*>(storage_)) fn*(new fn(std::forward<F>(f)));
            vt_ = &vtable_heap<fn>;
        }
    }

    small_callback(small_callback&& other) noexcept : vt_(other.vt_) {
        if (vt_ != nullptr) {
            vt_->relocate(other.storage_, storage_);
            other.vt_ = nullptr;
        }
    }

    small_callback& operator=(small_callback&& other) noexcept {
        if (this != &other) {
            reset();
            vt_ = other.vt_;
            if (vt_ != nullptr) {
                vt_->relocate(other.storage_, storage_);
                other.vt_ = nullptr;
            }
        }
        return *this;
    }

    small_callback(const small_callback&) = delete;
    small_callback& operator=(const small_callback&) = delete;

    ~small_callback() { reset(); }

    /// Destroy the held callable (no-op when empty).
    void reset() noexcept {
        if (vt_ != nullptr) {
            vt_->destroy(storage_);
            vt_ = nullptr;
        }
    }

    [[nodiscard]] explicit operator bool() const noexcept { return vt_ != nullptr; }

    void operator()() { vt_->invoke(storage_); }

private:
    struct vtable {
        void (*invoke)(void* self);
        /// Move-construct the callable from `from` into `to`, destroying the
        /// source. Must not throw: event nodes relocate while the queue is
        /// in a partially updated state.
        void (*relocate)(void* from, void* to) noexcept;
        void (*destroy)(void* self) noexcept;
    };

    template <typename Fn>
    static constexpr vtable vtable_inline{
        [](void* self) { (*std::launder(reinterpret_cast<Fn*>(self)))(); },
        [](void* from, void* to) noexcept {
            Fn* src = std::launder(reinterpret_cast<Fn*>(from));
            ::new (to) Fn(std::move(*src));
            src->~Fn();
        },
        [](void* self) noexcept { std::launder(reinterpret_cast<Fn*>(self))->~Fn(); },
    };

    template <typename Fn>
    static constexpr vtable vtable_heap{
        [](void* self) { (**std::launder(reinterpret_cast<Fn**>(self)))(); },
        [](void* from, void* to) noexcept {
            Fn** src = std::launder(reinterpret_cast<Fn**>(from));
            ::new (to) Fn*(*src);
            *src = nullptr;
        },
        [](void* self) noexcept { delete *std::launder(reinterpret_cast<Fn**>(self)); },
    };

    alignas(std::max_align_t) unsigned char storage_[k_inline_bytes];
    const vtable* vt_{nullptr};
};

}  // namespace tcppred::sim
