/**
 * @file
 * Move-only callable with inline storage for the simulator's hot path.
 *
 * Every event, CPU burst, DB query and thread-pool work item carries a
 * continuation. std::function heap-allocates any capture larger than
 * two pointers, which made allocation the dominant per-event cost of
 * the DES. InlineFunction stores the callable in a fixed in-object
 * buffer instead and refuses, at compile time, any callable that does
 * not fit: it never allocates. Captures on the simulation path are a
 * handful of pointers (typically `[this, flow]`).
 *
 * An InlineFunction cannot hold another InlineFunction of the same
 * capacity (it is larger than the buffer); owners that must defer a
 * continuation keep it in their own storage and capture an index.
 */

#ifndef WCNN_SIM_INLINE_FUNCTION_HH
#define WCNN_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace wcnn {
namespace sim {

template <typename Signature>
class InlineFunction;

/**
 * Move-only type-erased callable with `capacity` bytes of inline
 * storage and no heap fallback.
 */
template <typename R, typename... Args>
class InlineFunction<R(Args...)>
{
  public:
    /** Inline storage size in bytes (the whole object is 64 bytes). */
    static constexpr std::size_t capacity = 56;

    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    /** Store a callable; fails to compile if it does not fit inline. */
    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    InlineFunction(F &&fn)
    {
        static_assert(sizeof(D) <= capacity,
                      "callable capture too large for InlineFunction");
        static_assert(alignof(D) <= alignof(std::max_align_t),
                      "callable over-aligned for InlineFunction");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "InlineFunction needs a nothrow-movable callable");
        ::new (static_cast<void *>(storage)) D(std::forward<F>(fn));
        ops = &opsFor<D>;
    }

    InlineFunction(InlineFunction &&other) noexcept { takeFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            takeFrom(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    /** True when a callable is held. */
    explicit operator bool() const noexcept { return ops != nullptr; }

    /**
     * Invoke the held callable (must be non-empty). Const like
     * std::function's call operator: constness does not reach the
     * stored callable.
     */
    R
    operator()(Args... args) const
    {
        return ops->invoke(storage, std::forward<Args>(args)...);
    }

    /** Destroy the held callable, leaving this empty. */
    void
    reset() noexcept
    {
        if (ops) {
            if (ops->destroy)
                ops->destroy(storage);
            ops = nullptr;
        }
    }

  private:
    /**
     * Type-erased operations. For trivially copyable callables (every
     * capture-by-pointer lambda) relocate and destroy are null: moving
     * is a buffer copy and destruction is a no-op, with no indirect
     * call on the per-event path.
     */
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** Move-construct into dst and destroy the source. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename D>
    static constexpr bool trivial = std::is_trivially_copyable_v<D>;

    template <typename D>
    static constexpr Ops opsFor = {
        [](void *self, Args &&...args) -> R {
            return (*static_cast<D *>(self))(std::forward<Args>(args)...);
        },
        trivial<D> ? nullptr : +[](void *dst, void *src) noexcept {
            ::new (dst) D(std::move(*static_cast<D *>(src)));
            static_cast<D *>(src)->~D();
        },
        trivial<D> ? nullptr
                   : +[](void *self) noexcept { static_cast<D *>(self)->~D(); },
    };

    void
    takeFrom(InlineFunction &other) noexcept
    {
        if (other.ops) {
            if (other.ops->relocate)
                other.ops->relocate(storage, other.storage);
            else
                std::memcpy(storage, other.storage, capacity);
            ops = other.ops;
            other.ops = nullptr;
        }
    }

    alignas(std::max_align_t) mutable unsigned char storage[capacity];
    const Ops *ops = nullptr;
};

/** Nullary continuation used throughout the simulator. */
using Callback = InlineFunction<void()>;

static_assert(sizeof(Callback) == 64, "Callback should fill one cache line");

} // namespace sim
} // namespace wcnn

#endif // WCNN_SIM_INLINE_FUNCTION_HH
