/**
 * @file
 * Cache-line-aligned allocation for the dynamics arenas.
 *
 * The SoA lane kernels (src/algorithms/soa/) read and write whole
 * lane packs — W doubles per field — with compiler-vectorized loops.
 * Aligning every arena to the 64-byte cache line lets those loops
 * use aligned vector loads/stores and keeps a pack from straddling
 * two lines. The scalar workspace arenas share the allocator: it is
 * harmless for the link-by-link sweeps and means one allocation
 * policy for every per-thread arena.
 */

#ifndef DADU_LINALG_ALIGNED_H
#define DADU_LINALG_ALIGNED_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace dadu::linalg {

/**
 * Allocation alignment of every dynamics arena (one cache line). Not
 * an inline variable: the headers of the lane kernels build cleanly
 * under -fno-weak (CMakeLists.txt), which warns on those.
 */
constexpr std::size_t kArenaAlign = 64;

/** True when @p p is aligned to @p align bytes. */
inline bool
isAligned(const void *p, std::size_t align = kArenaAlign)
{
    return (reinterpret_cast<std::uintptr_t>(p) & (align - 1)) == 0;
}

/**
 * Minimal std::allocator drop-in handing out @p Align-aligned
 * blocks via the C++17 aligned operator new. Stateless: all
 * instances compare equal, so containers can propagate it freely.
 */
template <typename T, std::size_t Align = kArenaAlign>
struct AlignedAllocator
{
    using value_type = T;

    static_assert((Align & (Align - 1)) == 0, "alignment must be 2^k");

    AlignedAllocator() = default;

    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &) noexcept
    {}

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    T *
    allocate(std::size_t n)
    {
        const std::size_t align = Align < alignof(T) ? alignof(T) : Align;
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t(align)));
    }

    void
    deallocate(T *p, std::size_t)
    {
        const std::size_t align = Align < alignof(T) ? alignof(T) : Align;
        ::operator delete(p, std::align_val_t(align));
    }

    template <typename U>
    bool
    operator==(const AlignedAllocator<U, Align> &) const noexcept
    {
        return true;
    }
};

/** std::vector whose data() is 64-byte (cache-line) aligned. */
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

} // namespace dadu::linalg

#endif // DADU_LINALG_ALIGNED_H
