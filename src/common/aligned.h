// 64-byte-aligned word storage for the SIMD kernel layer.
//
// The hot data the vector kernels stream over — the bitsliced candidate
// matrix, the word-major encoded dictionary, the vertical-counter planes —
// lives in cache-line-aligned buffers whose row strides are padded to whole
// vector registers, so every lane load is a plain aligned (or at worst
// contiguous unaligned) load and never a gather.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

namespace nb {

/// Minimal C++17-style allocator returning 64-byte-aligned blocks.
template <typename T>
struct AlignedAllocator {
    using value_type = T;
    static constexpr std::size_t alignment = 64;

    AlignedAllocator() noexcept = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT

    // A plain block one alignment unit larger, aligned by hand, with the
    // block's own address in the word below the aligned one (plain blocks
    // are 16-byte aligned, so there is always room). Not aligned operator
    // new: glibc before 2.38 carves an aligned block out of a free chunk
    // `alignment` bytes larger than the block, so a freed aligned block can
    // never serve the next aligned request of its own size, and buffers
    // rebuilt per job (a fresh TransportBatch's record arenas) leave one
    // unusable hole each, growing a long-lived thread's heap without bound.
    // A freed plain block serves the next same-size request.
    T* allocate(std::size_t count) {
        if (count > (static_cast<std::size_t>(-1) - alignment) / sizeof(T)) {
            throw std::bad_array_new_length();
        }
        void* const block = ::operator new(count * sizeof(T) + alignment);
        const auto aligned = (reinterpret_cast<std::uintptr_t>(block) + alignment) &
                             ~static_cast<std::uintptr_t>(alignment - 1);
        reinterpret_cast<void**>(aligned)[-1] = block;
        return reinterpret_cast<T*>(aligned);
    }
    void deallocate(T* p, std::size_t) noexcept {
        ::operator delete(reinterpret_cast<void**>(p)[-1]);
    }

    template <typename U>
    bool operator==(const AlignedAllocator<U>&) const noexcept {
        return true;
    }
};

/// The kernel-facing word buffer: 64-byte-aligned uint64 storage.
using AlignedWords = std::vector<std::uint64_t, AlignedAllocator<std::uint64_t>>;

/// Words per 64-byte cache line / AVX-512 register.
inline constexpr std::size_t words_per_line = 8;

/// `words` rounded up to a whole cache line — the row stride the SIMD
/// kernels run over (padding words are kept zero by their owners, which
/// makes processing the padded tail both harmless and branch-free).
constexpr std::size_t padded_words(std::size_t words) noexcept {
    return (words + words_per_line - 1) / words_per_line * words_per_line;
}

}  // namespace nb
