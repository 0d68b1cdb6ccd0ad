// Generic (auto-vectorizable) implementations of the SimdOps kernels.
//
// This header is included ONCE per kernel translation unit — scalar, AVX2,
// AVX-512 — each compiled with that ISA's flags, so the same source yields
// a differently-vectorized body per TU. Everything here lives in an
// anonymous namespace on purpose: each TU gets its own internal-linkage
// copy, so the linker can never merge (and thereby mis-dispatch) bodies
// compiled for different ISAs, which an ODR-shared inline function would
// invite. The popcount reductions and the position gather are overridden
// with hand-written intrinsics in the AVX2/AVX-512 TUs; the pure bitwise
// bitslice pass auto-vectorizes well everywhere and is shared as-is.
//
// Exactness: every kernel is an integer reduction or a bitwise pass whose
// result is independent of association order, so all ISA variants are
// bit-identical by construction (and property-tested against each other).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/simd/simd.h"

namespace nb::simd {
namespace {

[[maybe_unused]] std::size_t generic_and_not_count(const std::uint64_t* a, const std::uint64_t* b,
                                  std::size_t words) {
    std::size_t total = 0;
    for (std::size_t w = 0; w < words; ++w) {
        total += static_cast<std::size_t>(std::popcount(a[w] & ~b[w]));
    }
    return total;
}

[[maybe_unused]] bool generic_and_not_count_below(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t words, std::size_t limit) {
    // Early exit per 16-word block: the running count is monotone, so the
    // boolean is identical to the per-word-exit original while the block
    // body stays a straight-line reduction the vectorizer can take.
    std::size_t total = 0;
    std::size_t w = 0;
    while (w < words) {
        const std::size_t end = w + 16 < words ? w + 16 : words;
        for (; w < end; ++w) {
            total += static_cast<std::size_t>(std::popcount(a[w] & ~b[w]));
        }
        if (total >= limit) {
            return false;
        }
    }
    return total < limit;
}

[[maybe_unused]] std::size_t generic_hamming(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t words) {
    std::size_t total = 0;
    for (std::size_t w = 0; w < words; ++w) {
        total += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
    }
    return total;
}

[[maybe_unused]] void generic_hamming_all(const std::uint64_t* received, std::size_t words,
                         const std::uint64_t* soa, std::size_t stride,
                         std::uint32_t* out) {
    for (std::size_t c = 0; c < stride; ++c) {
        out[c] = 0;
    }
    for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t r = received[w];
        const std::uint64_t* __restrict row = soa + w * stride;
        std::uint32_t* __restrict acc = out;
        for (std::size_t c = 0; c < stride; ++c) {
            acc[c] += static_cast<std::uint32_t>(std::popcount(row[c] ^ r));
        }
    }
}

/// One 7-row chunk flushed into the bias-initialized planes, written as
/// plane-major full-array passes (each a straight vectorizable loop; the
/// original per-lane sequential walk computes the same values in a
/// different loop order). `carry` is caller scratch of `lanes` words.
void generic_bitslice_flush(std::uint64_t* __restrict low0, std::uint64_t* __restrict low1,
                            std::uint64_t* __restrict low2, std::uint64_t* __restrict carry,
                            std::uint64_t* planes, std::size_t lanes,
                            std::size_t plane_count, std::uint64_t* __restrict out) {
    // Half-add the chunk's bit 0 into plane 0.
    for (std::size_t w = 0; w < lanes; ++w) {
        const std::uint64_t p = planes[w];
        carry[w] = p & low0[w];
        planes[w] = p ^ low0[w];
    }
    if (plane_count == 1) {
        // Counters narrower than the chunk: any unrepresentable chunk bit
        // means the threshold was passed and carries out directly.
        for (std::size_t w = 0; w < lanes; ++w) {
            out[w] |= carry[w] | low1[w] | low2[w];
        }
    } else {
        std::uint64_t* plane1 = planes + lanes;
        for (std::size_t w = 0; w < lanes; ++w) {
            const std::uint64_t p = plane1[w];
            const std::uint64_t c1 = low1[w];
            const std::uint64_t cin = carry[w];
            plane1[w] = p ^ c1 ^ cin;
            carry[w] = (p & (c1 | cin)) | (c1 & cin);
        }
        if (plane_count == 2) {
            for (std::size_t w = 0; w < lanes; ++w) {
                out[w] |= carry[w] | low2[w];
            }
        } else {
            std::uint64_t* plane2 = planes + 2 * lanes;
            for (std::size_t w = 0; w < lanes; ++w) {
                const std::uint64_t p = plane2[w];
                const std::uint64_t c2 = low2[w];
                const std::uint64_t cin = carry[w];
                plane2[w] = p ^ c2 ^ cin;
                carry[w] = (p & (c2 | cin)) | (c2 & cin);
            }
            for (std::size_t k = 3; k < plane_count; ++k) {
                std::uint64_t* plane = planes + k * lanes;
                for (std::size_t w = 0; w < lanes; ++w) {
                    const std::uint64_t p = plane[w];
                    plane[w] = p ^ carry[w];
                    carry[w] &= p;
                }
            }
            for (std::size_t w = 0; w < lanes; ++w) {
                out[w] |= carry[w];
            }
        }
    }
    for (std::size_t w = 0; w < lanes; ++w) {
        low0[w] = 0;
        low1[w] = 0;
        low2[w] = 0;
    }
}

[[maybe_unused]] void generic_bitslice_pass(const std::uint64_t* transcript,
                                            std::size_t transcript_words,
                                            const std::uint64_t* rows, std::size_t lanes,
                                            std::uint64_t* low, std::uint64_t* planes,
                                            std::size_t plane_count, std::uint64_t* out) {
    std::uint64_t* low0 = low;
    std::uint64_t* low1 = low + lanes;
    std::uint64_t* low2 = low + 2 * lanes;
    std::uint64_t* carry = low + 3 * lanes;

    std::size_t chunk_rows = 0;
    for (std::size_t tw = 0; tw < transcript_words; ++tw) {
        std::uint64_t bits = transcript[tw];
        while (bits != 0) {
            const std::size_t p =
                tw * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            const std::uint64_t* __restrict row = rows + p * lanes;
            std::uint64_t* __restrict l0 = low0;
            std::uint64_t* __restrict l1 = low1;
            std::uint64_t* __restrict l2 = low2;
            for (std::size_t w = 0; w < lanes; ++w) {
                const std::uint64_t r = row[w];
                const std::uint64_t a = l0[w];
                const std::uint64_t carry1 = a & r;
                l0[w] = a ^ r;
                const std::uint64_t b = l1[w];
                l1[w] = b ^ carry1;
                l2[w] ^= b & carry1;
            }
            if (++chunk_rows == 7) {
                generic_bitslice_flush(low0, low1, low2, carry, planes, lanes, plane_count,
                                       out);
                chunk_rows = 0;
            }
        }
    }
    if (chunk_rows != 0) {
        generic_bitslice_flush(low0, low1, low2, carry, planes, lanes, plane_count, out);
    }
}

/// Bit `p` of `src`, as 0 or 1.
inline std::uint64_t bit_at(const std::uint64_t* src, std::size_t p) {
    return (src[p / 64] >> (p % 64)) & std::uint64_t{1};
}

/// The position gather as a plain loop: each output word is assembled in
/// four independent accumulators (positions j, j+1, j+2, j+3 of the word),
/// so the loads and shifts of neighbouring positions overlap instead of
/// queueing behind one OR chain. Positions are bounds-checked four at a
/// time, before any of the four is read.
[[maybe_unused]] bool generic_gather_positions(const std::uint64_t* src, std::size_t src_bits,
                                               const std::size_t* positions,
                                               std::size_t count, std::uint64_t* out) {
    for (std::size_t base = 0; base < count; base += 64) {
        const std::size_t len = count - base < 64 ? count - base : 64;
        const std::size_t* p = positions + base;
        std::uint64_t acc0 = 0;
        std::uint64_t acc1 = 0;
        std::uint64_t acc2 = 0;
        std::uint64_t acc3 = 0;
        std::size_t j = 0;
        for (; j + 4 <= len; j += 4) {
            if ((p[j] >= src_bits) | (p[j + 1] >= src_bits) | (p[j + 2] >= src_bits) |
                (p[j + 3] >= src_bits)) {
                return false;
            }
            acc0 |= bit_at(src, p[j]) << j;
            acc1 |= bit_at(src, p[j + 1]) << (j + 1);
            acc2 |= bit_at(src, p[j + 2]) << (j + 2);
            acc3 |= bit_at(src, p[j + 3]) << (j + 3);
        }
        for (; j < len; ++j) {
            if (p[j] >= src_bits) {
                return false;
            }
            acc0 |= bit_at(src, p[j]) << j;
        }
        out[base / 64] = acc0 | acc1 | acc2 | acc3;
    }
    return true;
}

}  // namespace
}  // namespace nb::simd
