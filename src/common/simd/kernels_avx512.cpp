// AVX-512 kernel set. Compiled with -mavx512f/bw/vl/dq/vpopcntdq (see
// CMakeLists.txt); only ever called after runtime CPU detection confirms
// those features.
//
// VPOPCNTQ counts eight u64 lanes per instruction, so the popcount
// reductions are a straight load/op/popcount/add pipeline — no LUT, no SAD
// folding. The position gather is a masked VPGATHERQQ per eight positions.
// The bitwise bitslice pass reuses the generic body, which the
// compiler auto-vectorizes at 512-bit width in this TU
// (-mprefer-vector-width=512).
#include "common/simd/kernels_inl.h"

#include <immintrin.h>

namespace nb::simd {
namespace {

/// popcount of op(a[w], b[w]) over `words`, for op = ANDNOT or XOR.
template <bool kAndNot>
std::size_t reduce_popcount512(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t words) {
    __m512i acc = _mm512_setzero_si512();
    std::size_t w = 0;
    for (; w + 8 <= words; w += 8) {
        const __m512i va = _mm512_loadu_si512(a + w);
        const __m512i vb = _mm512_loadu_si512(b + w);
        // _mm512_andnot_si512(x, y) = ~x & y, so pass (b, a) for a & ~b.
        const __m512i mixed =
            kAndNot ? _mm512_andnot_si512(vb, va) : _mm512_xor_si512(va, vb);
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(mixed));
    }
    std::size_t total = static_cast<std::size_t>(_mm512_reduce_add_epi64(acc));
    for (; w < words; ++w) {
        const std::uint64_t mixed = kAndNot ? (a[w] & ~b[w]) : (a[w] ^ b[w]);
        total += static_cast<std::size_t>(std::popcount(mixed));
    }
    return total;
}

std::size_t avx512_and_not_count(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t words) {
    return reduce_popcount512<true>(a, b, words);
}

std::size_t avx512_hamming(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t words) {
    return reduce_popcount512<false>(a, b, words);
}

bool avx512_and_not_count_below(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words, std::size_t limit) {
    // Same monotone block-exit contract as the generic kernel.
    std::size_t total = 0;
    std::size_t w = 0;
    while (w < words) {
        const std::size_t end = w + 16 < words ? w + 16 : words;
        total += reduce_popcount512<true>(a + w, b + w, end - w);
        w = end;
        if (total >= limit) {
            return false;
        }
    }
    return total < limit;
}

void avx512_hamming_all(const std::uint64_t* received, std::size_t words,
                        const std::uint64_t* soa, std::size_t stride,
                        std::uint32_t* out) {
    // Word-major SoA: eight candidates' distances accumulate per VPOPCNTQ
    // from one aligned 64-byte load (stride % 8 == 0 keeps every row
    // block cache-line-aligned). Candidate-blocked loop order keeps the
    // accumulator in a register across the (short) word dimension.
    for (std::size_t c = 0; c < stride; c += 8) {
        __m512i acc = _mm512_setzero_si512();
        for (std::size_t w = 0; w < words; ++w) {
            const __m512i r = _mm512_set1_epi64(static_cast<long long>(received[w]));
            const __m512i v = _mm512_load_si512(soa + w * stride + c);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_xor_si512(v, r)));
        }
        // Eight u64 counts -> eight u32 accumulator slots. The masked
        // truncating store (full mask) sidesteps _mm512_cvtepi64_epi32,
        // whose GCC 12 header trips -Werror=uninitialized via
        // _mm256_undefined_si256.
        _mm512_mask_cvtepi64_storeu_epi32(out + c, 0xff, acc);
    }
}

bool avx512_gather_positions(const std::uint64_t* src, std::size_t src_bits,
                             const std::size_t* positions, std::size_t count,
                             std::uint64_t* out) {
    // Eight positions per VPGATHERQQ: lane k loads src[p_k / 64], VPSRLVQ
    // brings bit p_k % 64 down to bit 0 and VPTESTMQ packs the eight bits
    // into a mask. The bounds compare masks the gather, so an out-of-range
    // lane is never loaded. Full output words run eight independent
    // gathers; the tail's dead lanes are masked off the position load and
    // the gather and come out as zero padding bits.
    const __m512i limit = _mm512_set1_epi64(static_cast<long long>(src_bits));
    const __m512i low6 = _mm512_set1_epi64(63);
    const __m512i one = _mm512_set1_epi64(1);
    __mmask8 in_range = 0xff;
    // The bits at positions[j .. j + 8) in the lanes of `live`, packed.
    const auto gather8 = [&](std::size_t j, __mmask8 live) {
        const __m512i p = _mm512_maskz_loadu_epi64(live, positions + j);
        const __mmask8 ok = _mm512_mask_cmplt_epu64_mask(live, p, limit);
        in_range &= ok | static_cast<__mmask8>(~live);
        const __m512i w = _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), ok,
                                                      _mm512_srli_epi64(p, 6), src, 8);
        return static_cast<std::uint64_t>(
            _mm512_test_epi64_mask(_mm512_srlv_epi64(w, _mm512_and_si512(p, low6)), one));
    };
    std::size_t i = 0;
    for (; i + 64 <= count; i += 64) {
        std::uint64_t word = 0;
        for (std::size_t k = 0; k < 64; k += 8) {
            word |= gather8(i + k, 0xff) << k;
        }
        out[i / 64] = word;
    }
    if (i < count) {
        std::uint64_t word = 0;
        for (std::size_t k = 0; i + k < count; k += 8) {
            const std::size_t left = count - i - k;
            word |= gather8(i + k, left >= 8 ? 0xff : static_cast<__mmask8>((1u << left) - 1))
                    << k;
        }
        out[i / 64] = word;
    }
    return in_range == 0xff;
}

}  // namespace

namespace detail {

SimdOps make_avx512_ops() {
    return SimdOps{
        "avx512",       avx512_and_not_count, avx512_and_not_count_below,
        avx512_hamming, avx512_hamming_all,   generic_bitslice_pass,
        avx512_gather_positions,
    };
}

}  // namespace detail
}  // namespace nb::simd
