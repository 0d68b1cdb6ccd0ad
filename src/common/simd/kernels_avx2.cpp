// AVX2 kernel set. Compiled with -mavx2 (see CMakeLists.txt); only ever
// called after runtime CPU detection confirms AVX2.
//
// The popcount reductions use the VPSHUFB nibble-LUT popcount with
// _mm256_sad_epu8 byte-sum folding (the classic Mula/Kurz/Lemire scheme):
// AVX2 has no vector popcount instruction, so each 256-bit lane's bytes
// are counted via two 16-entry table lookups and summed with SAD, giving
// four u64 partial counts per vector that accumulate without overflow for
// any realistic array length. The position gather is a masked VPGATHERQQ
// per four positions. The bitwise bitslice pass and the early-exit
// variant reuse the generic bodies, which GCC/Clang auto-vectorize at
// 256-bit width in this TU.
#include "common/simd/kernels_inl.h"

#include <immintrin.h>

namespace nb::simd {
namespace {

/// Per-byte popcount of a 256-bit vector via nibble LUT.
inline __m256i popcount_bytes(__m256i v) {
    const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                                         0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
}

/// Horizontal sum of the four u64 lanes.
inline std::uint64_t hsum_epi64(__m256i v) {
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    const __m128i sum = _mm_add_epi64(lo, hi);
    return static_cast<std::uint64_t>(_mm_extract_epi64(sum, 0)) +
           static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1));
}

/// popcount of op(a[w], b[w]) over `words`, for op = ANDNOT or XOR.
template <bool kAndNot>
std::size_t reduce_popcount(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t words) {
    __m256i acc = _mm256_setzero_si256();
    std::size_t w = 0;
    for (; w + 4 <= words; w += 4) {
        const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
        const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
        // _mm256_andnot_si256(x, y) = ~x & y, so pass (b, a) for a & ~b.
        const __m256i mixed =
            kAndNot ? _mm256_andnot_si256(vb, va) : _mm256_xor_si256(va, vb);
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(popcount_bytes(mixed),
                                                    _mm256_setzero_si256()));
    }
    std::size_t total = static_cast<std::size_t>(hsum_epi64(acc));
    for (; w < words; ++w) {
        const std::uint64_t mixed = kAndNot ? (a[w] & ~b[w]) : (a[w] ^ b[w]);
        total += static_cast<std::size_t>(std::popcount(mixed));
    }
    return total;
}

std::size_t avx2_and_not_count(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t words) {
    return reduce_popcount<true>(a, b, words);
}

std::size_t avx2_hamming(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t words) {
    return reduce_popcount<false>(a, b, words);
}

bool avx2_and_not_count_below(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t words, std::size_t limit) {
    // Same monotone block-exit contract as the generic kernel, with the
    // block reduction vectorized.
    std::size_t total = 0;
    std::size_t w = 0;
    while (w < words) {
        const std::size_t end = w + 16 < words ? w + 16 : words;
        total += reduce_popcount<true>(a + w, b + w, end - w);
        w = end;
        if (total >= limit) {
            return false;
        }
    }
    return total < limit;
}

void avx2_hamming_all(const std::uint64_t* received, std::size_t words,
                      const std::uint64_t* soa, std::size_t stride,
                      std::uint32_t* out) {
    // Word-major SoA: candidate c's word w sits at soa[w * stride + c], so
    // four candidates' distances accumulate per vector op from contiguous
    // 32-byte loads — no gathers. Candidate-blocked loop order keeps the
    // accumulator in a register across the (short) word dimension.
    for (std::size_t c = 0; c < stride; c += 4) {
        __m256i acc = _mm256_setzero_si256();
        for (std::size_t w = 0; w < words; ++w) {
            const __m256i r = _mm256_set1_epi64x(static_cast<long long>(received[w]));
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(soa + w * stride + c));
            acc = _mm256_add_epi64(
                acc, _mm256_sad_epu8(popcount_bytes(_mm256_xor_si256(v, r)),
                                     _mm256_setzero_si256()));
        }
        alignas(32) std::uint64_t counts[4];
        _mm256_store_si256(reinterpret_cast<__m256i*>(counts), acc);
        out[c + 0] = static_cast<std::uint32_t>(counts[0]);
        out[c + 1] = static_cast<std::uint32_t>(counts[1]);
        out[c + 2] = static_cast<std::uint32_t>(counts[2]);
        out[c + 3] = static_cast<std::uint32_t>(counts[3]);
    }
}

bool avx2_gather_positions(const std::uint64_t* src, std::size_t src_bits,
                           const std::size_t* positions, std::size_t count,
                           std::uint64_t* out) {
    // Four positions per VPGATHERQQ: lane k loads src[p_k / 64], VPSRLVQ
    // brings bit p_k % 64 down to bit 0, a shift to the sign bit and
    // VMOVMSKPD pack the four bits. The bounds compare masks the gather,
    // so an out-of-range lane is never loaded; AVX2 has only a signed
    // 64-bit compare, hence the sign flip on both sides. The last 0-3
    // positions take the scalar path.
    const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(std::uint64_t{1} << 63));
    const __m256i limit =
        _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(src_bits)), sign);
    const __m256i low6 = _mm256_set1_epi64x(63);
    const auto* words = reinterpret_cast<const long long*>(src);
    __m256i in_range = _mm256_set1_epi64x(-1);
    const auto gather4 = [&](std::size_t i) {
        const __m256i p = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(positions + i));
        const __m256i ok = _mm256_cmpgt_epi64(limit, _mm256_xor_si256(p, sign));
        in_range = _mm256_and_si256(in_range, ok);
        const __m256i w = _mm256_mask_i64gather_epi64(_mm256_setzero_si256(), words,
                                                      _mm256_srli_epi64(p, 6), ok, 8);
        const __m256i top =
            _mm256_slli_epi64(_mm256_srlv_epi64(w, _mm256_and_si256(p, low6)), 63);
        return static_cast<std::uint64_t>(_mm256_movemask_pd(_mm256_castsi256_pd(top)));
    };
    std::size_t i = 0;
    for (; i + 64 <= count; i += 64) {
        std::uint64_t word = 0;
        for (std::size_t k = 0; k < 64; k += 4) {
            word |= gather4(i + k) << k;
        }
        out[i / 64] = word;
    }
    if (i < count) {
        std::uint64_t word = 0;
        std::size_t k = 0;
        for (; i + k + 4 <= count; k += 4) {
            word |= gather4(i + k) << k;
        }
        for (; i + k < count; ++k) {
            if (positions[i + k] >= src_bits) {
                return false;
            }
            word |= bit_at(src, positions[i + k]) << k;
        }
        out[i / 64] = word;
    }
    return _mm256_movemask_pd(_mm256_castsi256_pd(in_range)) == 0xf;
}

}  // namespace

namespace detail {

SimdOps make_avx2_ops() {
    return SimdOps{
        "avx2",       avx2_and_not_count, avx2_and_not_count_below,
        avx2_hamming, avx2_hamming_all,   generic_bitslice_pass,
        avx2_gather_positions,
    };
}

}  // namespace detail
}  // namespace nb::simd
