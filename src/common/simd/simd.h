// Runtime-dispatched SIMD kernels for the decode hot loops.
//
// The transports' cost is dominated by three word-array kernels: the
// phase-1 bitslice pass (carry-save accumulation of transcript rows into
// vertical counters), the phase-2 Hamming scans (fused XOR+popcount
// reductions), and the Lemma 9 missing-ones counts (fused ANDNOT+popcount).
// This layer compiles each kernel three times — portable scalar (always),
// AVX2, and AVX-512 (each gated by compiler support at build time and CPU
// support at run time) — and dispatches through a per-kernel function table.
//
// Dispatch contract: every table computes bit-identical results. The
// kernels are exact integer reductions and pure bitwise passes, so lane
// width changes only the association order of additions over uint64 words —
// which is immaterial for integer sums — never the value. The forced-
// dispatch property tests (tests/test_simd.cpp) and the golden transport
// fingerprints rerun under every kernel pin this.
//
// Selection: SimulationParams::simd_kernel (per transport), else the
// NB_SIMD_KERNEL environment variable (scalar|avx2|avx512|auto — the CI
// sanitizer jobs force each), else the best kernel the CPU supports.
// Requesting an unavailable kernel falls back to the best supported one;
// resolve_kernel() reports what actually runs, and the benches log it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nb::simd {

enum class Kernel : unsigned char {
    scalar = 0,
    avx2 = 1,
    avx512 = 2,
    auto_best = 255,  ///< defer to NB_SIMD_KERNEL, then CPU detection
};

/// One dispatch table. All pointers are non-null in every table (ISA
/// variants fall back to the generic implementation compiled with that
/// ISA's flags where hand-written intrinsics buy nothing).
struct SimdOps {
    const char* name;

    /// popcount(a AND NOT b) over `words` words (Lemma 9 missing-ones).
    std::size_t (*and_not_count)(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t words);

    /// and_not_count(a, b) < limit with early exit — the packed scalar
    /// phase-1 kernel. Block-wise exits keep the result identical to the
    /// per-word original (the running sum is monotone).
    bool (*and_not_count_below)(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words, std::size_t limit);

    /// popcount(a XOR b) over `words` words (Hamming distance).
    std::size_t (*hamming)(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t words);

    /// Hamming distance from `received` to every column of a word-major
    /// SoA dictionary: column c's word w sits at soa[w * stride + c]
    /// (common/word_soa.h). out[c] accumulates across the word index, so
    /// lanes load contiguous column runs — no gathers. Requires
    /// stride % 8 == 0 and out sized to stride (padding columns welcome:
    /// their words are zero, their distances are popcount(received)).
    void (*hamming_all)(const std::uint64_t* received, std::size_t words,
                        const std::uint64_t* soa, std::size_t stride,
                        std::uint32_t* out);

    /// The phase-1 bitslice pass (see bitslice.h for the algorithm): for
    /// every 1-row p of `transcript`, accumulate rows[p * lanes ..] into
    /// 3-bit carry-save chunk counters, flushing each 7-row chunk into the
    /// bias-initialized `planes`; carries out of the top plane OR into
    /// `out`. `low` is 4 * lanes scratch words (3 chunk planes + a carry
    /// buffer), zeroed on entry and left zeroed on exit. lanes % 8 == 0.
    void (*bitslice_pass)(const std::uint64_t* transcript, std::size_t transcript_words,
                          const std::uint64_t* rows, std::size_t lanes,
                          std::uint64_t* low, std::uint64_t* planes,
                          std::size_t plane_count, std::uint64_t* out);

    /// Pack the bits of `src` at `positions[0 .. count)`, in order, into
    /// `out`: out bit i = src bit positions[i] (the Notation 7 subsequence
    /// gather at a codeword's 1-positions; positions may be unsorted or
    /// repeat). `src_bits` bounds them: a position >= src_bits is never
    /// read, and the call returns false with `out` unspecified. `out` must
    /// hold ceil(count / 64) words and gets zero padding bits.
    bool (*gather_positions)(const std::uint64_t* src, std::size_t src_bits,
                             const std::size_t* positions, std::size_t count,
                             std::uint64_t* out);
};

/// True iff `kernel`'s code was compiled in AND the CPU supports it
/// (scalar is always true; auto_best is always true).
bool kernel_supported(Kernel kernel) noexcept;

/// The fastest supported kernel on this machine.
Kernel best_kernel() noexcept;

/// What `requested` actually runs as: auto_best resolves through
/// NB_SIMD_KERNEL then best_kernel(); an unsupported explicit request
/// falls back to best_kernel().
Kernel resolve_kernel(Kernel requested) noexcept;

/// The dispatch table for resolve_kernel(requested).
const SimdOps& ops(Kernel requested = Kernel::auto_best) noexcept;

/// "scalar" / "avx2" / "avx512" / "auto".
const char* kernel_name(Kernel kernel) noexcept;

/// Parse a kernel name (as accepted by NB_SIMD_KERNEL); returns auto_best
/// for "auto", scalar/avx2/avx512 for their names, and auto_best with
/// `*ok = false` for anything else.
Kernel parse_kernel(const char* name, bool* ok = nullptr) noexcept;

}  // namespace nb::simd
