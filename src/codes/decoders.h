// Decoders for the two phases of Algorithm 1.
//
// Phase 1 (Lemma 9): from the noisy superimposition transcript x~_v, recover
// the set R_v of beep-code inputs used in v's inclusive neighborhood. The
// paper's rule: accept r iff C(r) does NOT ((2*eps+1)/4 * weight)-intersect
// the complement of x~_v — i.e. fewer than that many of C(r)'s 1s are
// missing from the transcript.
//
// Phase 2 (Lemma 10): nearest-codeword distance decoding of the extracted
// subsequence y~_{v,w}; provided by DistanceCode::decode.
//
// The paper's decoder ranges over all 2^a inputs (local computation is free
// in beeping models); tractably, decode() tests the identical per-candidate
// rule over a caller-supplied dictionary (all in-use inputs plus decoys; see
// DESIGN.md section 3).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "codes/beep_code.h"
#include "common/bitslice.h"
#include "common/bitstring.h"

namespace nb {

class Phase1Decoder {
public:
    /// `epsilon` is the channel-noise constant used in the acceptance
    /// threshold (2*eps+1)/4 * weight. With epsilon = 0 the threshold is
    /// weight/4, which also serves the noiseless model.
    Phase1Decoder(const BeepCode& code, double epsilon);

    /// Number of missing 1s strictly below which a candidate is accepted.
    double threshold() const noexcept { return threshold_; }

    /// The acceptance test as an integer bound: a candidate is accepted iff
    /// its missing-ones count is < reject_limit() (= ceil(threshold), since
    /// counts are integers). This is the early-exit limit for the packed
    /// kernel Bitstring::and_not_count_below.
    std::size_t reject_limit() const noexcept { return reject_limit_; }

    /// Missing-ones count 1(C(r) AND NOT heard) for a single candidate.
    std::size_t missing_ones(const Bitstring& heard, std::uint64_t r) const;

    /// Lemma 9 acceptance test for a single candidate input.
    bool accepts(const Bitstring& heard, std::uint64_t r) const;

    /// Acceptance test given an already-generated codeword (avoids
    /// regenerating C(r) when the caller holds it, e.g. the transport's
    /// phase-1 schedules). The count runs on the dispatch table `ops`
    /// (bit-identical across tables; see simd.h) — the transports resolve
    /// it once per round instead of once per candidate.
    bool accepts_codeword(const Bitstring& heard, const Bitstring& codeword,
                          const simd::SimdOps& ops = simd::ops()) const;

    /// All accepted inputs among `dictionary` (the decoded set R~_v).
    std::vector<std::uint64_t> decode(const Bitstring& heard,
                                      std::span<const std::uint64_t> dictionary) const;

    /// Bitsliced Lemma 9 test over a whole candidate matrix at once: after
    /// the call, bit c of `accept` is set iff
    /// accepts_codeword(heard, column c of `candidates`). One pass over the
    /// transcript scores all candidates word-parallel (64 per lane); see
    /// bitslice.h for the kernel. The transports call this in place of
    /// their per-candidate loops when the dictionary is large.
    /// Precondition: the matrix rows equal the code length.
    void accept_all(const Bitstring& heard, const BitsliceMatrix& candidates,
                    BitsliceScratch& scratch, std::vector<std::uint64_t>& accept,
                    const simd::SimdOps& ops = simd::ops()) const;

private:
    const BeepCode* code_;
    double threshold_;
    std::size_t reject_limit_;
};

}  // namespace nb
