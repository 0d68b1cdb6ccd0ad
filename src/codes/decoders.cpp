#include "codes/decoders.h"

#include <cmath>

#include "common/error.h"

namespace nb {

Phase1Decoder::Phase1Decoder(const BeepCode& code, double epsilon) : code_(&code) {
    require(epsilon >= 0.0 && epsilon < 0.5, "Phase1Decoder: epsilon must be in [0, 1/2)");
    threshold_ = (2.0 * epsilon + 1.0) / 4.0 * static_cast<double>(code.weight());
    // count >= threshold_ for an integer count iff count >= ceil(threshold_).
    reject_limit_ = static_cast<std::size_t>(std::ceil(threshold_));
}

std::size_t Phase1Decoder::missing_ones(const Bitstring& heard, std::uint64_t r) const {
    require(heard.size() == code_->length(), "Phase1Decoder: wrong transcript length");
    return code_->codeword(r).and_not_count(heard);
}

bool Phase1Decoder::accepts(const Bitstring& heard, std::uint64_t r) const {
    return static_cast<double>(missing_ones(heard, r)) < threshold_;
}

bool Phase1Decoder::accepts_codeword(const Bitstring& heard, const Bitstring& codeword,
                                     const simd::SimdOps& ops) const {
    require(codeword.size() == code_->length(), "Phase1Decoder: wrong codeword length");
    require(heard.size() == codeword.size(), "Phase1Decoder: wrong transcript length");
    return ops.and_not_count_below(codeword.words().data(), heard.words().data(),
                                   codeword.words().size(), reject_limit_);
}

void Phase1Decoder::accept_all(const Bitstring& heard, const BitsliceMatrix& candidates,
                               BitsliceScratch& scratch, std::vector<std::uint64_t>& accept,
                               const simd::SimdOps& ops) const {
    require(candidates.empty() || candidates.rows() == code_->length(),
            "Phase1Decoder::accept_all: wrong codeword length");
    candidates.and_not_below(heard, reject_limit_, scratch, accept, ops);
}

std::vector<std::uint64_t> Phase1Decoder::decode(
    const Bitstring& heard, std::span<const std::uint64_t> dictionary) const {
    std::vector<std::uint64_t> accepted;
    for (const auto r : dictionary) {
        if (accepts(heard, r)) {
            accepted.push_back(r);
        }
    }
    return accepted;
}

}  // namespace nb
