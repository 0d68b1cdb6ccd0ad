#include "codes/beep_code.h"

#include "common/error.h"

namespace nb {

BeepCode::BeepCode(std::size_t length, std::size_t weight, std::uint64_t seed)
    : length_(length), weight_(weight), seed_(seed) {
    require(weight > 0, "BeepCode: weight must be positive");
    require(weight <= length, "BeepCode: weight must be <= length");
}

BeepCode BeepCode::theorem4(std::size_t a, std::size_t k, std::size_t c, std::uint64_t seed) {
    require(a > 0 && k > 0 && c > 0, "BeepCode::theorem4: a, k, c must be positive");
    // b = c^2 * k * a; weight = delta*b/k = b/(c*k) = c*a.
    const std::size_t length = c * c * k * a;
    const std::size_t weight = c * a;
    return BeepCode(length, weight, seed);
}

Bitstring BeepCode::codeword(std::uint64_t r) const {
    Rng generator = Rng(seed_).derive(0x62656570u, r);
    return Bitstring::random_with_weight(generator, length_, weight_);
}

std::vector<std::size_t> BeepCode::one_positions(std::uint64_t r) const {
    return codeword_and_positions(r).second;
}

std::pair<Bitstring, std::vector<std::size_t>> BeepCode::codeword_and_positions(
    std::uint64_t r) const {
    std::pair<Bitstring, std::vector<std::size_t>> result;
    codeword_into(r, result.first, result.second);
    return result;
}

void BeepCode::codeword_into(std::uint64_t r, Bitstring& codeword,
                             std::vector<std::size_t>& positions) const {
    Rng generator = Rng(seed_).derive(0x62656570u, r);
    Bitstring::random_with_weight_into(generator, length_, weight_, codeword);
    positions.clear();
    positions.reserve(weight_);
    codeword.for_each_one([&positions](std::size_t p) { positions.push_back(p); });
}

}  // namespace nb
