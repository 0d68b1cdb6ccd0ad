#include "common/rng.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace nb {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t value) noexcept {
    std::uint64_t state = value;
    return splitmix64(state);
}

namespace {

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) {
        word = splitmix64(sm);
    }
}

std::uint64_t Rng::next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
    require(bound > 0, "Rng::next_below: bound must be positive");
    // Classic unbiased rejection sampling: discard draws below
    // 2^64 mod bound, then reduce.
    const std::uint64_t threshold = (0 - bound) % bound;
    while (true) {
        const std::uint64_t x = next_u64();
        if (x >= threshold) {
            return x % bound;
        }
    }
}

std::uint64_t Rng::next_in(std::uint64_t lo, std::uint64_t hi) {
    require(lo <= hi, "Rng::next_in: lo must be <= hi");
    const std::uint64_t span = hi - lo;
    if (span == UINT64_MAX) {
        return next_u64();
    }
    return lo + next_below(span + 1);
}

double Rng::next_double() noexcept {
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) {
    require(p >= 0.0 && p <= 1.0, "Rng::bernoulli: p must be in [0, 1]");
    if (p <= 0.0) {
        return false;
    }
    if (p >= 1.0) {
        return true;
    }
    return next_double() < p;
}

std::uint64_t Rng::geometric_skip(double p) {
    require(p > 0.0 && p <= 1.0, "Rng::geometric_skip: p must be in (0, 1]");
    if (p >= 1.0) {
        return 0;
    }
    return geometric_skip_with(std::log1p(-p));
}

std::uint64_t Rng::geometric_skip_with(double log1p_neg_p) noexcept {
    // Inverse-CDF sampling: floor(log(U) / log(1 - p)) with U in (0, 1].
    double u = next_double();
    if (u <= 0.0) {
        u = 0x1.0p-53;
    }
    const double skip = std::floor(std::log(u) / log1p_neg_p);
    if (skip >= 9.2e18) {
        return UINT64_MAX;
    }
    return static_cast<std::uint64_t>(skip);
}

std::vector<std::size_t> Rng::distinct_positions(std::size_t universe, std::size_t count) {
    require(count <= universe, "Rng::distinct_positions: count must be <= universe");
    // Floyd's algorithm gives `count` distinct samples in O(count) expected
    // time; we collect into a sorted vector at the end.
    std::vector<std::size_t> chosen;
    chosen.reserve(count);
    std::vector<bool> taken;
    // For dense requests a plain partial Fisher-Yates over a scratch vector
    // would allocate O(universe); Floyd + membership bitmap keeps memory at
    // O(universe/8) only when universe is small, otherwise uses sorted probe.
    if (universe <= kFloydMaxUniverse) {
        taken.assign(universe, false);
        for (std::size_t j = universe - count; j < universe; ++j) {
            const auto t = static_cast<std::size_t>(next_below(j + 1));
            if (!taken[t]) {
                taken[t] = true;
                chosen.push_back(t);
            } else {
                taken[j] = true;
                chosen.push_back(j);
            }
        }
    } else {
        // Rejection sampling is fine when count << universe (our use case for
        // large universes); expected iterations ~ count for count <= sqrt-ish
        // densities.
        std::vector<std::size_t> sorted;
        sorted.reserve(count);
        while (sorted.size() < count) {
            const auto candidate = static_cast<std::size_t>(next_below(universe));
            bool duplicate = false;
            for (const auto existing : sorted) {
                if (existing == candidate) {
                    duplicate = true;
                    break;
                }
            }
            if (!duplicate) {
                sorted.push_back(candidate);
            }
        }
        chosen = std::move(sorted);
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

Rng Rng::derive(std::uint64_t stream_id) const noexcept {
    std::uint64_t mixed = state_[0] ^ rotl(state_[2], 29);
    mixed = mix64(mixed ^ mix64(stream_id ^ 0xa0761d6478bd642fULL));
    return Rng(mixed);
}

Rng Rng::derive(std::uint64_t id_a, std::uint64_t id_b) const noexcept {
    return derive(mix64(id_a) ^ rotl(mix64(id_b ^ 0xe7037ed1a0b428dbULL), 31));
}

}  // namespace nb
