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
    return geometric_skip_of(next_u64() >> 11, log1p_neg_p);
}

std::uint64_t Rng::geometric_skip_of(std::uint64_t draw, double log1p_neg_p) noexcept {
    // Inverse-CDF sampling: floor(log(U) / log(1 - p)) with U in (0, 1],
    // U = the next_double() of the draw, and a zero draw read as 2^-53.
    double u = static_cast<double>(draw) * 0x1.0p-53;
    if (u <= 0.0) {
        u = 0x1.0p-53;
    }
    const double skip = std::floor(std::log(u) / log1p_neg_p);
    if (skip >= 9.2e18) {
        return UINT64_MAX;
    }
    return static_cast<std::uint64_t>(skip);
}

GeometricSkip::GeometricSkip(double p)
    : p_(p), log1p_neg_p_(std::log1p(-p)), formula_below_(std::uint64_t{1} << 53) {
    require(p > 0.0 && p < 1.0, "GeometricSkip: p must be in (0, 1)");
    const double log1p_neg_p = log1p_neg_p_;
    const auto skip = [log1p_neg_p](std::uint64_t draw) {
        return Rng::geometric_skip_of(draw, log1p_neg_p);
    };
    // Bucket 0 keeps the formula, so the table needs every skip a draw of
    // at least 2^41 can take: 0 .. skip(2^41).
    const std::uint64_t deepest = skip(std::uint64_t{1} << kBucketShift);
    if (deepest >= kMaxTable) {
        return;
    }
    constexpr std::uint64_t kDrawMax = (std::uint64_t{1} << 53) - 1;
    bound_.resize(static_cast<std::size_t>(deepest) + 1);
    for (std::uint64_t k = 0; k <= deepest; ++k) {
        // skip(m) <= k exactly when 2^-53 m > (1 - p)^(k + 1), up to the
        // rounding of log, the divide and exp, which moves the boundary by
        // a few draws at most. Gallop out from the closed-form estimate
        // until [lo, hi] brackets it, then bisect with the formula itself.
        const auto above = [&](std::uint64_t draw) { return skip(draw) > k; };
        const double estimate =
            std::ceil(0x1.0p53 * std::exp(static_cast<double>(k + 1) * log1p_neg_p));
        const std::uint64_t start = std::min(static_cast<std::uint64_t>(estimate), kDrawMax);
        std::uint64_t lo = start;
        std::uint64_t hi = start;
        std::uint64_t step = 1;
        if (above(start)) {
            do {
                lo = hi;
                hi = std::min(start + step, kDrawMax);
                step *= 2;
            } while (hi < kDrawMax && above(hi));
        } else {
            do {
                hi = lo;
                lo = start > step ? start - step : 0;
                step *= 2;
            } while (lo > 0 && !above(lo));
            if (lo == 0 && !above(0)) {
                hi = 0;  // every draw's skip is <= k
            }
        }
        while (hi - lo > 1) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            (above(mid) ? lo : hi) = mid;
        }
        bound_[k] = hi;
    }
    // guide[b] = skip of bucket b's top draw = min{k : top >= bound[k]}.
    // Both sequences are monotone, so one merge walk fills it.
    guide_.resize(std::size_t{1} << (53 - kBucketShift));
    std::size_t k = bound_.size() - 1;
    guide_[0] = static_cast<std::uint16_t>(k);
    for (std::size_t b = 1; b < guide_.size(); ++b) {
        const std::uint64_t top = ((std::uint64_t{b} + 1) << kBucketShift) - 1;
        while (k > 0 && top >= bound_[k - 1]) {
            --k;
        }
        guide_[b] = static_cast<std::uint16_t>(k);
    }
    formula_below_ = std::uint64_t{1} << kBucketShift;
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
