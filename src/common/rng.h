// Deterministic pseudo-random number generation.
//
// Every randomized component in the library draws from an explicit Rng so a
// run is a pure function of (inputs, seed). The generator is xoshiro256**
// seeded via splitmix64; independent per-node / per-purpose streams are
// derived with Rng::derive(), which mixes a stream id into the seed so that
// streams are statistically independent and order-insensitive.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace nb {

/// splitmix64 step: the standard 64-bit finalizer-based generator, used for
/// seeding and for hash-mixing stream ids.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// One-shot stateless mix of a 64-bit value (splitmix64 finalizer).
std::uint64_t mix64(std::uint64_t value) noexcept;

/// xoshiro256** generator with convenience sampling methods.
class Rng {
public:
    /// Construct from a 64-bit seed (expanded through splitmix64).
    explicit Rng(std::uint64_t seed = 0) noexcept;

    /// Next raw 64-bit output.
    std::uint64_t next_u64() noexcept;

    /// Uniform integer in [0, bound). Precondition: bound > 0.
    std::uint64_t next_below(std::uint64_t bound);

    /// Uniform integer in [lo, hi]. Precondition: lo <= hi.
    std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi);

    /// Uniform double in [0, 1).
    double next_double() noexcept;

    /// Bernoulli trial with success probability p in [0, 1].
    bool bernoulli(double p);

    /// Number of failures before the next success in a Bernoulli(p) process,
    /// i.e. a Geometric(p) sample starting at 0. Used for sparse noise
    /// injection: the gap between consecutive flipped bits.
    /// Precondition: 0 < p <= 1.
    std::uint64_t geometric_skip(double p);

    /// geometric_skip(p) with the denominator log1p(-p) precomputed by the
    /// caller. Draws and arithmetic are identical to geometric_skip(p); hot
    /// loops at one fixed p use GeometricSkip, which returns the same skips
    /// without the logarithm.
    std::uint64_t geometric_skip_with(double log1p_neg_p) noexcept;

    /// The skip geometric_skip_with returns for the 53-bit draw `draw`
    /// (next_u64() >> 11): floor(log(u) / log1p_neg_p) with
    /// u = max(draw, 1) * 2^-53, saturating at UINT64_MAX.
    static std::uint64_t geometric_skip_of(std::uint64_t draw,
                                           double log1p_neg_p) noexcept;

    /// `count` distinct positions sampled uniformly from [0, universe),
    /// returned sorted ascending (Floyd's algorithm). The reference for
    /// Bitstring::random_with_weight_into, which makes the same draws.
    /// Precondition: count <= universe.
    std::vector<std::size_t> distinct_positions(std::size_t universe, std::size_t count);

    /// The largest universe distinct_positions samples with Floyd's
    /// algorithm; above it, it rejection-samples instead.
    static constexpr std::size_t kFloydMaxUniverse = std::size_t{1} << 22;

    /// Fisher-Yates shuffle of [first, last) index order applied to a vector.
    template <typename T>
    void shuffle(std::vector<T>& items) {
        if (items.size() < 2) {
            return;
        }
        for (std::size_t i = items.size() - 1; i > 0; --i) {
            const auto j = static_cast<std::size_t>(next_below(i + 1));
            using std::swap;
            swap(items[i], items[j]);
        }
    }

    /// A new, statistically independent generator for the given stream id.
    /// derive(a) and derive(b) are independent for a != b, and independent of
    /// further draws from *this (derivation does not advance this generator).
    Rng derive(std::uint64_t stream_id) const noexcept;

    /// Derivation keyed by two ids (e.g. (node, round)).
    Rng derive(std::uint64_t id_a, std::uint64_t id_b) const noexcept;

private:
    std::array<std::uint64_t, 4> state_{};
};

/// Exact table-driven Geometric(p) sampler for one fixed p: sample(rng)
/// consumes exactly one next_u64() and returns exactly what
/// rng.geometric_skip(p) returns for that draw, so a stream sampled either
/// way is bit-identical. The skip is non-increasing in the 53-bit draw m,
/// so skip(m) = min{k : m >= bound[k]} with bound[k] the smallest draw
/// whose skip is <= k. A guide table over the draw's top 12 bits starts the
/// search at the skip of the bucket's top draw; the draw then walks up
/// `bound` (about one compare at the rates the table serves). Bucket 0
/// (draws below 2^41, probability 2^-12) keeps the libm formula, which
/// bounds the table at skip(2^41) + 1 ~ 8.3 / p entries; rates whose table
/// would exceed kMaxTable entries take the formula for every draw (see
/// DESIGN.md section 6).
class GeometricSkip {
public:
    /// Builds the tables: a bracketed binary search per bound entry around
    /// the closed form 2^53 (1 - p)^(k + 1), then a merge walk for the
    /// guide. Precondition: 0 < p < 1.
    explicit GeometricSkip(double p);

    double p() const noexcept { return p_; }

    /// One Geometric(p) skip from one next_u64().
    std::uint64_t sample(Rng& rng) const noexcept { return skip_of(rng.next_u64() >> 11); }

    /// The skip for one 53-bit draw; equals Rng::geometric_skip_of(draw,
    /// log1p(-p)) for every draw in [0, 2^53).
    std::uint64_t skip_of(std::uint64_t draw) const noexcept {
        if (draw < formula_below_) {
            return Rng::geometric_skip_of(draw, log1p_neg_p_);
        }
        std::uint64_t k = guide_[draw >> kBucketShift];
        while (draw < bound_[k]) {
            ++k;
        }
        return k;
    }

    /// bound[k] for every tabulated skip k; empty when p is too small for
    /// the table to win.
    std::span<const std::uint64_t> bounds() const noexcept { return bound_; }

    /// The largest table: p above ~0.00203, 32 KB of bounds plus the 8 KB
    /// guide, a build under ~0.3 ms. At smaller p the per-draw gain
    /// shrinks (15 ns against the formula's 21 ns at 8314 entries, p =
    /// 0.001; a loss past ~16K entries) while the table and its
    /// ~55 ns-per-entry build grow as 1/p. BM_GeometricSkipDraw in
    /// bench_e14_micro records the rows.
    static constexpr std::size_t kMaxTable = 4096;

    /// The guide's bucket of a 53-bit draw is its top 12 bits.
    static constexpr int kBucketShift = 41;

private:
    double p_;
    double log1p_neg_p_;
    std::uint64_t formula_below_;      ///< draws below this take the formula
    std::vector<std::uint64_t> bound_;  ///< non-increasing
    std::vector<std::uint16_t> guide_;  ///< 4096 buckets; [0] unused
};

}  // namespace nb
