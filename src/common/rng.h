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
    /// caller. Hot loops drawing many skips at one p hoist the logarithm;
    /// draws and arithmetic are identical to geometric_skip(p).
    std::uint64_t geometric_skip_with(double log1p_neg_p) noexcept;

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

}  // namespace nb
