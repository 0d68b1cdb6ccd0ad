// Unit tests for the deterministic RNG substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>

#include "common/error.h"
#include "common/rng.h"

namespace nb {
namespace {

TEST(Rng, DeterministicPerSeed) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i) {
        any_diff |= a.next_u64() != b.next_u64();
    }
    EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowInRange) {
    Rng rng(5);
    for (const std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 48}) {
        for (int i = 0; i < 200; ++i) {
            EXPECT_LT(rng.next_below(bound), bound);
        }
    }
}

TEST(Rng, NextBelowZeroThrows) {
    Rng rng(5);
    EXPECT_THROW(rng.next_below(0), precondition_error);
}

TEST(Rng, NextBelowRoughlyUniform) {
    Rng rng(17);
    std::array<std::size_t, 8> buckets{};
    const std::size_t draws = 80000;
    for (std::size_t i = 0; i < draws; ++i) {
        ++buckets[rng.next_below(8)];
    }
    for (const auto count : buckets) {
        EXPECT_NEAR(static_cast<double>(count), draws / 8.0, draws * 0.01);
    }
}

TEST(Rng, NextInBounds) {
    Rng rng(9);
    for (int i = 0; i < 500; ++i) {
        const auto x = rng.next_in(10, 20);
        EXPECT_GE(x, 10u);
        EXPECT_LE(x, 20u);
    }
    EXPECT_EQ(rng.next_in(7, 7), 7u);
    EXPECT_THROW(rng.next_in(8, 7), precondition_error);
}

TEST(Rng, NextDoubleInUnitInterval) {
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.next_double();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, BernoulliEdgeCases) {
    Rng rng(3);
    for (int i = 0; i < 20; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
    EXPECT_THROW(rng.bernoulli(-0.1), precondition_error);
    EXPECT_THROW(rng.bernoulli(1.1), precondition_error);
}

TEST(Rng, BernoulliRate) {
    Rng rng(13);
    std::size_t hits = 0;
    const std::size_t draws = 100000;
    for (std::size_t i = 0; i < draws; ++i) {
        hits += rng.bernoulli(0.2) ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(hits) / draws, 0.2, 0.01);
}

TEST(Rng, GeometricSkipMeanMatches) {
    // Mean of the number of failures before success is (1-p)/p.
    Rng rng(23);
    const double p = 0.1;
    double total = 0;
    const std::size_t draws = 50000;
    for (std::size_t i = 0; i < draws; ++i) {
        total += static_cast<double>(rng.geometric_skip(p));
    }
    EXPECT_NEAR(total / draws, (1.0 - p) / p, 0.25);
}

TEST(Rng, GeometricSkipOneIsZero) {
    Rng rng(23);
    EXPECT_EQ(rng.geometric_skip(1.0), 0u);
    EXPECT_THROW(rng.geometric_skip(0.0), precondition_error);
}

// Rates on both sides of GeometricSkip::kMaxTable: 1e-4 and 1e-3 take the
// formula for every draw, the rest are tabulated.
constexpr double kSkipRates[] = {1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.45};

TEST(GeometricSkip, TablesFollowTheCap) {
    for (const double p : kSkipRates) {
        const GeometricSkip skip(p);
        const auto bounds = skip.bounds();
        EXPECT_EQ(bounds.empty(), p < 0.002) << "p=" << p;
        EXPECT_LE(bounds.size(), GeometricSkip::kMaxTable);
        for (std::size_t k = 1; k < bounds.size(); ++k) {
            EXPECT_LE(bounds[k], bounds[k - 1]) << "p=" << p << " k=" << k;
        }
    }
    EXPECT_THROW(GeometricSkip(0.0), precondition_error);
    EXPECT_THROW(GeometricSkip(1.0), precondition_error);
}

TEST(GeometricSkip, MatchesFormulaAtBoundariesAndEdgeDraws) {
    constexpr std::uint64_t kTop = (std::uint64_t{1} << 53) - 1;
    constexpr std::uint64_t kBucket = std::uint64_t{1} << GeometricSkip::kBucketShift;
    for (const double p : kSkipRates) {
        const GeometricSkip skip(p);
        const double log1p_neg_p = std::log1p(-p);
        std::size_t mismatches = 0;
        const auto check = [&](std::uint64_t draw) {
            if (skip.skip_of(draw) != Rng::geometric_skip_of(draw, log1p_neg_p)) {
                ++mismatches;
            }
        };
        for (const std::uint64_t draw : {std::uint64_t{0}, std::uint64_t{1}, kBucket - 1,
                                         kBucket, kTop}) {
            check(draw);
        }
        // Every bound +-64 ...
        for (const std::uint64_t bound : skip.bounds()) {
            for (std::uint64_t draw = bound > 64 ? bound - 64 : 0;
                 draw <= std::min(bound + 64, kTop); ++draw) {
                check(draw);
            }
        }
        // ... and both ends of every guide bucket.
        for (std::uint64_t b = 1; b <= kTop / kBucket; ++b) {
            check(b * kBucket - 1);
            check(b * kBucket);
        }
        EXPECT_EQ(mismatches, 0u) << "p=" << p;
    }
}

TEST(GeometricSkip, MatchesGeometricSkipOnRandomDrawsOneDrawEach) {
    // 10^7 draws in all, against Rng::geometric_skip on the same stream;
    // the streams' next raw outputs agree afterwards, so sample() took
    // exactly one next_u64() per skip.
    const std::size_t per_rate = 10'000'000 / std::size(kSkipRates);
    for (const double p : kSkipRates) {
        const GeometricSkip skip(p);
        Rng formula(99);
        Rng table(99);
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < per_rate; ++i) {
            if (formula.geometric_skip(p) != skip.sample(table)) {
                ++mismatches;
            }
        }
        EXPECT_EQ(mismatches, 0u) << "p=" << p;
        EXPECT_EQ(formula.next_u64(), table.next_u64()) << "p=" << p;
    }
}

TEST(Rng, DistinctPositionsAreDistinctAndSorted) {
    Rng rng(31);
    const auto positions = rng.distinct_positions(1000, 200);
    ASSERT_EQ(positions.size(), 200u);
    EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
    const std::set<std::size_t> unique(positions.begin(), positions.end());
    EXPECT_EQ(unique.size(), 200u);
    for (const auto p : positions) {
        EXPECT_LT(p, 1000u);
    }
}

TEST(Rng, DistinctPositionsFullUniverse) {
    Rng rng(37);
    const auto positions = rng.distinct_positions(64, 64);
    ASSERT_EQ(positions.size(), 64u);
    for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_EQ(positions[i], i);
    }
}

TEST(Rng, DistinctPositionsLargeUniverse) {
    Rng rng(41);
    const auto positions = rng.distinct_positions(std::size_t{1} << 30, 64);
    const std::set<std::size_t> unique(positions.begin(), positions.end());
    EXPECT_EQ(unique.size(), 64u);
}

TEST(Rng, DistinctPositionsRejectsOversample) {
    Rng rng(3);
    EXPECT_THROW(rng.distinct_positions(5, 6), precondition_error);
}

TEST(Rng, DeriveIsIndependentOfDrawOrder) {
    Rng base(77);
    const Rng d1 = base.derive(1);
    base.next_u64();  // consuming from base must not change derivations
    // (derive is const and depends only on current state; verify the
    //  specific contract: deriving the same id twice without intervening
    //  draws gives identical streams)
    Rng base2(77);
    Rng d1_again = base2.derive(1);
    Rng d1_copy = d1;
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(d1_copy.next_u64(), d1_again.next_u64());
    }
}

TEST(Rng, DerivedStreamsDiffer) {
    Rng base(77);
    Rng a = base.derive(1);
    Rng b = base.derive(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i) {
        any_diff |= a.next_u64() != b.next_u64();
    }
    EXPECT_TRUE(any_diff);
}

TEST(Rng, TwoKeyDeriveDistinguishesKeys) {
    Rng base(77);
    Rng ab = base.derive(1, 2);
    Rng ba = base.derive(2, 1);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i) {
        any_diff |= ab.next_u64() != ba.next_u64();
    }
    EXPECT_TRUE(any_diff);
}

TEST(Rng, ShuffleIsPermutation) {
    Rng rng(99);
    std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
    auto shuffled = items;
    rng.shuffle(shuffled);
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, items);
}

TEST(Mix64, StatelessAndStable) {
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
}

}  // namespace
}  // namespace nb
