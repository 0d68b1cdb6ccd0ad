// Unit tests for Bitstring: the bit-algebra all codes and transcripts use.
#include <gtest/gtest.h>

#include "common/bitstring.h"
#include "common/error.h"
#include "common/rng.h"

namespace nb {
namespace {

TEST(Bitstring, DefaultIsEmpty) {
    Bitstring s;
    EXPECT_EQ(s.size(), 0u);
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0u);
}

TEST(Bitstring, ConstructedZeroed) {
    Bitstring s(130);
    EXPECT_EQ(s.size(), 130u);
    EXPECT_EQ(s.count(), 0u);
    for (std::size_t i = 0; i < 130; ++i) {
        EXPECT_FALSE(s.test(i));
    }
}

TEST(Bitstring, SetAndTest) {
    Bitstring s(70);
    s.set(0);
    s.set(63);
    s.set(64);
    s.set(69);
    EXPECT_TRUE(s.test(0));
    EXPECT_TRUE(s.test(63));
    EXPECT_TRUE(s.test(64));
    EXPECT_TRUE(s.test(69));
    EXPECT_FALSE(s.test(1));
    EXPECT_EQ(s.count(), 4u);
    s.set(63, false);
    EXPECT_FALSE(s.test(63));
    EXPECT_EQ(s.count(), 3u);
}

TEST(Bitstring, FlipTogglesBit) {
    Bitstring s(10);
    s.flip(3);
    EXPECT_TRUE(s.test(3));
    s.flip(3);
    EXPECT_FALSE(s.test(3));
}

TEST(Bitstring, OutOfRangeThrows) {
    Bitstring s(8);
    EXPECT_THROW(s.test(8), precondition_error);
    EXPECT_THROW(s.set(8), precondition_error);
    EXPECT_THROW(s.flip(100), precondition_error);
}

TEST(Bitstring, FromString) {
    const Bitstring s = Bitstring::from_string("10110");
    EXPECT_EQ(s.size(), 5u);
    EXPECT_TRUE(s.test(0));
    EXPECT_FALSE(s.test(1));
    EXPECT_TRUE(s.test(2));
    EXPECT_TRUE(s.test(3));
    EXPECT_FALSE(s.test(4));
    EXPECT_EQ(s.to_string(), "10110");
}

TEST(Bitstring, FromStringRejectsGarbage) {
    EXPECT_THROW(Bitstring::from_string("10x"), precondition_error);
}

TEST(Bitstring, OrSuperimposition) {
    const auto a = Bitstring::from_string("1100");
    const auto b = Bitstring::from_string("1010");
    EXPECT_EQ((a | b).to_string(), "1110");
}

TEST(Bitstring, AndIntersection) {
    const auto a = Bitstring::from_string("1100");
    const auto b = Bitstring::from_string("1010");
    EXPECT_EQ((a & b).to_string(), "1000");
}

TEST(Bitstring, XorDifference) {
    const auto a = Bitstring::from_string("1100");
    const auto b = Bitstring::from_string("1010");
    EXPECT_EQ((a ^ b).to_string(), "0110");
}

TEST(Bitstring, ComplementRespectsSize) {
    const auto a = Bitstring::from_string("101");
    const auto c = ~a;
    EXPECT_EQ(c.to_string(), "010");
    // Padding bits must stay zero so count() is exact.
    EXPECT_EQ(c.count(), 1u);
}

TEST(Bitstring, SizeMismatchThrows) {
    Bitstring a(4);
    Bitstring b(5);
    EXPECT_THROW(a |= b, precondition_error);
    EXPECT_THROW(a.intersect_count(b), precondition_error);
    EXPECT_THROW(a.hamming_distance(b), precondition_error);
}

TEST(Bitstring, IntersectCountMatchesDefinition2) {
    const auto a = Bitstring::from_string("110101");
    const auto b = Bitstring::from_string("011101");
    // a AND b = 010101 -> 3 ones.
    EXPECT_EQ(a.intersect_count(b), 3u);
    EXPECT_TRUE(a.intersects(b, 3));
    EXPECT_FALSE(a.intersects(b, 4));
}

TEST(Bitstring, AndNotCount) {
    const auto a = Bitstring::from_string("110101");
    const auto b = Bitstring::from_string("011101");
    // a AND NOT b = 100000 -> 1.
    EXPECT_EQ(a.and_not_count(b), 1u);
    EXPECT_EQ(b.and_not_count(a), 1u);
}

TEST(Bitstring, HammingDistance) {
    const auto a = Bitstring::from_string("110101");
    const auto b = Bitstring::from_string("011101");
    EXPECT_EQ(a.hamming_distance(b), 2u);
    EXPECT_EQ(a.hamming_distance(a), 0u);
}

TEST(Bitstring, HammingDistanceAcrossWords) {
    Bitstring a(200);
    Bitstring b(200);
    a.set(0);
    a.set(64);
    a.set(199);
    b.set(64);
    b.set(128);
    EXPECT_EQ(a.hamming_distance(b), 3u);
}

TEST(Bitstring, OnePositionsSorted) {
    Bitstring s(150);
    s.set(3);
    s.set(70);
    s.set(149);
    const auto positions = s.one_positions();
    ASSERT_EQ(positions.size(), 3u);
    EXPECT_EQ(positions[0], 3u);
    EXPECT_EQ(positions[1], 70u);
    EXPECT_EQ(positions[2], 149u);
}

TEST(Bitstring, ForEachOneVisitsAll) {
    Bitstring s(130);
    s.set(1);
    s.set(65);
    s.set(129);
    std::vector<std::size_t> seen;
    s.for_each_one([&seen](std::size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, (std::vector<std::size_t>{1, 65, 129}));
}

TEST(Bitstring, GatherExtractsSubsequence) {
    const auto s = Bitstring::from_string("10110");
    const Bitstring g = s.gather({0, 2, 4});
    EXPECT_EQ(g.to_string(), "110");
}

TEST(Bitstring, GatherOutOfRangeThrows) {
    const auto s = Bitstring::from_string("101");
    EXPECT_THROW(s.gather({0, 3}), precondition_error);
}

TEST(Bitstring, ScatterIsGatherInverse) {
    // CD construction (Notation 7): scatter values at positions, gather back.
    const auto values = Bitstring::from_string("1011");
    const std::vector<std::size_t> positions{2, 5, 9, 13};
    const Bitstring scattered = Bitstring::scatter(16, positions, values);
    EXPECT_EQ(scattered.count(), 3u);
    EXPECT_EQ(scattered.gather(positions), values);
}

TEST(Bitstring, ScatterSizeMismatchThrows) {
    const auto values = Bitstring::from_string("101");
    EXPECT_THROW(Bitstring::scatter(8, {1, 2}, values), precondition_error);
}

TEST(Bitstring, IntoFormsOverwriteStaleResults) {
    // The _into forms reuse the result's storage: stale contents of any
    // size (here longer, then shorter, than the result) must not leak.
    Rng rng(5);
    const Bitstring source = Bitstring::random(rng, 200);
    const std::vector<std::size_t> positions{3, 64, 65, 130, 199};
    const Bitstring values = Bitstring::from_string("11011");
    for (const std::size_t stale_bits : {400u, 7u}) {
        Bitstring stale = ~Bitstring(stale_bits);
        source.tail_into(67, stale);
        EXPECT_EQ(stale, source.tail(67));
        stale = ~Bitstring(stale_bits);
        Bitstring::scatter_into(200, positions, values, stale);
        EXPECT_EQ(stale, Bitstring::scatter(200, positions, values));
        stale = ~Bitstring(stale_bits);
        Rng a(9);
        Rng b(9);
        Bitstring::random_into(a, 130, stale);
        EXPECT_EQ(stale, Bitstring::random(b, 130));
        // The in-place weight sampler sets exactly the positions
        // distinct_positions draws from the same stream.
        stale = ~Bitstring(stale_bits);
        Bitstring::random_with_weight_into(a, 300, 40, stale);
        EXPECT_EQ(stale.one_positions(), b.distinct_positions(300, 40));
    }
    Bitstring out;
    EXPECT_THROW(Bitstring::scatter_into(100, positions, values, out), precondition_error);
}

TEST(Bitstring, RandomWithWeightExact) {
    Rng rng(7);
    for (const std::size_t weight : {0u, 1u, 17u, 100u}) {
        const Bitstring s = Bitstring::random_with_weight(rng, 100, weight);
        EXPECT_EQ(s.size(), 100u);
        EXPECT_EQ(s.count(), weight);
    }
}

TEST(Bitstring, RandomWithWeightRejectsOverweight) {
    Rng rng(7);
    EXPECT_THROW(Bitstring::random_with_weight(rng, 10, 11), precondition_error);
}

TEST(Bitstring, RandomIsDeterministicPerSeed) {
    Rng a(42);
    Rng b(42);
    EXPECT_EQ(Bitstring::random(a, 500), Bitstring::random(b, 500));
}

TEST(Bitstring, EqualityAndHash) {
    const auto a = Bitstring::from_string("1010101");
    const auto b = Bitstring::from_string("1010101");
    const auto c = Bitstring::from_string("1010100");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_NE(a.hash(), c.hash());
}

TEST(Bitstring, HashDependsOnLength) {
    Bitstring a(5);
    Bitstring b(6);
    EXPECT_NE(a.hash(), b.hash());
}

TEST(Bitstring, NoiseZeroEpsilonIsIdentity) {
    Rng rng(1);
    Bitstring s = Bitstring::random(rng, 300);
    const Bitstring before = s;
    s.apply_noise(rng, 0.0);
    EXPECT_EQ(s, before);
}

TEST(Bitstring, NoiseFlipRateMatchesEpsilon) {
    Rng rng(99);
    const std::size_t bits = 200000;
    const double epsilon = 0.1;
    Bitstring s(bits);
    const Bitstring before = s;
    s.apply_noise(rng, epsilon);
    const double rate = static_cast<double>(s.hamming_distance(before)) /
                        static_cast<double>(bits);
    EXPECT_NEAR(rate, epsilon, 0.01);
}

TEST(Bitstring, DenseNoiseFlipRateMatchesEpsilon) {
    // The per-bit reference (one Bernoulli draw per bit) and the table gap
    // sampler both flip at rate epsilon.
    const std::size_t bits = 100000;
    const double epsilon = 0.25;
    Rng dense_rng(100);
    Bitstring dense(bits);
    for (std::size_t i = 0; i < bits; ++i) {
        if (dense_rng.bernoulli(epsilon)) {
            dense.flip(i);
        }
    }
    Rng table_rng(101);
    Bitstring table(bits);
    table.apply_noise(table_rng, GeometricSkip(epsilon));
    const auto rate = [bits](const Bitstring& s) {
        return static_cast<double>(s.count()) / static_cast<double>(bits);
    };
    EXPECT_NEAR(rate(dense), epsilon, 0.01);
    EXPECT_NEAR(rate(table), epsilon, 0.01);
}

TEST(Bitstring, TableNoiseMatchesFormulaNoise) {
    // Same stream, same flips, and the same number of draws taken.
    for (const double epsilon : {0.01, 0.1, 0.45}) {
        for (const std::size_t bits : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                                       std::size_t{64}, std::size_t{5000}}) {
            Rng formula_rng(bits + 7);
            Rng table_rng(bits + 7);
            Bitstring formula(bits);
            Bitstring table(bits);
            formula.apply_noise(formula_rng, epsilon);
            table.apply_noise(table_rng, GeometricSkip(epsilon));
            EXPECT_EQ(formula, table) << "eps " << epsilon << " bits " << bits;
            EXPECT_EQ(formula_rng.next_u64(), table_rng.next_u64());
        }
    }
}

TEST(Bitstring, NoiseIsUnbiasedAcrossPositions) {
    // Each position must be flipped independently; check first and last
    // position flip frequencies over many trials.
    const double epsilon = 0.3;
    std::size_t first_flips = 0;
    std::size_t last_flips = 0;
    const std::size_t trials = 4000;
    Rng rng(5);
    for (std::size_t t = 0; t < trials; ++t) {
        Bitstring s(64);
        s.apply_noise(rng, epsilon);
        if (s.test(0)) {
            ++first_flips;
        }
        if (s.test(63)) {
            ++last_flips;
        }
    }
    EXPECT_NEAR(static_cast<double>(first_flips) / trials, epsilon, 0.03);
    EXPECT_NEAR(static_cast<double>(last_flips) / trials, epsilon, 0.03);
}

}  // namespace
}  // namespace nb
