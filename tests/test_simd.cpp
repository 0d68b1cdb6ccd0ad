// SIMD dispatch layer: every kernel table must compute bit-identical
// results (common/simd/simd.h's dispatch contract). The property tests
// force scalar vs AVX2 vs AVX-512 on randomized inputs — including the tail
// shapes a lane-width bug would miss (word counts off the vector width,
// candidate counts off the 64/256 lane boundaries, zero-weight columns,
// limit 0, limit above the weight) — and the transport goldens from
// test_transport_equivalence.cpp are re-pinned under every forced kernel.
// The batch ring (sim/transport_batch.h) is covered here too: reuse
// equivalence and the steady-state zero-allocation contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "alloc_hooks.h"
#include "common/aligned.h"
#include "common/bitslice.h"
#include "common/bitstring.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "common/word_soa.h"
#include "graph/generators.h"
#include "sim/params.h"
#include "sim/transport.h"

namespace nb {
namespace {

/// Kernels this build + CPU can actually run (scalar always; the forced
/// comparisons silently shrink to what the machine offers, and the CI
/// matrix covers the rest).
std::vector<simd::Kernel> supported_kernels() {
    std::vector<simd::Kernel> kernels;
    for (const auto k : {simd::Kernel::scalar, simd::Kernel::avx2, simd::Kernel::avx512}) {
        if (simd::kernel_supported(k)) {
            kernels.push_back(k);
        }
    }
    return kernels;
}

std::vector<std::uint64_t> random_words(Rng& rng, std::size_t words) {
    std::vector<std::uint64_t> out(words);
    for (auto& w : out) {
        w = rng.next_u64();
    }
    return out;
}

TEST(SimdKernels, ScalarTableIsAlwaysSupported) {
    EXPECT_TRUE(simd::kernel_supported(simd::Kernel::scalar));
    EXPECT_TRUE(simd::kernel_supported(simd::Kernel::auto_best));
    // resolve_kernel never returns auto_best: it names the table that runs.
    const simd::Kernel resolved = simd::resolve_kernel(simd::Kernel::auto_best);
    EXPECT_NE(resolved, simd::Kernel::auto_best);
    EXPECT_TRUE(simd::kernel_supported(resolved));
    // An explicit unsupported request falls back instead of crashing.
    EXPECT_TRUE(simd::kernel_supported(simd::resolve_kernel(simd::Kernel::avx512)));
}

TEST(SimdKernels, ParseKernelRoundTrips) {
    bool ok = false;
    EXPECT_EQ(simd::parse_kernel("scalar", &ok), simd::Kernel::scalar);
    EXPECT_TRUE(ok);
    EXPECT_EQ(simd::parse_kernel("avx2", &ok), simd::Kernel::avx2);
    EXPECT_TRUE(ok);
    EXPECT_EQ(simd::parse_kernel("avx512", &ok), simd::Kernel::avx512);
    EXPECT_TRUE(ok);
    EXPECT_EQ(simd::parse_kernel("auto", &ok), simd::Kernel::auto_best);
    EXPECT_TRUE(ok);
    EXPECT_EQ(simd::parse_kernel("neon", &ok), simd::Kernel::auto_best);
    EXPECT_FALSE(ok);
    for (const auto k : supported_kernels()) {
        EXPECT_EQ(simd::parse_kernel(simd::kernel_name(k), &ok), k);
        EXPECT_TRUE(ok);
    }
}

TEST(AlignedWords, BlocksAreCacheLineAlignedAndKeepTheirWords) {
    // Sizes from one word past the mmap threshold, each as a fresh buffer
    // and as one buffer grown in place, the way a record arena grows.
    const auto aligned = [](const AlignedWords& words) {
        return reinterpret_cast<std::uintptr_t>(words.data()) %
                   AlignedAllocator<std::uint64_t>::alignment ==
               0;
    };
    AlignedWords grown;
    for (std::size_t words = 1; words <= (std::size_t{1} << 16); words = words * 3 / 2 + 1) {
        AlignedWords fresh(words);
        std::iota(fresh.begin(), fresh.end(), std::uint64_t{0});
        ASSERT_TRUE(aligned(fresh)) << words;
        ASSERT_EQ(fresh.back(), words - 1);
        const std::size_t kept = grown.size();
        grown.resize(words);
        std::iota(grown.begin() + static_cast<std::ptrdiff_t>(kept), grown.end(), kept);
        ASSERT_TRUE(aligned(grown)) << words;
        for (std::size_t i = 0; i < words; ++i) {
            ASSERT_EQ(grown[i], i) << words;
        }
    }
}

TEST(SimdKernels, PopcountReductionsMatchScalar) {
    // Word counts chosen to straddle every vector width and block size the
    // kernels use: 4-word AVX2 strides, 8-word AVX-512 strides, and the
    // 16-word early-exit blocks — plus off-by-one tails around each.
    Rng rng(2024);
    const auto& scalar = simd::ops(simd::Kernel::scalar);
    for (const std::size_t words :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}, std::size_t{7},
          std::size_t{8}, std::size_t{9}, std::size_t{15}, std::size_t{16}, std::size_t{17},
          std::size_t{31}, std::size_t{33}, std::size_t{100}}) {
        for (int trial = 0; trial < 8; ++trial) {
            auto a = random_words(rng, words);
            auto b = random_words(rng, words);
            if (trial == 6) {
                std::fill(a.begin(), a.end(), 0);  // zero-weight candidate
            }
            if (trial == 7) {
                b = a;  // identical strings: distance 0, missing-ones 0
            }
            const std::size_t want_and_not = scalar.and_not_count(a.data(), b.data(), words);
            const std::size_t want_hamming = scalar.hamming(a.data(), b.data(), words);
            for (const auto kernel : supported_kernels()) {
                const auto& table = simd::ops(kernel);
                EXPECT_EQ(table.and_not_count(a.data(), b.data(), words), want_and_not)
                    << table.name << " words=" << words;
                EXPECT_EQ(table.hamming(a.data(), b.data(), words), want_hamming)
                    << table.name << " words=" << words;
                // Limits across the interesting boundary: 0 (never true),
                // the exact count (false: strict inequality), count +/- 1,
                // and far above.
                for (const std::size_t limit :
                     {std::size_t{0}, std::size_t{1}, want_and_not,
                      want_and_not + 1, want_and_not + 100}) {
                    EXPECT_EQ(table.and_not_count_below(a.data(), b.data(), words, limit),
                              want_and_not < limit)
                        << table.name << " words=" << words << " limit=" << limit;
                }
            }
        }
    }
}

TEST(SimdKernels, HammingAllMatchesPerColumnScalar) {
    // Candidate counts straddling the 64-per-lane-word and 256-per-AVX2-
    // block boundaries, with zero-weight columns mixed in; bit lengths
    // putting 1..3 words per column.
    Rng rng(77);
    for (const std::size_t count :
         {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{8}, std::size_t{63},
          std::size_t{64}, std::size_t{65}, std::size_t{255}, std::size_t{257}}) {
        for (const std::size_t bits : {std::size_t{5}, std::size_t{64}, std::size_t{130}}) {
            std::vector<Bitstring> columns;
            columns.reserve(count);
            for (std::size_t c = 0; c < count; ++c) {
                columns.push_back(c % 5 == 3 ? Bitstring(bits) : Bitstring::random(rng, bits));
            }
            WordSoa soa;
            soa.build(columns);
            ASSERT_EQ(soa.count(), count);
            ASSERT_EQ(soa.stride() % 8, 0u);
            const Bitstring received = Bitstring::random(rng, bits);
            const auto& received_words = received.words();

            std::vector<std::uint32_t> want(soa.stride());
            simd::ops(simd::Kernel::scalar)
                .hamming_all(received_words.data(), soa.words(), soa.data(), soa.stride(),
                             want.data());
            // The scalar sweep itself must agree with the per-column kernels
            // and the strided single-column read.
            for (std::size_t c = 0; c < count; ++c) {
                EXPECT_EQ(want[c], received.hamming_distance(columns[c]));
                EXPECT_EQ(soa.column_distance(received_words.data(), c), want[c]);
            }
            for (const auto kernel : supported_kernels()) {
                std::vector<std::uint32_t> got(soa.stride(), 0xdeadbeef);
                simd::ops(kernel).hamming_all(received_words.data(), soa.words(), soa.data(),
                                              soa.stride(), got.data());
                EXPECT_EQ(got, want)
                    << simd::ops(kernel).name << " count=" << count << " bits=" << bits;
            }
        }
    }
}

TEST(SimdKernels, BitslicePassMatchesScalarAndPackedKernel) {
    // The full bitslice acceptance mask, per kernel, against the packed
    // per-candidate kernel it must mirror bit for bit. Column counts off
    // the 64-candidate lane boundary; transcripts include all-zeros and
    // all-ones; limits include 0 (nothing accepted) and above-the-weight
    // (everything accepted, zero-weight columns included).
    Rng rng(4242);
    for (const std::size_t columns :
         {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{130}}) {
        const std::size_t bits = 192;
        std::vector<Bitstring> candidates;
        candidates.reserve(columns);
        for (std::size_t c = 0; c < columns; ++c) {
            candidates.push_back(c % 7 == 5 ? Bitstring(bits) : Bitstring::random(rng, bits));
        }
        const BitsliceMatrix matrix(candidates);
        for (int trial = 0; trial < 4; ++trial) {
            Bitstring transcript = Bitstring::random(rng, bits);
            if (trial == 2) {
                transcript = Bitstring(bits);  // all zeros
            } else if (trial == 3) {
                transcript = ~Bitstring(bits);  // all ones
            }
            for (const std::size_t limit :
                 {std::size_t{0}, std::size_t{1}, std::size_t{20}, bits + 1}) {
                BitsliceScratch scratch;
                std::vector<std::uint64_t> scalar_accept;
                matrix.and_not_below(transcript, limit, scratch, scalar_accept,
                                     simd::ops(simd::Kernel::scalar));
                for (std::size_t c = 0; c < columns; ++c) {
                    const bool bit = (scalar_accept[c / 64] >> (c % 64)) & 1;
                    EXPECT_EQ(bit, candidates[c].and_not_count_below(transcript, limit))
                        << "column " << c << " limit " << limit;
                }
                for (const auto kernel : supported_kernels()) {
                    BitsliceScratch fresh;
                    std::vector<std::uint64_t> accept;
                    matrix.and_not_below(transcript, limit, fresh, accept, simd::ops(kernel));
                    EXPECT_EQ(accept, scalar_accept)
                        << simd::ops(kernel).name << " columns=" << columns
                        << " limit=" << limit;
                }
            }
        }
    }
}

/// The position gather written out bit by bit: out bit i = src bit
/// positions[i], padding bits zero.
std::vector<std::uint64_t> reference_gather(const std::vector<std::uint64_t>& src,
                                            const std::vector<std::size_t>& positions) {
    std::vector<std::uint64_t> out((positions.size() + 63) / 64, 0);
    for (std::size_t i = 0; i < positions.size(); ++i) {
        const std::uint64_t bit = (src[positions[i] / 64] >> (positions[i] % 64)) & 1u;
        out[i / 64] |= bit << (i % 64);
    }
    return out;
}

TEST(SimdKernels, GatherPositionsMatchesReferenceOnEveryKernel) {
    // Every table against the plain loop, at counts around each kernel's
    // lane (4, 8) and output-word (64) boundaries and at the regular-2k
    // codeword weight (192), over five position shapes: ascending sparse
    // (a codeword's 1-positions), word-boundary bits (0, 63, 64, ... and
    // the last bit), unsorted, repeated, and every position the same bit.
    Rng rng(7177);
    const std::size_t bits = 13056;  // a regular-2k phase-2 transcript
    const auto src = random_words(rng, bits / 64);
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9},
          std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{191},
          std::size_t{192}, std::size_t{193}}) {
        for (int shape = 0; shape < 5; ++shape) {
            std::vector<std::size_t> positions(count);
            for (std::size_t i = 0; i < count; ++i) {
                switch (shape) {
                    case 0:  // ascending, ~one per word
                        positions[i] = i * (bits / 200) + rng.next_below(bits / 200);
                        break;
                    case 1:  // word boundaries, ending on the last bit
                        positions[i] = i + 1 == count ? bits - 1 : (i / 2) * 64 + (i % 2) * 63;
                        break;
                    case 2:  // unsorted
                        positions[i] = rng.next_below(bits);
                        break;
                    case 3:  // repeated runs
                        positions[i] = (i / 3) * 97 % bits;
                        break;
                    case 4:  // one bit, every time
                        positions[i] = bits - 1;
                        break;
                }
            }
            const auto want = reference_gather(src, positions);
            for (const auto kernel : supported_kernels()) {
                // Poisoned output words: every word must be written, the
                // padding bits above the last position must be zero, and
                // the word past the output must be left alone.
                std::vector<std::uint64_t> got(want.size() + 1, ~std::uint64_t{0});
                EXPECT_TRUE(simd::ops(kernel).gather_positions(
                    src.data(), bits, positions.data(), count, got.data()));
                EXPECT_EQ(got.back(), ~std::uint64_t{0}) << simd::ops(kernel).name;
                got.pop_back();
                EXPECT_EQ(got, want) << simd::ops(kernel).name << " count=" << count
                                     << " shape=" << shape;
            }
        }
    }
}

TEST(SimdKernels, GatherPositionsRejectsOutOfRangeOnEveryKernel) {
    // A position at or past src_bits fails the call wherever it sits in
    // the list (vector body, lane tail, past the first output word), and
    // Bitstring::gather_into turns that into a precondition_error.
    Rng rng(7178);
    const Bitstring src = Bitstring::random(rng, 1000);
    for (const std::size_t count : {std::size_t{1}, std::size_t{9}, std::size_t{70}}) {
        for (std::size_t bad = 0; bad < count; bad += count / 3 + 1) {
            for (const std::size_t value : {std::size_t{1000}, std::size_t{1} << 62,
                                            ~std::size_t{0}}) {
                std::vector<std::size_t> positions(count, 999);
                positions[bad] = value;
                for (const auto kernel : supported_kernels()) {
                    std::vector<std::uint64_t> out((count + 63) / 64);
                    EXPECT_FALSE(simd::ops(kernel).gather_positions(
                        src.words().data(), src.size(), positions.data(), count, out.data()))
                        << simd::ops(kernel).name << " count=" << count << " bad=" << bad;
                    Bitstring gathered;
                    EXPECT_THROW(src.gather_into(positions, gathered, simd::ops(kernel)),
                                 precondition_error)
                        << simd::ops(kernel).name;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end: forced dispatch must reproduce the seed-pinned transport
// goldens (same values as test_transport_equivalence.cpp), and the batch
// ring must match the compatibility path while allocating nothing once warm.

std::vector<std::optional<Bitstring>> make_messages(const Graph& graph, std::size_t bits,
                                                    std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::optional<Bitstring>> messages(graph.node_count());
    for (NodeId v = 0; v < graph.node_count(); ++v) {
        if (!rng.bernoulli(0.25)) {
            messages[v] = Bitstring::random(rng, bits);
        }
    }
    return messages;
}

std::uint64_t fingerprint(const TransportRound& round) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    auto mix = [&h](std::uint64_t value) { h = mix64(h ^ value); };
    for (const auto& messages : round.delivered) {
        mix(messages.size());
        for (const auto& message : messages) {
            mix(message.hash());
        }
    }
    mix(round.beep_rounds);
    mix(round.total_beeps);
    mix(round.phase1_false_negatives);
    mix(round.phase1_false_positives);
    mix(round.phase2_errors);
    mix(round.delivery_mismatches);
    return h;
}

std::uint64_t run_fingerprint(const BeepTransport& transport,
                              const std::vector<std::optional<Bitstring>>& messages,
                              const FaultModel& faults) {
    std::uint64_t h = 0;
    for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
        const RoundSpec spec{&messages, nonce, &faults};
        h = mix64(h ^ fingerprint(transport.simulate_rounds({&spec, 1}).front()));
    }
    return h;
}

// The seed goldens of test_transport_equivalence.cpp — re-pinned here under
// forced dispatch so a kernel divergence shows up as a golden failure, not
// just a cross-kernel mismatch.
constexpr std::uint64_t kGoldenTwoHopPlain = 0x82c6aaa1661aa3eaULL;
constexpr std::uint64_t kGoldenAllNodesPlain = 0x82c6aaa1661aa3eaULL;
constexpr std::uint64_t kGoldenAllNodesFaults = 0xcf836c6fc717b592ULL;

SimulationParams forced_params(DictionaryPolicy policy, simd::Kernel kernel) {
    SimulationParams params;
    params.epsilon = 0.1;
    params.message_bits = 10;
    params.c_eps = 4;
    params.dictionary = policy;
    params.threads = 1;
    params.simd_kernel = kernel;
    return params;
}

TEST(SimdTransport, ForcedKernelsReproduceGoldenFingerprints) {
    Rng rng(42);
    const Graph graph = make_erdos_renyi(32, 0.18, rng);
    const auto messages = make_messages(graph, 10, 1234);
    FaultModel faults;
    faults.jammers = {3};
    faults.crashed = {7, 11};
    for (const auto kernel : supported_kernels()) {
        SimulationParams two_hop = forced_params(DictionaryPolicy::two_hop, kernel);
        const BeepTransport sparse(graph, two_hop);
        EXPECT_EQ(run_fingerprint(sparse, messages, FaultModel{}), kGoldenTwoHopPlain)
            << simd::ops(kernel).name;

        // all_nodes below the bitslice crossover: the bitsliced phase-1 and
        // the SoA phase-2 sweep both run under the forced kernel.
        SimulationParams dense = forced_params(DictionaryPolicy::all_nodes, kernel);
        dense.bitslice_min_candidates = 0;
        const BeepTransport full(graph, dense);
        EXPECT_EQ(run_fingerprint(full, messages, FaultModel{}), kGoldenAllNodesPlain)
            << simd::ops(kernel).name;
        EXPECT_EQ(run_fingerprint(full, messages, faults), kGoldenAllNodesFaults)
            << simd::ops(kernel).name;
    }
}

TEST(TransportBatchRing, ReusedBatchMatchesSimulateRounds) {
    Rng rng(42);
    const Graph graph = make_erdos_renyi(32, 0.18, rng);
    const auto messages = make_messages(graph, 10, 1234);
    FaultModel faults;
    faults.jammers = {3};
    SimulationParams params = forced_params(DictionaryPolicy::all_nodes, simd::Kernel::auto_best);
    params.bitslice_min_candidates = 0;
    const BeepTransport transport(graph, params);

    std::vector<RoundSpec> specs;
    for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
        specs.push_back(RoundSpec{&messages, nonce, nonce == 1 ? &faults : nullptr});
    }
    TransportBatch batch;
    // Two passes through the same reused batch: results must be identical
    // both times (slot/arena reuse cannot leak state between batches).
    for (int pass = 0; pass < 2; ++pass) {
        transport.simulate_rounds_into(specs, batch);
        ASSERT_EQ(batch.rounds(), specs.size());
        ASSERT_EQ(batch.nodes(), graph.node_count());
        EXPECT_EQ(batch.message_bits(), params.message_bits);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const TransportRound expect =
                std::move(transport.simulate_rounds({&specs[i], 1}).front());
            const TransportRound got = batch.to_round(i);
            EXPECT_EQ(got.delivered, expect.delivered);
            EXPECT_EQ(got.total_beeps, expect.total_beeps);
            EXPECT_EQ(got.phase1_false_negatives, expect.phase1_false_negatives);
            EXPECT_EQ(got.phase1_false_positives, expect.phase1_false_positives);
            EXPECT_EQ(got.phase2_errors, expect.phase2_errors);
            EXPECT_EQ(got.delivery_mismatches, expect.delivery_mismatches);
            // The zero-copy accessors agree with the owning conversion.
            for (NodeId v = 0; v < graph.node_count(); ++v) {
                ASSERT_EQ(batch.delivered_count(i, v), expect.delivered[v].size());
                for (std::size_t m = 0; m < expect.delivered[v].size(); ++m) {
                    EXPECT_EQ(batch.delivered_message(i, v, m), expect.delivered[v][m]);
                    EXPECT_EQ(batch.delivered_words(i, v, m).size(), batch.message_words());
                }
            }
        }
    }
}

TEST(TransportBatchRing, SteadyStateDecodeAllocatesNothing) {
    // The zero-allocation contract of transport_batch.h at every worker
    // count: with the codebook round cached (same messages + nonce), a
    // reused batch decodes without touching the allocator, whichever nodes
    // the pool's chunk claiming hands each worker. all_nodes below the
    // crossover puts the measurement on the bitslice + SoA + arena path,
    // two_hop on the scalar candidate scan.
    Rng rng(9);
    const Graph graph = make_erdos_renyi(48, 0.15, rng);
    const auto messages = make_messages(graph, 10, 77);
    for (const auto policy : {DictionaryPolicy::all_nodes, DictionaryPolicy::two_hop}) {
        for (const std::size_t threads : {1, 4}) {
            SimulationParams params = forced_params(policy, simd::Kernel::auto_best);
            params.bitslice_min_candidates = 0;
            params.threads = threads;
            const BeepTransport transport(graph, params);

            std::vector<RoundSpec> specs(4, RoundSpec{&messages, 5, nullptr});
            TransportBatch batch;
            transport.simulate_rounds_into(specs, batch);  // builds the round, grows arenas
            transport.simulate_rounds_into(specs, batch);  // levels every worker's scratch

            for (int warm = 0; warm < 60; ++warm) {
                const std::uint64_t before = alloc_hooks::count();
                transport.simulate_rounds_into(specs, batch);
                const std::uint64_t after = alloc_hooks::count();
                ASSERT_EQ(after - before, 0u)
                    << "steady-state batched decode allocated: policy "
                    << static_cast<int>(policy) << ", threads " << threads << ", warm batch "
                    << warm;
            }
            EXPECT_GT(batch.arena_words(), 0u);
        }
    }
}

}  // namespace
}  // namespace nb
