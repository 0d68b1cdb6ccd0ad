// The parallel round build: Codebook::round fans its per-node loops out over
// node blocks on the caller's ThreadPool, and the result must be the inline
// build's Round bit for bit — every per-node vector, the bitslice and SoA
// dictionaries, the decode radii, the energy totals — with every Stats
// counter equal, for any pool size. Covered shapes: the two_hop dictionary,
// all_nodes above the bitslice crossover, and a same-nonce donor rebuild
// (DESIGN.md section 5).
//
// The recycled build: a rebuild under a new nonce writes into the
// superseded round when the cache is its only owner. A recycled round must
// equal a new codebook's round field by field, a held round must never be
// touched, a throwing build must leave no half-written round reachable, and
// a warm rebuild must allocate a small constant independent of n.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_hooks.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "sim/codebook.h"
#include "sim/params.h"
#include "sim/transport.h"
#include "sim/transport_batch.h"

namespace nb {
namespace {

constexpr std::size_t kPoolSizes[] = {1, 2, 3, 4, 7};

std::vector<std::optional<Bitstring>> make_messages(const Graph& graph, std::size_t bits,
                                                    std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::optional<Bitstring>> messages(graph.node_count());
    for (NodeId v = 0; v < graph.node_count(); ++v) {
        if (!rng.bernoulli(0.2)) {
            messages[v] = Bitstring::random(rng, bits);
        }
    }
    return messages;
}

SimulationParams build_params(DictionaryPolicy policy) {
    SimulationParams params;
    params.message_bits = 6;
    params.c_eps = 4;
    params.decoy_count = 5;
    params.dictionary = policy;
    return params;
}

void expect_same_slices(const BitsliceMatrix& a, const BitsliceMatrix& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.columns(), b.columns());
    ASSERT_EQ(a.lane_words(), b.lane_words());
    for (std::size_t p = 0; p < a.rows(); ++p) {
        const auto ra = a.row(p);
        const auto rb = b.row(p);
        ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin())) << "slice row " << p;
    }
    for (std::size_t c = 0; c < a.columns(); ++c) {
        EXPECT_EQ(a.column_weight(c), b.column_weight(c)) << "slice column " << c;
    }
}

void expect_same_soa(const WordSoa& a, const WordSoa& b) {
    ASSERT_EQ(a.count(), b.count());
    ASSERT_EQ(a.stride(), b.stride());
    ASSERT_EQ(a.words(), b.words());
    ASSERT_EQ(a.bits(), b.bits());
    const std::size_t total = a.words() * a.stride();
    EXPECT_TRUE(total == 0 || std::equal(a.data(), a.data() + total, b.data()));
}

/// Field by field over the whole Round.
void expect_same_round(const Codebook::Round& a, const Codebook::Round& b) {
    EXPECT_EQ(a.nonce, b.nonce);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.inputs, b.inputs);
    EXPECT_EQ(a.payloads, b.payloads);
    EXPECT_EQ(a.codewords, b.codewords);
    EXPECT_EQ(a.one_positions, b.one_positions);
    EXPECT_EQ(a.decoy_inputs, b.decoy_inputs);
    EXPECT_EQ(a.decoy_codewords, b.decoy_codewords);
    EXPECT_EQ(a.decoy_one_positions, b.decoy_one_positions);
    EXPECT_EQ(a.candidate_messages, b.candidate_messages);
    EXPECT_EQ(a.candidate_encoded, b.candidate_encoded);
    EXPECT_EQ(a.candidate_tails, b.candidate_tails);
    EXPECT_EQ(a.combined_schedules, b.combined_schedules);
    EXPECT_EQ(a.phase1_beeps, b.phase1_beeps);
    EXPECT_EQ(a.phase2_beeps, b.phase2_beeps);
    EXPECT_EQ(a.decode_gaps, b.decode_gaps);
    EXPECT_EQ(a.payload_key, b.payload_key);
    expect_same_slices(a.codeword_slices, b.codeword_slices);
    expect_same_soa(a.candidate_encoded_soa, b.candidate_encoded_soa);
    EXPECT_EQ(a.rng.derive(1).next_u64(), b.rng.derive(1).next_u64());
}

/// Every counter but round_recycles, which depends on whether the caller
/// held its previous round rather than on what was built.
void expect_same_build_stats(const Codebook::Stats& a, const Codebook::Stats& b) {
    EXPECT_EQ(a.code_builds, b.code_builds);
    EXPECT_EQ(a.round_builds, b.round_builds);
    EXPECT_EQ(a.codeword_builds, b.codeword_builds);
    EXPECT_EQ(a.payload_encodes, b.payload_encodes);
    EXPECT_EQ(a.codeword_reuses, b.codeword_reuses);
    EXPECT_EQ(a.payload_encode_reuses, b.payload_encode_reuses);
    EXPECT_EQ(a.gap_builds, b.gap_builds);
}

/// Build rounds for `keys` in order on a fresh codebook per pool size and on
/// an inline reference; every round and the final stats must agree.
template <typename MakeCodebook>
void expect_pool_invariant(
    const MakeCodebook& make_codebook,
    const std::vector<std::pair<const std::vector<std::optional<Bitstring>>*, std::uint64_t>>&
        keys) {
    const auto inline_book = make_codebook();
    std::vector<std::shared_ptr<const Codebook::Round>> reference;
    for (const auto& [messages, nonce] : keys) {
        reference.push_back(inline_book->round(*messages, nonce));
    }
    for (const std::size_t workers : kPoolSizes) {
        SCOPED_TRACE("pool workers " + std::to_string(workers));
        ThreadPool pool(workers);
        const auto pooled_book = make_codebook();
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const auto round = pooled_book->round(*keys[i].first, keys[i].second, &pool);
            expect_same_round(*round, *reference[i]);
        }
        // The reference holds its rounds, so only the pooled book recycles.
        expect_same_build_stats(pooled_book->stats(), inline_book->stats());
    }
}

TEST(CodebookParallelBuild, TwoHopRoundIsPoolSizeInvariant) {
    Rng rng(0x51);
    const Graph graph = make_random_regular(700, 6, rng);  // several node blocks
    const SimulationParams params = build_params(DictionaryPolicy::two_hop);
    const auto messages = make_messages(graph, params.message_bits, 3);
    expect_pool_invariant(
        [&] { return std::make_unique<Codebook>(graph, params); },
        {{&messages, 11}, {&messages, 12}});
}

TEST(CodebookParallelBuild, AllNodesAboveBitsliceCrossoverIsPoolSizeInvariant) {
    Rng rng(0x52);
    const Graph graph = make_random_regular(600, 6, rng);
    const SimulationParams params = build_params(DictionaryPolicy::all_nodes);
    ASSERT_GE(graph.node_count() + params.decoy_count, params.bitslice_min_candidates);
    const auto messages = make_messages(graph, params.message_bits, 4);
    expect_pool_invariant(
        [&] { return std::make_unique<Codebook>(graph, params); },
        {{&messages, 21}, {&messages, 22}});
}

TEST(CodebookParallelBuild, SameNonceDonorRebuildIsPoolSizeInvariant) {
    Rng rng(0x53);
    for (const auto policy : {DictionaryPolicy::two_hop, DictionaryPolicy::all_nodes}) {
        SCOPED_TRACE(policy == DictionaryPolicy::two_hop ? "two_hop" : "all_nodes");
        const Graph graph = make_random_regular(600, 6, rng);
        const SimulationParams params = build_params(policy);
        const auto messages_a = make_messages(graph, params.message_bits, 5);
        auto messages_b = messages_a;
        for (NodeId v = 0; v < graph.node_count(); v += 37) {
            messages_b[v] = Bitstring::random(rng, params.message_bits);  // changed
        }
        messages_b[1].reset();  // went silent
        // The second build reuses the first as a same-nonce donor; the third
        // (fresh nonce) has none.
        expect_pool_invariant(
            [&] { return std::make_unique<Codebook>(graph, params); },
            {{&messages_a, 31}, {&messages_b, 31}, {&messages_b, 32}});
    }
}

// ------------------------------------------------------------ recycling --

/// Build `keys` in order on one codebook, releasing each round before the
/// next build so every rebuild after the first recycles its predecessor.
/// Each round must equal a new codebook's build of that key alone, and the
/// final stats must equal those of a reference that holds every round (and
/// so never recycles) in everything but round_recycles.
template <typename MakeCodebook>
void expect_recycled_equals_fresh(
    const MakeCodebook& make_codebook,
    const std::vector<std::pair<const std::vector<std::optional<Bitstring>>*, std::uint64_t>>&
        keys,
    ThreadPool* pool) {
    const auto recycling = make_codebook();
    const auto holding = make_codebook();
    std::vector<std::shared_ptr<const Codebook::Round>> held;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        SCOPED_TRACE("key " + std::to_string(i));
        const auto& [messages, nonce] = keys[i];
        const std::size_t recycles_before = recycling->stats().round_recycles;
        {
            const auto round = recycling->round(*messages, nonce, pool);
            const auto fresh = make_codebook()->round(*messages, nonce);
            expect_same_round(*round, *fresh);
        }
        EXPECT_EQ(recycling->stats().round_recycles, recycles_before + (i == 0 ? 0 : 1));
        held.push_back(holding->round(*messages, nonce, pool));
    }
    EXPECT_EQ(holding->stats().round_recycles, 0u);
    expect_same_build_stats(recycling->stats(), holding->stats());
}

TEST(CodebookRecycle, TwoHopRecycledRoundEqualsFreshBuild) {
    Rng rng(0x61);
    const Graph graph = make_random_regular(700, 6, rng);
    const SimulationParams params = build_params(DictionaryPolicy::two_hop);
    const auto messages_a = make_messages(graph, params.message_bits, 7);
    const auto messages_b = make_messages(graph, params.message_bits, 8);
    ThreadPool pool(4);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        expect_recycled_equals_fresh(
            [&] { return std::make_unique<Codebook>(graph, params); },
            {{&messages_a, 51}, {&messages_b, 52}, {&messages_b, 53}}, p);
    }
}

TEST(CodebookRecycle, AllNodesAboveBitsliceCrossoverRecycledRoundEqualsFreshBuild) {
    // Stale bitslice planes, SoA columns or decode radii would show here:
    // each key's messages differ, so every one of them changes.
    Rng rng(0x62);
    const Graph graph = make_random_regular(600, 6, rng);
    const SimulationParams params = build_params(DictionaryPolicy::all_nodes);
    ASSERT_GE(graph.node_count() + params.decoy_count, params.bitslice_min_candidates);
    const auto messages_a = make_messages(graph, params.message_bits, 9);
    const auto messages_b = make_messages(graph, params.message_bits, 10);
    ThreadPool pool(3);
    expect_recycled_equals_fresh(
        [&] { return std::make_unique<Codebook>(graph, params); },
        {{&messages_a, 61}, {&messages_b, 62}, {&messages_a, 63}}, &pool);
}

TEST(CodebookRecycle, PresenceFlipsRecycleToFreshBuild) {
    // Nodes whose optional message goes engaged -> empty and back (and the
    // reverse) across recycled builds: the stale message key, payload,
    // dictionary entry and schedule must all be overwritten.
    Rng rng(0x64);
    for (const auto policy : {DictionaryPolicy::two_hop, DictionaryPolicy::all_nodes}) {
        SCOPED_TRACE(policy == DictionaryPolicy::two_hop ? "two_hop" : "all_nodes");
        const Graph graph = make_random_regular(600, 6, rng);
        const SimulationParams params = build_params(policy);
        const auto messages_a = make_messages(graph, params.message_bits, 13);
        auto messages_b = messages_a;
        for (NodeId v = 0; v < graph.node_count(); v += 3) {
            if (messages_b[v].has_value()) {
                messages_b[v].reset();
            } else {
                messages_b[v] = Bitstring::random(rng, params.message_bits);
            }
        }
        ThreadPool pool(4);
        expect_recycled_equals_fresh(
            [&] { return std::make_unique<Codebook>(graph, params); },
            {{&messages_a, 81}, {&messages_b, 82}, {&messages_a, 83}}, &pool);
    }
}

TEST(CodebookRecycle, OnlyReleasedRoundsAreRecycled) {
    Rng rng(0x65);
    const Graph graph = make_random_regular(500, 6, rng);
    const SimulationParams params = build_params(DictionaryPolicy::two_hop);
    const auto messages_a = make_messages(graph, params.message_bits, 14);
    const auto messages_b = make_messages(graph, params.message_bits, 15);
    Codebook book(graph, params);

    // A caller still holds the round: the next nonce builds a new one, and
    // the held round keeps its contents.
    const auto held = book.round(messages_a, 1);
    const Codebook::Round snapshot = *held;
    (void)book.round(messages_b, 2);
    EXPECT_EQ(book.stats().round_recycles, 0u);
    expect_same_round(*held, snapshot);

    // A same-nonce rebuild keeps the previous round as its donor instead.
    (void)book.round(messages_a, 2);
    EXPECT_EQ(book.stats().round_recycles, 0u);

    // Released: the next nonce rebuilds it in place.
    const auto next = book.round(messages_b, 3);
    EXPECT_EQ(book.stats().round_recycles, 1u);
    expect_same_round(*next, *Codebook(graph, params).round(messages_b, 3));
    expect_same_round(*held, snapshot);
    EXPECT_EQ(book.stats().round_builds, 4u);
}

TEST(CodebookRecycle, ThrowingRecycledBuildLeavesNoHalfWrittenRound) {
    Rng rng(0x66);
    const Graph graph = make_random_regular(700, 6, rng);
    const SimulationParams params = build_params(DictionaryPolicy::two_hop);
    const auto messages = make_messages(graph, params.message_bits, 16);
    auto oversized = messages;
    // Last node block: the other blocks have already written their slots
    // into the recycled round when this one throws.
    oversized[graph.node_count() - 1] = Bitstring(params.message_bits + 1);
    ThreadPool pool(4);
    Codebook book(graph, params);
    (void)book.round(messages, 1, &pool);

    EXPECT_THROW((void)book.round(oversized, 2, &pool), precondition_error);
    // The half-written round carries the failed key: a retry must fail the
    // same way rather than hit it.
    EXPECT_THROW((void)book.round(oversized, 2, &pool), precondition_error);
    EXPECT_EQ(book.stats().round_builds, 1u);

    // Neither key may be served from the half-written round: both rebuild,
    // and equal a new codebook's build.
    const Codebook reference(graph, params);
    expect_same_round(*book.round(messages, 1, &pool), *reference.round(messages, 1));
    expect_same_round(*book.round(messages, 2, &pool), *reference.round(messages, 2));
    EXPECT_EQ(book.stats().round_builds, 3u);
    EXPECT_EQ(book.stats().round_recycles, 1u);  // the 2nd valid build recycles the 1st
}

/// Order-sensitive digest of a round's content.
std::uint64_t round_digest(const Codebook::Round& round) {
    std::uint64_t h = round.nonce;
    const auto mix = [&h](std::uint64_t value) { h = mix64(h ^ value); };
    for (std::size_t v = 0; v < round.codewords.size(); ++v) {
        mix(round.inputs[v]);
        mix(round.payloads[v].hash());
        mix(round.codewords[v].hash());
        mix(round.one_positions[v].size());
        mix(round.combined_schedules[v].hash());
        mix(round.messages[v].has_value() ? round.messages[v]->hash() : 0);
    }
    for (std::size_t e = 0; e < round.candidate_messages.size(); ++e) {
        mix(round.candidate_messages[e].hash());
        mix(round.candidate_encoded[e].hash());
        mix(round.candidate_tails[e].hash());
    }
    for (const auto& codeword : round.decoy_codewords) {
        mix(codeword.hash());
    }
    mix(round.phase1_beeps);
    mix(round.phase2_beeps);
    return h;
}

TEST(CodebookRecycleStress, ConcurrentHoldersSeeIntactRounds) {
    // Four threads share one codebook and cycle through three nonces,
    // checking every round they get against digests of a new codebook's
    // builds. Phase 1 is deterministic: the threads take turns, each one
    // fetching the next nonce, checking it and dropping it before passing
    // the turn on, so every turn after the first recycles the round the
    // previous thread has just read. The turn counter is relaxed on
    // purpose: the only happens-before edge from those reads to the
    // recycling writes is the round's reference count. In phase 2 each
    // thread holds its previous round while it fetches (and so possibly
    // triggers a recycling rebuild of) the next, and re-checks both. A
    // recycle of a round some thread still holds would change that round
    // under the thread.
    Rng rng(0x67);
    const Graph graph = make_random_regular(400, 6, rng);
    const SimulationParams params = build_params(DictionaryPolicy::two_hop);
    const auto messages = make_messages(graph, params.message_bits, 17);
    constexpr std::uint64_t kNonces = 3;
    constexpr std::size_t kThreads = 4;
    constexpr std::uint64_t kTurns = 6 * kThreads;
    std::vector<std::uint64_t> digests;
    {
        const Codebook reference(graph, params);
        for (std::uint64_t nonce = 0; nonce < kNonces; ++nonce) {
            digests.push_back(round_digest(*reference.round(messages, nonce)));
        }
    }
    const Codebook book(graph, params);
    ThreadPool pool(2);
    std::atomic<std::size_t> mismatches{0};
    std::atomic<std::uint64_t> turn{0};
    std::uint64_t turn_recycles = 0;  // written by the last turn, read after join
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ThreadPool* p = t % 2 == 0 ? &pool : nullptr;
            for (std::uint64_t k = t; k < kTurns; k += kThreads) {
                while (turn.load(std::memory_order_relaxed) != k) {
                    std::this_thread::yield();
                }
                auto round = book.round(messages, k % kNonces, p);
                if (round_digest(*round) != digests[k % kNonces]) {
                    ++mismatches;
                }
                round.reset();
                if (k + 1 == kTurns) {
                    turn_recycles = book.stats().round_recycles;
                }
                turn.store(k + 1, std::memory_order_relaxed);
            }
            while (turn.load(std::memory_order_relaxed) != kTurns) {
                std::this_thread::yield();
            }
            std::shared_ptr<const Codebook::Round> previous;
            for (std::uint64_t i = 0; i < 60; ++i) {
                const std::uint64_t nonce = (i + t) % kNonces;
                if (i % 2 == 1) {
                    // Released before the next fetch: whichever thread
                    // rebuilds next may recycle it.
                    previous.reset();
                    std::this_thread::yield();
                }
                auto round = book.round(messages, nonce, p);
                if (previous != nullptr &&
                    round_digest(*previous) != digests[previous->nonce % kNonces]) {
                    ++mismatches;
                }
                previous.reset();
                if (round_digest(*round) != digests[nonce]) {
                    ++mismatches;
                }
                previous = std::move(round);
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(turn_recycles, kTurns - 1);  // every turn but the first recycled
    EXPECT_GT(book.stats().round_builds, kTurns);
}

/// Allocations of one call to `fn`.
template <typename Fn>
std::uint64_t allocations_of(const Fn& fn) {
    const std::uint64_t before = alloc_hooks::count();
    fn();
    return alloc_hooks::count() - before;
}

TEST(CodebookRecycle, WarmRoundBuildAllocationsDoNotGrowWithN) {
    // A warm two_hop rebuild under a fresh nonce writes every slot in
    // place: what it still allocates (if anything) is per round, not per
    // node, so n = 2048 and n = 8192 must agree.
    const SimulationParams params = build_params(DictionaryPolicy::two_hop);
    ThreadPool pool(4);
    std::vector<std::uint64_t> per_n;
    for (const std::size_t n : {2048u, 8192u}) {
        SCOPED_TRACE("n " + std::to_string(n));
        const Graph graph = make_ring(n);
        const auto messages = make_messages(graph, params.message_bits, 18);
        const Codebook book(graph, params);
        (void)book.round(messages, 1, &pool);
        (void)book.round(messages, 2, &pool);
        std::uint64_t worst = 0;
        for (std::uint64_t nonce = 3; nonce < 8; ++nonce) {
            worst = std::max(worst, allocations_of([&] { (void)book.round(messages, nonce, &pool); }));
        }
        EXPECT_EQ(book.stats().round_recycles, 6u);
        EXPECT_LE(worst, 64u);
        per_n.push_back(worst);
    }
    EXPECT_EQ(per_n[0], per_n[1]);
}

TEST(CodebookRecycle, AllNodesWarmRoundBuildAllocatesNothing) {
    // The all_nodes twin: above the bitslice crossover a warm rebuild under
    // fixed messages re-transposes the bitslice matrix and the SoA
    // dictionary and folds the decoys into the cached gap block, all in the
    // recycled round's storage.
    const SimulationParams params = build_params(DictionaryPolicy::all_nodes);
    ThreadPool pool(4);
    for (const std::size_t n : {2048u, 8192u}) {
        SCOPED_TRACE("n " + std::to_string(n));
        const Graph graph = make_ring(n);
        const auto messages = make_messages(graph, params.message_bits, 20);
        const Codebook book(graph, params);
        (void)book.round(messages, 1, &pool);
        (void)book.round(messages, 2, &pool);
        ASSERT_FALSE(book.round(messages, 3, &pool)->codeword_slices.empty());
        std::uint64_t worst = 0;
        for (std::uint64_t nonce = 4; nonce < 8; ++nonce) {
            worst = std::max(
                worst, allocations_of([&] { (void)book.round(messages, nonce, &pool); }));
        }
        EXPECT_EQ(book.stats().round_recycles, 6u);
        EXPECT_EQ(book.stats().gap_builds, 1u);
        EXPECT_EQ(worst, 0u);
    }
}

TEST(CodebookRecycle, WarmTransportBatchAllocationsDoNotGrowWithN) {
    // The same pin through the transport: a reused batch over fresh nonces
    // builds (recycling) and decodes every round.
    SimulationParams params = build_params(DictionaryPolicy::two_hop);
    params.threads = 4;
    std::vector<std::uint64_t> per_n;
    for (const std::size_t n : {2048u, 8192u}) {
        SCOPED_TRACE("n " + std::to_string(n));
        const Graph graph = make_ring(n);
        const auto messages = make_messages(graph, params.message_bits, 19);
        const BeepTransport transport(graph, params);
        TransportBatch batch;
        std::uint64_t next_nonce = 1;
        const auto specs = [&] {
            std::vector<RoundSpec> out;
            for (int i = 0; i < 2; ++i) {
                out.push_back(RoundSpec{&messages, next_nonce++, nullptr});
            }
            return out;
        };
        transport.simulate_rounds_into(specs(), batch);  // sizes the arenas
        transport.simulate_rounds_into(specs(), batch);  // levels every worker's scratch
        std::uint64_t worst = 0;
        for (int warm = 0; warm < 4; ++warm) {
            const std::vector<RoundSpec> fresh = specs();
            worst = std::max(worst,
                             allocations_of([&] { transport.simulate_rounds_into(fresh, batch); }));
        }
        EXPECT_LE(worst, 64u);
        per_n.push_back(worst);
    }
    EXPECT_EQ(per_n[0], per_n[1]);
}

}  // namespace
}  // namespace nb
