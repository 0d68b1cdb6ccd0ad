// The parallel round build: Codebook::round fans its per-node loops out over
// node blocks on the caller's ThreadPool, and the result must be the inline
// build's Round bit for bit — every per-node vector, the bitslice and SoA
// dictionaries, the decode radii, the energy totals — with every Stats
// counter equal, for any pool size. Covered shapes: the two_hop dictionary,
// all_nodes above the bitslice crossover, a same-nonce donor rebuild, and a
// shard-view codebook (DESIGN.md sections 5 and 10).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "sim/codebook.h"
#include "sim/params.h"

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
    expect_same_slices(a.codeword_slices, b.codeword_slices);
    expect_same_soa(a.candidate_encoded_soa, b.candidate_encoded_soa);
    EXPECT_EQ(a.rng.derive(1).next_u64(), b.rng.derive(1).next_u64());
}

void expect_same_stats(const Codebook::Stats& a, const Codebook::Stats& b) {
    EXPECT_EQ(a.code_builds, b.code_builds);
    EXPECT_EQ(a.round_builds, b.round_builds);
    EXPECT_EQ(a.codeword_builds, b.codeword_builds);
    EXPECT_EQ(a.payload_encodes, b.payload_encodes);
    EXPECT_EQ(a.dictionary_rows_built, b.dictionary_rows_built);
    EXPECT_EQ(a.dictionary_rows_reused, b.dictionary_rows_reused);
    EXPECT_EQ(a.delta_full_rebuilds, b.delta_full_rebuilds);
    EXPECT_EQ(a.codeword_reuses, b.codeword_reuses);
    EXPECT_EQ(a.payload_encode_reuses, b.payload_encode_reuses);
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
        expect_same_stats(pooled_book->stats(), inline_book->stats());
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

TEST(CodebookParallelBuild, ShardViewRoundIsPoolSizeInvariant) {
    Rng rng(0x54);
    const Graph graph = make_random_regular(900, 4, rng);
    const SimulationParams params = build_params(DictionaryPolicy::two_hop);
    const ShardPlan plan = make_shard_plan(graph, 3);
    for (const auto& shard : plan.shards) {
        Codebook::ShardView view;
        view.global_ids = shard.local_to_global;
        view.owned_begin = shard.owned_begin;
        view.owned_count = shard.owned_count;
        view.global_node_count = graph.node_count();
        view.global_max_degree = graph.max_degree();
        const auto messages = make_messages(shard.local, params.message_bits, 6);
        expect_pool_invariant(
            [&] { return std::make_unique<Codebook>(shard.local, params, view); },
            {{&messages, 41}, {&messages, 42}});
    }
}

}  // namespace
}  // namespace nb
