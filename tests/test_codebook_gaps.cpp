// The phase-2 decode radii a Codebook round carries (Round::decode_gap):
// every entry's gap is folded over its co-occurrence set — every entry of
// every candidate row holding it — under both dictionary policies, so the
// nearest_entry() radius shortcut decodes exactly what a gap-free fold over
// any node's dictionary decodes (DESIGN.md section 5). Also: the gaps do not
// depend on the pool size, the payload-keyed block is built once per
// payload set, on its second round, and the transport's shortcut/full-scan
// tallies account for every phase-2 decode.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <ranges>
#include <set>
#include <string>
#include <vector>

#include "codes/distance_code.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "sim/codebook.h"
#include "sim/codebook_cache.h"
#include "sim/params.h"
#include "sim/transport.h"
#include "sim/transport_batch.h"

namespace nb {
namespace {

struct NamedGraph {
    std::string name;
    Graph graph;
};

std::vector<NamedGraph> small_graphs() {
    Rng rng(0x9a95);
    std::vector<NamedGraph> graphs;
    graphs.push_back({"ring", make_ring(24)});
    graphs.push_back({"path", make_path(17)});
    graphs.push_back({"star", make_star(12)});
    graphs.push_back({"random_regular", make_random_regular(40, 4, rng)});
    return graphs;
}

const char* policy_name(DictionaryPolicy policy) {
    return policy == DictionaryPolicy::two_hop ? "two_hop" : "all_nodes";
}

/// Few message bits, so many nodes share a payload, and a fifth of the
/// nodes silent, so their payload equals the null entry's.
SimulationParams gap_params(DictionaryPolicy policy) {
    SimulationParams params;
    params.message_bits = 2;
    params.c_eps = 3;
    params.decoy_count = 6;
    params.dictionary = policy;
    return params;
}

std::vector<std::optional<Bitstring>> gap_messages(const Graph& graph, std::size_t bits,
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

/// Every entry's co-occurrence set, by brute force over the rows.
std::vector<std::set<std::uint32_t>> co_occurrence_sets(const Codebook& book,
                                                        std::size_t entry_count) {
    std::vector<std::set<std::uint32_t>> sets(entry_count);
    for (NodeId v = 0; v < book.graph().node_count(); ++v) {
        const auto row = book.candidate_entries(v);
        for (const std::uint32_t e : row) {
            sets[e].insert(row.begin(), row.end());
        }
    }
    return sets;
}

/// Every entry's decode radius in `round`.
std::vector<std::uint32_t> radii(const Codebook::Round& round) {
    std::vector<std::uint32_t> gaps;
    for (std::uint32_t e = 0; e < round.candidate_messages.size(); ++e) {
        gaps.push_back(round.decode_gap(e));
    }
    return gaps;
}

/// `codeword` with `flips` distinct random bits flipped.
Bitstring perturbed(const Bitstring& codeword, std::size_t flips, Rng& rng) {
    Bitstring received = codeword;
    for (const std::size_t i :
         rng.distinct_positions(codeword.size(), std::min(flips, codeword.size()))) {
        received.flip(i);
    }
    return received;
}

/// `from` moved `steps` bits toward `to` (the first differing positions).
Bitstring toward(const Bitstring& from, const Bitstring& to, std::size_t steps) {
    Bitstring received = from;
    for (std::size_t i = 0; i < from.size() && steps > 0; ++i) {
        if (from.test(i) != to.test(i)) {
            received.flip(i);
            --steps;
        }
    }
    return received;
}

/// For every node's dictionary and every hint in it, received words at
/// random distances around the hint's radius, and words walked from the
/// hint toward its nearest differently encoded competitor in that
/// dictionary — the direction an unsound radius fails in: the shortcut's
/// decoded message must equal the gap-free fold's. Returns how many decodes
/// the shortcut settled.
std::size_t expect_shortcut_exact(const Codebook& book, const DistanceCode& code,
                                  std::span<const Bitstring> messages,
                                  std::span<const Bitstring> encoded,
                                  std::span<const std::uint32_t> gaps, Rng& rng) {
    std::size_t shortcuts = 0;
    const auto check = [&](NodeId v, std::span<const std::uint32_t> entries,
                           std::uint32_t hint, const Bitstring& received) {
        const auto with_gaps =
            code.nearest_entry(received, messages, encoded, entries, hint, gaps[hint]);
        const auto folded = code.nearest_entry(received, messages, encoded, entries, hint, 0);
        EXPECT_FALSE(folded.shortcut);
        EXPECT_EQ(messages[with_gaps.entry], messages[folded.entry])
            << "node " << v << " hint " << hint << " distance "
            << received.hamming_distance(encoded[hint]);
        shortcuts += with_gaps.shortcut ? 1 : 0;
    };
    for (NodeId v = 0; v < book.graph().node_count(); ++v) {
        const auto entries = book.candidate_entries(v);
        for (const std::uint32_t hint : entries) {
            const std::size_t half = gaps[hint] / 2;
            for (const std::size_t flips :
                 {std::size_t{0}, std::size_t{1}, half > 0 ? half - 1 : 0, half, half + 1,
                  static_cast<std::size_t>(rng.next_below(code.length() + 1))}) {
                check(v, entries, hint, perturbed(encoded[hint], flips, rng));
            }
            std::optional<std::uint32_t> rival;
            for (const std::uint32_t other : entries) {
                const std::size_t d = encoded[other].hamming_distance(encoded[hint]);
                if (d > 0 && (!rival || d < encoded[*rival].hamming_distance(encoded[hint]))) {
                    rival = other;
                }
            }
            if (rival) {
                const std::size_t d = encoded[*rival].hamming_distance(encoded[hint]);
                for (const std::size_t steps :
                     {half > 0 ? half - 1 : 0, half, d / 2, (d + 1) / 2}) {
                    check(v, entries, hint, toward(encoded[hint], encoded[*rival], steps));
                }
            }
        }
    }
    return shortcuts;
}

TEST(CodebookGaps, GapIsTheFoldOverTheCoOccurrenceSet) {
    // Brute force: the union of every row holding the entry. None of these
    // graphs has an isolated node, so the codebook's sets are exactly these.
    for (const auto& [name, graph] : small_graphs()) {
        for (const auto policy : {DictionaryPolicy::two_hop, DictionaryPolicy::all_nodes}) {
            SCOPED_TRACE(name + " " + policy_name(policy));
            const SimulationParams params = gap_params(policy);
            const Codebook book(graph, params);
            const auto messages = gap_messages(graph, params.message_bits, 3);
            const std::size_t n = graph.node_count();
            const DistanceCode& code = book.distance_code();
            // The payload set's first round has no payload block: its
            // payload entries read 0 (no shortcut), its decoys their gaps.
            // The second round has every radius.
            for (const std::uint64_t nonce : {6u, 7u}) {
                const auto round = book.round(messages, nonce);
                const std::span<const Bitstring> m(round->candidate_messages);
                const std::span<const Bitstring> e(round->candidate_encoded);
                const auto sets = co_occurrence_sets(book, m.size());
                ASSERT_EQ(round->decode_gaps.size(), m.size());
                EXPECT_EQ(round->payload_gaps == nullptr, nonce == 6);
                for (std::uint32_t entry = 0; entry < m.size(); ++entry) {
                    const bool open = nonce == 7 || entry > n;
                    EXPECT_EQ(round->decode_gap(entry),
                              open ? code.fold_decode_gap(m, e, entry, sets[entry], code.open_gap())
                                   : 0u)
                        << "nonce " << nonce << " entry " << entry;
                }
            }
        }
    }
}

TEST(CodebookGaps, ShortcutDecodesTheGapFreeFoldsMessage) {
    // 2 message bits: every payload has many duplicates. 8 bits: most are
    // distinct, so an entry's nearest rival in a dictionary can lie outside
    // any smaller set than its co-occurrence set.
    Rng rng(0x5c);
    for (const std::size_t bits : {2u, 8u}) {
        for (const auto& [name, graph] : small_graphs()) {
            for (const auto policy : {DictionaryPolicy::two_hop, DictionaryPolicy::all_nodes}) {
                SCOPED_TRACE(name + " " + policy_name(policy) + " bits " + std::to_string(bits));
                SimulationParams params = gap_params(policy);
                params.message_bits = bits;
                const Codebook book(graph, params);
                const auto messages = gap_messages(graph, params.message_bits, 5);
                for (const std::uint64_t nonce : {1u, 2u}) {
                    const auto round = book.round(messages, nonce);
                    EXPECT_GT(expect_shortcut_exact(book, book.distance_code(),
                                                    round->candidate_messages,
                                                    round->candidate_encoded, radii(*round),
                                                    rng),
                              0u);
                }
                // Nonce 1 decoded with the decoys' radii only.
                EXPECT_EQ(book.stats().gap_builds, 1u);
            }
        }
    }
}

TEST(CodebookGaps, EncodingCollisionsOfDifferentMessagesZeroTheGap) {
    // A 3-bit distance code maps the round's payloads onto at most 8
    // encodings, so different messages collide: their entries' gaps must be
    // 0 (no shortcut), and every decode must still match the gap-free fold.
    Rng rng(0x7a);
    for (const auto& [name, graph] : small_graphs()) {
        for (const auto policy : {DictionaryPolicy::two_hop, DictionaryPolicy::all_nodes}) {
            SCOPED_TRACE(name + " " + policy_name(policy));
            SimulationParams params = gap_params(policy);
            params.message_bits = 4;
            const Codebook book(graph, params);
            const auto messages = gap_messages(graph, params.message_bits, 9);
            const auto round = book.round(messages, 3);
            const DistanceCode tiny(params.payload_bits(), 3, 0x7e);
            const std::span<const Bitstring> m(round->candidate_messages);
            std::vector<Bitstring> encoded;
            for (const auto& message : m) {
                encoded.push_back(tiny.encode(message));
            }
            const auto sets = co_occurrence_sets(book, m.size());
            std::vector<std::uint32_t> gaps;
            std::size_t collided = 0;
            for (std::uint32_t entry = 0; entry < m.size(); ++entry) {
                gaps.push_back(tiny.fold_decode_gap(m, encoded, entry, sets[entry],
                                                    tiny.open_gap()));
                bool collides = false;
                for (const std::uint32_t other : sets[entry]) {
                    collides = collides ||
                               (encoded[other] == encoded[entry] && m[other] != m[entry]);
                }
                EXPECT_EQ(gaps.back() == 0, collides) << "entry " << entry;
                collided += collides ? 1 : 0;
            }
            EXPECT_GT(collided, 0u);
            expect_shortcut_exact(book, tiny, m, encoded, gaps, rng);
        }
    }
}

TEST(CodebookGaps, GapsAreIdenticalAtPoolSizes1And4) {
    Rng rng(0x1a);
    const Graph graph = make_random_regular(600, 6, rng);  // several node blocks
    for (const auto policy : {DictionaryPolicy::two_hop, DictionaryPolicy::all_nodes}) {
        SCOPED_TRACE(policy_name(policy));
        const SimulationParams params = gap_params(policy);
        const auto messages = gap_messages(graph, params.message_bits, 11);
        ThreadPool one(1);
        ThreadPool four(4);
        // Each payload set's second round carries its payload block.
        const auto second_round = [&](ThreadPool* pool) {
            const Codebook book(graph, params);
            (void)book.round(messages, 4, pool);
            return book.round(messages, 5, pool);
        };
        const auto inline_round = second_round(nullptr);
        const auto one_round = second_round(&one);
        const auto four_round = second_round(&four);
        ASSERT_NE(inline_round->payload_gaps, nullptr);
        ASSERT_NE(one_round->payload_gaps, nullptr);
        ASSERT_NE(four_round->payload_gaps, nullptr);
        EXPECT_EQ(one_round->decode_gaps, inline_round->decode_gaps);
        EXPECT_EQ(four_round->decode_gaps, inline_round->decode_gaps);
        EXPECT_EQ(*one_round->payload_gaps, *inline_round->payload_gaps);
        EXPECT_EQ(*four_round->payload_gaps, *inline_round->payload_gaps);
    }
}

TEST(CodebookGaps, PayloadBlockIsBuiltOncePerPayloadSetOnItsSecondRound) {
    Rng rng(0x2b);
    const Graph graph = make_random_regular(64, 6, rng);
    for (const auto policy : {DictionaryPolicy::two_hop, DictionaryPolicy::all_nodes}) {
        SCOPED_TRACE(policy_name(policy));
        CodebookCache::instance().clear();
        SimulationParams params = gap_params(policy);
        params.threads = 4;
        const auto messages = gap_messages(graph, params.message_bits, 13);
        const BeepTransport transport(graph, params);
        std::vector<RoundSpec> specs;
        for (std::uint64_t nonce = 0; nonce < 4; ++nonce) {
            specs.push_back(RoundSpec{&messages, nonce, nullptr});
        }
        TransportBatch batch;
        transport.simulate_rounds_into(specs, batch);
        EXPECT_EQ(transport.codebook().stats().round_builds, 4u);
        EXPECT_EQ(transport.codebook().stats().gap_builds, 1u);
        // A second message set is recorded on its first round and is a
        // second block on its next.
        const auto other = gap_messages(graph, params.message_bits, 14);
        EXPECT_EQ(transport.codebook().round(other, 9)->payload_gaps, nullptr);
        EXPECT_EQ(transport.codebook().stats().gap_builds, 1u);
        EXPECT_NE(transport.codebook().round(other, 10)->payload_gaps, nullptr);
        EXPECT_EQ(transport.codebook().stats().gap_builds, 2u);
        // Messages whose payloads changed every round would never build
        // one.
        for (std::uint64_t seed = 20; seed < 24; ++seed) {
            (void)transport.codebook().round(gap_messages(graph, params.message_bits, seed),
                                             seed);
        }
        EXPECT_EQ(transport.codebook().stats().gap_builds, 2u);
    }
}

TEST(CodebookGaps, ShortcutHitsAndFullScansCountEveryPhase2Decode) {
    // Without faults, node v decodes one phase-2 word per accepted
    // candidate: its true neighbors minus the missed ones, plus the false
    // positives (foreign nodes and decoys).
    Rng rng(0x3c);
    const Graph graph = make_random_regular(128, 8, rng);
    for (const auto policy : {DictionaryPolicy::two_hop, DictionaryPolicy::all_nodes}) {
        SCOPED_TRACE(policy_name(policy));
        SimulationParams params;
        params.message_bits = 8;
        params.epsilon = 0.1;
        params.dictionary = policy;
        params.threads = 3;
        const auto messages = gap_messages(graph, params.message_bits, 15);
        // Cold cache each time: the payload-gap cache's history decides
        // which rounds can shortcut.
        CodebookCache::instance().clear();
        const BeepTransport transport(graph, params);
        std::vector<RoundSpec> specs;
        for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
            specs.push_back(RoundSpec{&messages, nonce, nullptr});
        }
        TransportBatch batch;
        transport.simulate_rounds_into(specs, batch);
        std::size_t decodes = 0;
        for (std::size_t i = 0; i < batch.rounds(); ++i) {
            const TransportRoundStats& stats = batch.stats(i);
            decodes += 2 * graph.edge_count() - stats.phase1_false_negatives +
                       stats.phase1_false_positives;
        }
        const Phase2DecodeCounts& counts = batch.phase2_decodes();
        EXPECT_EQ(counts.shortcut_hits + counts.full_scans, decodes);
        EXPECT_GT(counts.shortcut_hits, 0u);

        // The counts are per call, and independent of the pool size.
        TransportBatch again;
        params.threads = 1;
        CodebookCache::instance().clear();
        BeepTransport(graph, params).simulate_rounds_into(specs, again);
        EXPECT_EQ(again.phase2_decodes().shortcut_hits, counts.shortcut_hits);
        EXPECT_EQ(again.phase2_decodes().full_scans, counts.full_scans);
    }
}

TEST(CodebookGaps, PayloadKeyPacksEveryPayloadBitEndToEnd) {
    // The payload-cache key must tell every two payload sets apart: bit
    // v * payload_bits + i is bit i of node v's payload, straddling words
    // and multi-word payloads included, and the tail of the last word is
    // clear.
    const Graph graph = make_ring(37);
    for (const std::size_t bits : {2u, 63u, 64u, 70u}) {
        SCOPED_TRACE("message bits " + std::to_string(bits));
        SimulationParams params = gap_params(DictionaryPolicy::two_hop);
        params.message_bits = bits;
        const auto round = Codebook(graph, params)
                               .round(gap_messages(graph, bits, 40 + bits), 1);
        const std::size_t width = params.payload_bits();
        const auto& key = round->payload_key;
        ASSERT_EQ(key.size(), (graph.node_count() * width + 63) / 64);
        for (std::size_t at = 0; at < key.size() * 64; ++at) {
            const bool expected =
                at < graph.node_count() * width && round->payloads[at / width].test(at % width);
            ASSERT_EQ(((key[at / 64] >> (at % 64)) & 1) != 0, expected) << "bit " << at;
        }
    }
}

TEST(CodebookGaps, PayloadGapListStaysWithinItsChargedCapacity) {
    // Payload sets that each come back once (so each builds a block), more
    // of them than the list keeps. The blocks still alive afterwards are
    // the list's (the recycled round holds only the list's newest), exactly
    // node_gap_capacity() of them, and memory_bytes() charges that many.
    const Graph graph = make_ring(48);
    SimulationParams params = gap_params(DictionaryPolicy::two_hop);
    params.message_bits = 8;  // distinct payload sets per seed
    const Codebook book(graph, params);
    const std::size_t capacity = Codebook::node_gap_capacity();
    const std::size_t sets = capacity + 16;
    std::vector<std::weak_ptr<const std::vector<std::uint32_t>>> blocks;
    std::uint64_t nonce = 0;
    for (std::uint64_t seed = 0; seed < sets; ++seed) {
        const auto messages = gap_messages(graph, params.message_bits, 100 + seed);
        EXPECT_EQ(book.round(messages, nonce++)->payload_gaps, nullptr);
        blocks.push_back(book.round(messages, nonce++)->payload_gaps);
    }
    EXPECT_EQ(book.stats().gap_builds, sets);
    const auto live = std::ranges::count_if(blocks, [](const auto& block) {
        return !block.expired();
    });
    EXPECT_EQ(static_cast<std::size_t>(live), capacity);
    EXPECT_TRUE(blocks.back().lock() != nullptr);
    EXPECT_GE(book.memory_bytes(),
              capacity * (graph.node_count() + 1) * sizeof(std::uint32_t));
}

}  // namespace
}  // namespace nb
