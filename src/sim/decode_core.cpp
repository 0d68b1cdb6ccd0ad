#include "sim/decode_core.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.h"
#include "congest/algorithm.h"

namespace nb {
namespace transport_detail {

void build_node_states_into(std::vector<NodeState>& state, std::size_t n,
                            const FaultModel& faults) {
    state.assign(n, NodeState::correct);
    for (const auto v : faults.jammers) {
        require(v < n, "BeepTransport: jammer id out of range");
        state[v] = NodeState::jammer;
    }
    for (const auto v : faults.crashed) {
        require(v < n, "BeepTransport: crashed id out of range");
        // Duplicate entries within one list are idempotent; only the
        // contradictory jammer+crashed combination is rejected.
        require(state[v] != NodeState::jammer, "BeepTransport: node cannot jam and crash");
        state[v] = NodeState::crashed;
    }
}

void DecodeWorkspace::reserve_like(const DecodeWorkspace& other) {
    const auto grow = [](Bitstring& bits, const Bitstring& like) {
        if (bits.size() < like.size()) {
            bits.reset(like.size());
        }
    };
    grow(heard1, other.heard1);
    grow(heard2, other.heard2);
    grow(gathered, other.gathered);
    accepted_nodes.reserve(other.accepted_nodes.capacity());
    accepted_decoys.reserve(other.accepted_decoys.capacity());
    accept_mask.reserve(other.accept_mask.capacity());
    distances.reserve(other.distances.capacity());
    sort_tmp.reserve(other.sort_tmp.capacity());
    expected.reserve(other.expected.capacity());
    slice_scratch.reserve_like(other.slice_scratch);
}

void decode_node(const DecodeContext& ctx, std::size_t worker, NodeId v) {
    const DecodeContext& c = ctx;
    const Codebook::Round& rd = *c.round;
    if ((*c.states)[v] != NodeState::correct) {
        return;  // faulty nodes produce no output (their slot stays empty)
    }
    DecodeWorkspace& ws = (*c.workspaces)[worker];
    NodeDiagnostics& diag = (*c.diagnostics)[v];

    c.phase1_engine->hear_into(v, *c.phase1_schedules, ws.heard1);

    // Candidate entries for this decoder: node ids first, then the null
    // payload and the decoys (one list, built once per transport).
    const std::span<const std::uint32_t> entries = c.codebook->candidate_entries(v);
    const std::size_t node_candidates = c.codebook->node_candidate_count(v);

    // Phase 1 decode: which candidate inputs pass the Lemma 9 test. The
    // node's own input is known; the paper includes it in R_v (inclusive
    // neighborhood) but it carries no foreign message. Under all_nodes
    // the bitsliced kernel scores every candidate and decoy in one
    // transcript pass; two-hop dictionaries are small enough that the
    // per-candidate scalar kernel wins.
    ws.accepted_nodes.clear();
    ws.accepted_decoys.clear();
    if (c.bitsliced) {
        c.phase1_decoder->accept_all(ws.heard1, rd.codeword_slices, ws.slice_scratch,
                                     ws.accept_mask, c.kernel);
        for (std::size_t w = 0; w < ws.accept_mask.size(); ++w) {
            std::uint64_t bits = ws.accept_mask[w];
            while (bits != 0) {
                const std::size_t cand =
                    w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
                bits &= bits - 1;
                if (cand < c.n) {
                    if (cand != v) {
                        ws.accepted_nodes.push_back(static_cast<NodeId>(cand));
                    }
                } else {
                    ws.accepted_decoys.push_back(cand - c.n);
                }
            }
        }
    } else {
        for (std::size_t i = 0; i < node_candidates; ++i) {
            const NodeId u = entries[i];
            if (u != v && c.phase1_decoder->accepts_codeword(ws.heard1, rd.codewords[u],
                                                             c.kernel)) {
                ws.accepted_nodes.push_back(u);
            }
        }
        for (std::size_t i = 0; i < c.decoy_count; ++i) {
            if (c.phase1_decoder->accepts_codeword(ws.heard1, rd.decoy_codewords[i],
                                                   c.kernel)) {
                ws.accepted_decoys.push_back(i);
            }
        }
    }

    // Diagnostics: accepted vs the set of *correct* transmitting
    // neighbors (faulty neighbors never transmitted their codeword, so
    // accepting one counts as a false positive).
    std::size_t true_accepted = 0;
    for (const auto u : ws.accepted_nodes) {
        if (c.graph->has_edge(u, v) && (*c.states)[u] == NodeState::correct) {
            ++true_accepted;
        } else {
            ++diag.phase1_false_positives;
        }
    }
    diag.phase1_false_positives += ws.accepted_decoys.size();
    std::size_t correct_neighbors = 0;
    for (const auto u : c.graph->neighbors(v)) {
        correct_neighbors += (*c.states)[u] == NodeState::correct ? 1 : 0;
    }
    diag.phase1_false_negatives += correct_neighbors - true_accepted;

    // Phase 2 decode for every accepted foreign input, against the
    // round's cached dictionary encodings. The accepted sender is the
    // nearest-entry hint: when its encoding is within the unique-
    // decoding radius, the dictionary scan is skipped (exact; see
    // DistanceCode::nearest_entry).
    c.phase2_engine->hear_into(v, *c.phase2_schedules, ws.heard2);

    auto decode_entry_at = [&](const Bitstring& codeword,
                               const std::vector<std::size_t>& positions,
                               std::uint32_t hint_entry) {
        // The subsequence at the codeword's 1-positions: the vector
        // kernels gather it with the word-wise PEXT walk straight off
        // the packed codeword; the scalar kernel keeps the position-list
        // gather (faster than emulated PEXT). Identical bits either way
        // — positions ARE the codeword's 1-positions (property-tested).
        if (c.kernel == simd::Kernel::scalar) {
            ws.heard2.gather_into(positions, ws.gathered);
        } else {
            ws.heard2.gather_mask_into(codeword, ws.gathered, c.kernel);
        }
        // Full-dictionary sweeps (all_nodes above the bitslice
        // crossover) run the vectorized SoA scan; the sparse two-hop
        // entry lists keep the per-entry fold. Same hint shortcut, same
        // winner, bit-identical (see nearest_entry_soa).
        if (!rd.candidate_encoded_soa.empty()) {
            return c.distance_code->nearest_entry_soa(
                ws.gathered, rd.candidate_messages, rd.candidate_encoded_soa, entries,
                hint_entry, rd.decode_gaps, ws.distances, c.kernel);
        }
        return c.distance_code->nearest_entry(ws.gathered, rd.candidate_messages,
                                              rd.candidate_encoded, entries, hint_entry,
                                              rd.decode_gaps);
    };

    // Deliveries land as fixed-stride records in this worker's arena;
    // the run is contiguous because this worker decodes one node at a
    // time (see transport_batch.h).
    std::uint64_t run_start = 0;
    std::uint32_t run_count = 0;
    const std::size_t stride = c.batch->message_words();
    auto deliver_tail = [&](std::uint32_t entry) {
        const std::uint64_t offset = c.batch->push_record(worker);
        if (run_count == 0) {
            run_start = offset;
        }
        const std::vector<std::uint64_t>& words = rd.candidate_tails[entry].words();
        std::memcpy(c.batch->record_at(worker, offset), words.data(),
                    stride * sizeof(std::uint64_t));
        ++run_count;
    };

    for (const auto u : ws.accepted_nodes) {
        const std::uint32_t entry = decode_entry_at(rd.codewords[u], rd.one_positions[u], u);
        const Bitstring& decoded = rd.candidate_messages[entry];
        if (c.graph->has_edge(u, v) && (*c.states)[u] == NodeState::correct &&
            decoded != rd.payloads[u]) {
            ++diag.phase2_errors;
        }
        if (decoded.test(0)) {
            deliver_tail(entry);
        }
    }
    for (const auto i : ws.accepted_decoys) {
        const auto hint = static_cast<std::uint32_t>(c.n + 1 + i);
        const std::uint32_t entry =
            decode_entry_at(rd.decoy_codewords[i], rd.decoy_one_positions[i], hint);
        if (rd.candidate_messages[entry].test(0)) {
            deliver_tail(entry);
        }
    }
    c.batch->commit_node(c.round_index, v, worker, run_start, run_count, ws.sort_tmp);

    // Ground-truth delivery for the mismatch diagnostic: faulty
    // neighbors' messages are lost by definition. The expected messages
    // are the cached payload tails, compared word-by-word against the
    // arena records so the check allocates nothing.
    ws.expected.clear();
    for (const auto u : c.graph->neighbors(v)) {
        if ((*c.messages)[u].has_value() && (*c.states)[u] == NodeState::correct) {
            ws.expected.push_back(&rd.candidate_tails[u]);
        }
    }
    std::sort(ws.expected.begin(), ws.expected.end(),
              [](const Bitstring* a, const Bitstring* b) { return message_less(*a, *b); });
    bool mismatch = ws.expected.size() != run_count;
    for (std::size_t i = 0; !mismatch && i < ws.expected.size(); ++i) {
        const std::span<const std::uint64_t> record =
            c.batch->delivered_words(c.round_index, v, i);
        const std::vector<std::uint64_t>& expect = ws.expected[i]->words();
        for (std::size_t w = 0; w < stride; ++w) {
            if (record[w] != expect[w]) {
                mismatch = true;
                break;
            }
        }
    }
    if (mismatch) {
        ++diag.delivery_mismatches;
    }
}

}  // namespace transport_detail
}  // namespace nb
