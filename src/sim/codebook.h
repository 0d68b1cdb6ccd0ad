// Once-per-transport cache of Algorithm 1's codes, candidate dictionaries,
// and per-round derived state (see DESIGN.md sections 2 and 12).
//
// The paper's codes C, D and CD are public and fixed: a transport's decoders
// use the same three code objects for every simulated round, and every
// decoding node scans the same candidate dictionary. Before this layer
// existed, simulate_round rebuilt all of it — codes, all n codewords, their
// 1-position lists, and every candidate's distance-code encoding — from
// scratch on every call (and the encodings once per decoding node per
// accepted sender). The Codebook splits that state by lifetime:
//
//   * per transport (built exactly once, in the constructor): the
//     BeepCode/DistanceCode/CombinedCode triple and the candidate entry
//     index for the configured DictionaryPolicy;
//   * per round (rebuilt only when the (messages, nonce) key changes): the
//     fresh inputs r_v, payloads, codewords C(r_v) with cached 1-positions,
//     fault-free phase schedules, decoy material, and the phase-2 candidate
//     dictionary with all distance-code encodings precomputed.
//
// Two construction paths share one representation (DESIGN.md section 12):
// a fresh build computes the candidate index from the graph; an *mmap*
// build borrows the index from a validated nb-codebook/v1 file
// (sim/codebook_io.h) without copying it. Both are fingerprint-identical by
// construction, and the property tests pin that.
//
// Per-round state is delta-updated: when a round is rebuilt under the same
// nonce (only the messages changed — the sweep-job shape), the codewords,
// 1-positions, decoy material, and every unchanged entry's encoding are
// copied from the previous round, and the word-major SoA dictionary is
// patched column-wise instead of re-transposed. Copying is sound because
// every reused quantity is a pure function of (transport_seed, nonce, entry
// id) or of that entry's unchanged message — the copied value equals the
// regenerated one bit for bit.
//
// Rounds are handed out as shared_ptr<const Round>: simulate_round keeps its
// round alive for the duration of the call, so concurrent callers with
// different (messages, nonce) keys never invalidate each other (they only
// thrash the single-entry cache). A handed-out round is never modified: a
// rebuild under a new nonce writes into the superseded round's storage only
// when the cache is its sole owner — once every caller has dropped it — and
// otherwise builds a new round (DESIGN.md section 5). So a caller that keeps
// its round keeps it intact, and the steady state of one caller per
// codebook (the transports) rebuilds in place without allocating.
// Construction counters are exposed via stats() so tests can assert the
// once-per-transport contract.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "codes/combined_code.h"
#include "common/bitslice.h"
#include "common/bitstring.h"
#include "common/word_soa.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "sim/params.h"

namespace nb {

class CodebookFile;
class ThreadPool;

class Codebook {
public:
    /// Builds the code triple and candidate entry index once. The graph must
    /// outlive the codebook.
    Codebook(const Graph& graph, const SimulationParams& params);

    /// Mmap-backed build: borrow the candidate index from a validated
    /// nb-codebook/v1 file instead of recomputing it. The file's identity
    /// header (graph digests, node count, code params) must match (graph,
    /// params) — mismatches throw precondition_error. The mapping is kept
    /// alive for this codebook's lifetime; a null `file` builds the index
    /// fresh.
    Codebook(const Graph& graph, const SimulationParams& params,
             std::shared_ptr<const CodebookFile> file);

    const BeepCode& beep_code() const noexcept { return combined_.beep(); }
    const DistanceCode& distance_code() const noexcept { return combined_.distance(); }
    const CombinedCode& combined_code() const noexcept { return combined_; }

    /// Beep-code length b for this graph's maximum degree.
    std::size_t beep_length() const noexcept { return combined_.length(); }

    /// Everything one round derives from (messages, nonce). Candidate arrays
    /// are indexed by "entry": entries 0..n-1 are the nodes' payloads, entry
    /// n is the null payload, entries n+1.. are the decoys.
    struct Round {
        std::vector<std::uint64_t> inputs;    ///< r_v
        std::vector<Bitstring> payloads;      ///< presence-bit-packed payloads
        std::vector<Bitstring> codewords;     ///< C(r_v)
        std::vector<std::vector<std::size_t>> one_positions;  ///< of C(r_v)

        std::vector<std::uint64_t> decoy_inputs;
        std::vector<Bitstring> decoy_codewords;
        std::vector<std::vector<std::size_t>> decoy_one_positions;

        /// Phase-2 dictionary over the entry space (size n + 1 + decoys):
        /// candidate messages and their cached distance-code encodings.
        std::vector<Bitstring> candidate_messages;
        std::vector<Bitstring> candidate_encoded;

        /// candidate_messages[e] with the presence bit stripped — the
        /// algorithm-level message each entry delivers, precomputed so the
        /// per-delivery extraction is a copy instead of a bit shift.
        std::vector<Bitstring> candidate_tails;

        /// Transposed phase-1 candidate matrix for the bitsliced decoder:
        /// columns 0..n-1 are the node codewords, columns n.. the decoys
        /// (the null payload has no codeword). Built, with decode_gaps, only
        /// under the all_nodes dictionary policy — the O(n)-per-node scans
        /// they accelerate; two-hop dictionaries are small enough that the
        /// scalar kernels win (see DESIGN.md section 5).
        BitsliceMatrix codeword_slices;

        /// candidate_encoded transposed word-major (common/word_soa.h) for
        /// the vectorized phase-2 full-dictionary sweep
        /// (DistanceCode::nearest_entry_soa). Built with codeword_slices —
        /// same policy, same crossover; empty() otherwise.
        WordSoa candidate_encoded_soa;

        /// Per-entry unique-decoding radii for the phase-2 radius shortcut
        /// (DistanceCode::decode_gaps). Empty under two_hop.
        std::vector<std::uint32_t> decode_gaps;

        /// Fault-free phase-2 schedules CD(r_v, payload_v) and the fault-free
        /// energy totals (phase 1 beeps the codewords themselves).
        std::vector<Bitstring> combined_schedules;
        std::size_t phase1_beeps = 0;
        std::size_t phase2_beeps = 0;

        Rng rng;  ///< the round rng all per-round streams derive from

        std::uint64_t nonce = 0;
        std::vector<std::optional<Bitstring>> messages;  ///< the cache key
    };

    /// The cached round for (messages, nonce), rebuilt only when the key
    /// differs from the previously returned one. Thread-safe. The key needs
    /// no channel component: a Round is channel-independent by construction
    /// (codewords, schedules, and dictionaries are what nodes *transmit*;
    /// the ChannelModel perturbs transcripts at hear time, from streams
    /// derived off round.rng by the engines), and the channel itself is
    /// fixed per transport.
    ///
    /// A rebuild fans its per-node loops out over node blocks on `pool`
    /// (nullptr = inline on the calling thread). Every slot has exactly one
    /// writer and every per-node value is a pure function of (seed, nonce,
    /// node id, message), so the Round and the stats() counters are
    /// bit-identical for any pool size (DESIGN.md section 5).
    std::shared_ptr<const Round> round(const std::vector<std::optional<Bitstring>>& messages,
                                       std::uint64_t nonce, ThreadPool* pool = nullptr) const;

    /// Candidate entries node v's decoder scans, in dictionary order: the
    /// candidate node ids (sorted two-hop set or all nodes, per the policy),
    /// then the null payload, then the decoys. The node-id prefix has length
    /// node_candidate_count(v).
    std::span<const std::uint32_t> candidate_entries(NodeId v) const;
    std::size_t node_candidate_count(NodeId v) const;

    /// The candidate index as flat CSR — row r of candidate_row_count()
    /// spans candidate_entry_data()[candidate_offsets()[r] ..
    /// candidate_offsets()[r+1]] (one row per node under two_hop, one shared
    /// row otherwise). This is exactly the payload nb-codebook/v1 serializes
    /// and an mmap build borrows in place.
    std::span<const std::uint64_t> candidate_offsets() const noexcept { return offsets_; }
    std::span<const std::uint32_t> candidate_entry_data() const noexcept { return entries_; }
    std::size_t candidate_row_count() const noexcept { return offsets_.size() - 1; }

    /// The nb-codebook/v1 mapping backing the candidate index, or nullptr
    /// for an owned (fresh) index.
    const CodebookFile* backing_file() const noexcept { return file_.get(); }

    std::size_t decoy_count() const noexcept { return params_.decoy_count; }
    const SimulationParams& params() const noexcept { return params_; }
    const Graph& graph() const noexcept { return graph_; }

    /// Deterministic estimate of this codebook's resident footprint: the
    /// candidate entry index plus one cached Round of derived material,
    /// computed from the code dimensions (codes themselves are procedural —
    /// seeds and dimensions). An estimate rather than a measurement so the
    /// CodebookCache's byte-accounted eviction is a pure function of the
    /// build parameters, independent of allocator, thread interleaving, and
    /// of whether the index is owned or mmap-borrowed (see DESIGN.md
    /// section 9).
    std::size_t memory_bytes() const;

    /// Order-sensitive structural digest of everything two transports would
    /// share through this codebook: the code geometry, sampled codewords and
    /// distance-code encodings (pure functions of the code seeds), every
    /// node's candidate entry list, and the key-relevant parameters. Two
    /// codebooks with equal fingerprints decode bit-identically; the cache
    /// and serialization property tests both compare against a fresh
    /// direct build through this digest. Stats-neutral and thread-safe.
    std::uint64_t fingerprint() const;

    /// Construction counters for the once-per-transport contract.
    struct Stats {
        std::size_t code_builds = 0;      ///< code-triple constructions
        std::size_t round_builds = 0;     ///< distinct (messages, nonce) rebuilds
        std::size_t round_recycles = 0;   ///< rebuilds written into the superseded round
        std::size_t codeword_builds = 0;  ///< beep codewords generated in total
        std::size_t payload_encodes = 0;  ///< distance-code encodings generated

        // Same-nonce donor efficacy (zero unless a round is rebuilt under
        // the nonce of the round it replaces).
        std::size_t codeword_reuses = 0;        ///< codewords copied from a donor round
        std::size_t payload_encode_reuses = 0;  ///< encodings copied from a donor round
    };
    Stats stats() const;

private:

    /// Per-build generation/reuse tally build_round reports back to round()
    /// so the stats counters move exactly with the work done.
    struct BuildTally {
        std::size_t codewords_generated = 0;
        std::size_t codewords_reused = 0;
        std::size_t encodes_generated = 0;
        std::size_t encodes_reused = 0;
    };

    /// Builds the round for (messages, nonce) into `round` — a superseded
    /// round of this codebook to recycle, or null for a new one.
    std::shared_ptr<Round> build_round(const std::vector<std::optional<Bitstring>>& messages,
                                       std::uint64_t nonce,
                                       std::shared_ptr<const Round> donor, BuildTally& tally,
                                       ThreadPool* pool, std::shared_ptr<Round> round) const;

    /// Whether build_round transposes each round into a BitsliceMatrix and
    /// a WordSoa dictionary: all_nodes rounds from bitslice_min_candidates
    /// candidates up. memory_bytes() charges those two for exactly these
    /// codebooks.
    bool bitsliced_rounds() const noexcept;

    void build_candidate_index();
    void adopt_candidate_index();  ///< borrow the CSR from file_
    std::span<const std::uint32_t> candidate_row(std::size_t r) const noexcept {
        return entries_.subspan(offsets_[r], offsets_[r + 1] - offsets_[r]);
    }

    /// The node-payload block of the phase-2 decode radii (entries 0..n:
    /// payloads + null) depends only on `messages`, not the nonce, so a
    /// fixed-messages nonce sweep reuses it and each round pays only for
    /// the decoy rows (DistanceCode::extend_decode_gaps). Kept as a small
    /// MRU list rather than one slot: concurrent sweep jobs sharing this
    /// codebook differ exactly in their messages, and a single slot would
    /// thrash — re-running the O(n^2) gap computation every round.
    struct NodeGapCache {
        std::vector<std::optional<Bitstring>> messages;  ///< the cache key
        std::vector<std::uint32_t> gaps;
    };

    /// Node-gap entries kept: sized to exceed any plausible number of
    /// concurrent sweep jobs (each with its own messages) sharing this
    /// codebook — if a live job's entry were evicted between its rounds,
    /// the O(n^2) saving the cache exists for would be lost to thrash.
    static std::size_t node_gap_capacity();

    const Graph& graph_;
    SimulationParams params_;
    CombinedCode combined_;

    /// Candidate entry index, flat CSR. Owned builds fill owned_* and point
    /// the spans at them; mmap builds leave owned_* empty and point the
    /// spans into file_'s mapping (file_ keeps it alive).
    std::vector<std::uint64_t> owned_offsets_;
    std::vector<std::uint32_t> owned_entries_;
    std::span<const std::uint64_t> offsets_;
    std::span<const std::uint32_t> entries_;
    std::shared_ptr<const CodebookFile> file_;

    mutable std::mutex mutex_;
    mutable std::shared_ptr<const Round> cached_;
    mutable std::list<std::shared_ptr<const NodeGapCache>> node_gaps_;  ///< MRU first
    mutable Stats stats_;
};

}  // namespace nb
