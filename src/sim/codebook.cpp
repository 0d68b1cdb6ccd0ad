#include "sim/codebook.h"

#include <algorithm>
#include <ranges>
#include <thread>
#include <unordered_set>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "sim/codebook_cache.h"
#include "sim/codebook_io.h"

namespace nb {

namespace {

NB_FAILPOINT_DEFINE(fp_codebook_build, "codebook.build");

/// Nodes per block of the parallel round build: large enough that one
/// block's work dwarfs a chunk claim, small enough that n = 2048 still
/// spreads over every worker.
constexpr std::size_t kBuildBlock = 128;

/// body(worker, begin, end) over [0, count) in kBuildBlock-sized blocks, on
/// `pool` (nullptr = inline, in block order, as worker 0).
template <typename Body>
void for_node_blocks(ThreadPool* pool, std::size_t count, const Body& body) {
    const std::size_t blocks = (count + kBuildBlock - 1) / kBuildBlock;
    const auto run = [&](std::size_t worker, std::size_t block) {
        const std::size_t begin = block * kBuildBlock;
        body(worker, begin, std::min(count, begin + kBuildBlock));
    };
    if (pool == nullptr) {
        for (std::size_t block = 0; block < blocks; ++block) {
            run(0, block);
        }
    } else {
        pool->parallel_for(blocks, run);
    }
}

/// True iff `p` is its object's only owner, with acquire ordering: every
/// access a former owner made before dropping its reference happens before
/// the caller's next writes. Exact only while no new owner can appear.
template <typename T>
bool sole_owner(const std::shared_ptr<T>& p) {
    if (p.use_count() != 1) {
        return false;
    }
    // use_count() is a relaxed load. Copying the pointer increments the
    // count with an acquire-release RMW, which synchronizes with the former
    // owners' releasing decrements.
    [[maybe_unused]] const std::shared_ptr<T> acquire = p;
    return true;
}

/// Pad/flag an optional algorithm message into a transport payload:
/// bit 0 = presence, bits 1..message_bits = the message (zero-padded).
/// Written into `payload`'s existing storage.
void make_payload_into(const std::optional<Bitstring>& message, std::size_t message_bits,
                       Bitstring& payload) {
    payload.reset(message_bits + 1);
    if (message.has_value()) {
        require(message->size() <= message_bits,
                "BeepTransport: message exceeds the bit budget");
        payload.set(0);
        message->for_each_one([&payload](std::size_t i) { payload.set(1 + i); });
    }
}

CombinedCode make_combined(const SimulationParams& params, std::size_t max_degree) {
    return CombinedCode(
        BeepCode(params.beep_code_length(max_degree), params.distance_code_length(),
                 params.code_seed),
        DistanceCode(params.payload_bits(), params.distance_code_length(),
                     mix64(params.code_seed ^ 0x64636f64u)));
}

/// The dictionary-order tail every candidate row ends with: the null payload
/// entry, then the decoys.
std::vector<std::uint32_t> make_tail(std::size_t node_count, std::size_t decoy_count) {
    const auto n32 = static_cast<std::uint32_t>(node_count);
    std::vector<std::uint32_t> tail;
    tail.reserve(1 + decoy_count);
    tail.push_back(n32);
    for (std::size_t i = 0; i < decoy_count; ++i) {
        tail.push_back(n32 + 1 + static_cast<std::uint32_t>(i));
    }
    return tail;
}

/// One worker's scratch for co_occurring_payloads: stamp[w] == u + 1 iff
/// node w was already collected for node u (so it is never cleared between
/// nodes), and the collected entry ids.
struct CoOccurrenceWalk {
    std::vector<std::uint32_t> stamp;
    std::vector<std::uint32_t> ids;
};

/// The payload-block entries that share a two_hop row with node u — every
/// node of every row holding u, then the null entry — read off the
/// codebook's own CSR rows, so owned and mmap-borrowed indexes walk alike.
/// Rows are symmetric (w is in row(v) iff v is in row(w)), so the rows
/// holding u are the rows of u's own row's nodes. The ids live in `walk`
/// until its next call.
std::span<const std::uint32_t> co_occurring_payloads(const Codebook& book, NodeId u,
                                                     CoOccurrenceWalk& walk) {
    const std::size_t n = book.graph().node_count();
    const auto row_nodes = [&book](NodeId v) {
        return book.candidate_entries(v).first(book.node_candidate_count(v));
    };
    walk.stamp.resize(n);
    walk.ids.clear();
    const std::uint32_t mark = u + 1;
    for (const NodeId v : row_nodes(u)) {
        for (const NodeId w : row_nodes(v)) {
            if (walk.stamp[w] != mark) {
                walk.stamp[w] = mark;
                walk.ids.push_back(w);
            }
        }
    }
    walk.ids.push_back(static_cast<std::uint32_t>(n));
    return walk.ids;
}

/// Every payload's `bits` bits packed end to end into `key`, reusing its
/// storage: the payload-cache key. Bitstrings keep the unused high bits of
/// their last word clear, so whole words can be or-ed in.
void pack_payloads(std::span<const Bitstring> payloads, std::size_t bits,
                   std::vector<std::uint64_t>& key) {
    key.assign((payloads.size() * bits + 63) / 64, 0);
    std::size_t at = 0;
    for (const Bitstring& payload : payloads) {
        for (const std::uint64_t word : payload.words()) {
            const std::size_t shift = at % 64;
            key[at / 64] |= word << shift;
            const std::size_t taken = std::min<std::size_t>(64, bits - at % bits);
            if (shift + taken > 64) {
                key[at / 64 + 1] |= word >> (64 - shift);
            }
            at += taken;
        }
    }
}

/// Append node v's sorted two-hop candidate set to `entries` (no tail).
void append_two_hop_set(const Graph& graph, NodeId v, std::vector<std::uint32_t>& entries) {
    std::unordered_set<NodeId> reachable;
    for (const auto u : graph.neighbors(v)) {
        reachable.insert(u);
        for (const auto w : graph.neighbors(u)) {
            if (w != v) {
                reachable.insert(w);
            }
        }
    }
    const std::size_t begin = entries.size();
    entries.insert(entries.end(), reachable.begin(), reachable.end());
    std::sort(entries.begin() + static_cast<std::ptrdiff_t>(begin), entries.end());
}

}  // namespace

Codebook::Codebook(const Graph& graph, const SimulationParams& params)
    : Codebook(graph, params, nullptr) {}

Codebook::Codebook(const Graph& graph, const SimulationParams& params,
                   std::shared_ptr<const CodebookFile> file)
    : graph_(graph),
      params_(params),
      combined_(make_combined(params, graph.max_degree())),
      file_(std::move(file)) {
    fp_codebook_build.check();
    params_.validate();
    stats_.code_builds = 1;
    if (file_ != nullptr) {
        adopt_candidate_index();
    } else {
        build_candidate_index();
    }
}

void Codebook::build_candidate_index() {
    const std::size_t n = graph_.node_count();
    const std::vector<std::uint32_t> tail = make_tail(n, params_.decoy_count);

    owned_offsets_.clear();
    owned_entries_.clear();
    owned_offsets_.push_back(0);
    if (params_.dictionary == DictionaryPolicy::two_hop) {
        owned_offsets_.reserve(n + 1);
        for (NodeId v = 0; v < n; ++v) {
            append_two_hop_set(graph_, v, owned_entries_);
            owned_entries_.insert(owned_entries_.end(), tail.begin(), tail.end());
            owned_offsets_.push_back(owned_entries_.size());
        }
    } else {
        owned_entries_.reserve(n + tail.size());
        for (NodeId u = 0; u < n; ++u) {
            owned_entries_.push_back(u);
        }
        owned_entries_.insert(owned_entries_.end(), tail.begin(), tail.end());
        owned_offsets_.push_back(owned_entries_.size());
    }
    offsets_ = owned_offsets_;
    entries_ = owned_entries_;
}

void Codebook::adopt_candidate_index() {
    const auto& header = file_->header();
    const std::size_t n = graph_.node_count();
    require(header.node_count == n, "Codebook: codebook file node count mismatch");
    require(header.dictionary == static_cast<std::uint32_t>(params_.dictionary),
            "Codebook: codebook file dictionary policy mismatch");
    require(header.message_bits == params_.message_bits && header.c_eps == params_.c_eps &&
                header.code_seed == params_.code_seed &&
                header.transport_seed == params_.transport_seed &&
                header.decoy_count == params_.decoy_count &&
                header.bitslice_min_candidates == params_.bitslice_min_candidates,
            "Codebook: codebook file params mismatch");
    // shard_digest is a retired identity field, always written as 0.
    require(header.shard_digest == 0, "Codebook: codebook file shard digest mismatch");
    require(header.max_degree == graph_.max_degree(),
            "Codebook: codebook file max degree mismatch");
    // The digest pair is the same 128-bit identity the CodebookCache keys
    // on: a file written for a different adjacency cannot adopt.
    require(header.graph_digest == CodebookCache::graph_digest(graph_) &&
                header.graph_digest2 == CodebookCache::graph_digest2(graph_),
            "Codebook: codebook file graph digest mismatch");
    const std::size_t rows = params_.dictionary == DictionaryPolicy::two_hop ? n : 1;
    require(file_->offsets().size() == rows + 1, "Codebook: codebook file row count mismatch");
    offsets_ = file_->offsets();
    entries_ = file_->entries();
}

std::size_t Codebook::memory_bytes() const {
    const std::size_t n = graph_.node_count();
    const std::size_t decoys = params_.decoy_count;
    const std::size_t entry_count = n + 1 + decoys;
    const std::size_t beep_bytes = (combined_.length() + 7) / 8;
    const std::size_t dist_len = params_.distance_code_length();
    const std::size_t dist_bytes = (dist_len + 7) / 8;
    const std::size_t payload_bytes = (params_.payload_bits() + 7) / 8;

    std::size_t bytes = sizeof(Codebook);
    // The candidate index (the only large per-transport state). Counted the
    // same whether owned or mmap-borrowed, so a cache entry's charge does
    // not depend on how it was constructed.
    bytes += entries_.size() * sizeof(std::uint32_t) +
             offsets_.size() * sizeof(std::uint64_t);
    // One cached Round of derived material. Codewords of C carry exactly
    // dist_len ones (the combined-code weight contract), which sizes the
    // one_positions lists.
    bytes += (n + decoys) * (beep_bytes + dist_len * sizeof(std::size_t));  // codewords + ones
    bytes += entry_count * (2 * payload_bytes + dist_bytes);  // messages, tails, encodings
    bytes += n * beep_bytes;                                  // combined_schedules
    bytes += entry_count * sizeof(std::uint32_t);             // decode gaps
    // The payload-gap list at capacity: every entry a packed payload key and
    // a built block (the round's own key is one more key).
    const std::size_t key_bytes = (n * params_.payload_bits() + 63) / 64 * sizeof(std::uint64_t);
    bytes += key_bytes + node_gap_capacity() * (key_bytes + (n + 1) * sizeof(std::uint32_t));
    if (bitsliced_rounds()) {
        // Bitslice matrix (beep_length planes over n+decoys columns) and the
        // word-major SoA mirror of candidate_encoded.
        bytes += combined_.length() * ((n + decoys + 63) / 64) * sizeof(std::uint64_t);
        bytes += entry_count * dist_bytes;
    }
    return bytes;
}

bool Codebook::bitsliced_rounds() const noexcept {
    return params_.dictionary == DictionaryPolicy::all_nodes &&
           graph_.node_count() + params_.decoy_count >= params_.bitslice_min_candidates;
}

std::span<const std::uint32_t> Codebook::candidate_entries(NodeId v) const {
    require(v < graph_.node_count(), "Codebook::candidate_entries: node out of range");
    return candidate_row(params_.dictionary == DictionaryPolicy::two_hop ? v : 0);
}

std::size_t Codebook::node_candidate_count(NodeId v) const {
    return candidate_entries(v).size() - 1 - params_.decoy_count;
}

std::shared_ptr<const Codebook::Round> Codebook::round(
    const std::vector<std::optional<Bitstring>>& messages, std::uint64_t nonce,
    ThreadPool* pool) const {
    std::shared_ptr<const Round> prev;
    std::shared_ptr<Round> recycled;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (cached_ != nullptr && cached_->nonce == nonce && cached_->messages == messages) {
            return cached_;
        }
        // A superseded round that only the cache still owns is taken out of
        // it and rebuilt in place: it already has this codebook's shape, so
        // the rebuild reuses every slot's storage instead of allocating a
        // new round and freeing the old one. The ownership test cannot go
        // stale while mutex_ is held: every new reference to a round is a
        // copy of cached_ taken under mutex_ (a hit above, `prev` below), so
        // no second owner can appear.
        // Same-nonce rounds stay donors instead.
        if (cached_ != nullptr && cached_->nonce != nonce && sole_owner(cached_)) {
            recycled = std::const_pointer_cast<Round>(std::move(cached_));
        } else {
            prev = cached_;
        }
    }
    // A same-nonce previous round is a donor: the rebuild copies everything
    // the message edit did not touch.
    std::shared_ptr<const Round> donor;
    if (prev != nullptr && prev->nonce == nonce) {
        donor = std::move(prev);
    }
    // Build outside the lock: rebuilds are the expensive path and concurrent
    // callers with distinct keys must not serialize on each other. A build
    // that throws drops `recycled` with it, so no half-written round stays
    // reachable.
    const bool recycling = recycled != nullptr;
    BuildTally tally;
    std::shared_ptr<const Round> fresh =
        build_round(messages, nonce, std::move(donor), tally, pool, std::move(recycled));
    // A superseded round that was not recycled is swapped out under the
    // lock but released after it: freeing a large round's per-node vectors
    // takes milliseconds, and concurrent cache hits must not wait on that.
    std::shared_ptr<const Round> superseded = fresh;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        cached_.swap(superseded);
        ++stats_.round_builds;
        stats_.round_recycles += recycling ? 1 : 0;
        stats_.codeword_builds += tally.codewords_generated;
        stats_.payload_encodes += tally.encodes_generated;
        stats_.codeword_reuses += tally.codewords_reused;
        stats_.payload_encode_reuses += tally.encodes_reused;
    }
    return fresh;
}

std::shared_ptr<Codebook::Round> Codebook::build_round(
    const std::vector<std::optional<Bitstring>>& messages, std::uint64_t nonce,
    std::shared_ptr<const Round> donor_round, BuildTally& tally, ThreadPool* pool,
    std::shared_ptr<Round> round) const {
    const std::size_t n = graph_.node_count();
    require(messages.size() == n, "Codebook: one message slot per node");

    // Donor contract (round() guarantees it): a round of this codebook under
    // the same nonce. Everything copied below is a pure function of the
    // seeds, the nonce and the entry id — or of that entry's unchanged
    // message — so each copy equals the value a fresh derivation would
    // produce, bit for bit.
    const Round* donor = donor_round.get();
    const auto donor_message_equal = [&](std::size_t v) {
        return donor != nullptr && messages[v] == donor->messages[v];
    };

    // `round` is null (build a new one) or a superseded round of this
    // codebook being recycled: same graph, so every vector already has its
    // final size. Every field below is assigned, never accumulated into, and
    // every per-slot write goes through an _into form or a copy-assignment
    // that reuses the slot's storage, so a recycled round ends up equal to a
    // new one and a warm rebuild allocates next to nothing.
    if (round == nullptr) {
        round = std::make_shared<Round>();
    }
    round->nonce = nonce;
    round->rng = Rng(params_.transport_seed).derive(0x726f756eu, nonce);

    const std::size_t payload_bits = params_.payload_bits();
    const std::size_t decoys = params_.decoy_count;
    const BeepCode& beep = beep_code();
    const DistanceCode& distance = distance_code();

    // The per-node loops below run over node blocks on the pool. Every slot
    // is sized up front and written by exactly one index, and every value is
    // a pure function of (seed, nonce, node id, message) — never of which
    // worker ran it — so the round is bit-identical for any pool size.
    // Counters are tallied serially, in index order.

    // Phase-2 candidate dictionary over the entry space: the node payloads
    // (filled below), the null payload, then the decoy payloads.
    const std::size_t entry_count = n + 1 + decoys;
    round->candidate_messages.resize(entry_count);
    round->candidate_messages[n].reset(payload_bits);  // the null payload

    // Decoys: inputs and payloads drawn independently of everything heard —
    // a function of the nonce alone, so any donor serves them whole. A
    // handful of entries: built serially, before the per-node fan-out.
    if (donor != nullptr) {
        round->decoy_inputs = donor->decoy_inputs;
        round->decoy_codewords = donor->decoy_codewords;
        round->decoy_one_positions = donor->decoy_one_positions;
        for (std::size_t i = 0; i < decoys; ++i) {
            round->candidate_messages[n + 1 + i] = donor->candidate_messages[n + 1 + i];
        }
        tally.codewords_reused += decoys;
    } else {
        round->decoy_inputs.resize(decoys);
        round->decoy_codewords.resize(decoys);
        round->decoy_one_positions.resize(decoys);
        for (std::size_t i = 0; i < decoys; ++i) {
            Rng decoy_rng = round->rng.derive(0x6465636fu, i);
            round->decoy_inputs[i] = decoy_rng.next_u64();
            Bitstring::random_into(decoy_rng, payload_bits, round->candidate_messages[n + 1 + i]);
            beep.codeword_into(round->decoy_inputs[i], round->decoy_codewords[i],
                               round->decoy_one_positions[i]);
        }
        tally.codewords_generated += decoys;
    }

    // Per node: the cache key, the payload, the fresh input r_v and the
    // codeword C(r_v) with its 1-positions (functions of (nonce, id), so a
    // same-nonce donor serves every node).
    round->messages.resize(n);
    round->payloads.resize(n);
    round->inputs.resize(n);
    round->codewords.resize(n);
    round->one_positions.resize(n);
    for_node_blocks(pool, n, [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
            round->messages[v] = messages[v];
            if (donor_message_equal(v)) {
                round->payloads[v] = donor->payloads[v];
            } else {
                make_payload_into(messages[v], params_.message_bits, round->payloads[v]);
            }
            if (donor != nullptr) {
                round->inputs[v] = donor->inputs[v];
                round->codewords[v] = donor->codewords[v];
                round->one_positions[v] = donor->one_positions[v];
            } else {
                round->inputs[v] = round->rng.derive(0x7069636bu, v).next_u64();
                beep.codeword_into(round->inputs[v], round->codewords[v],
                                   round->one_positions[v]);
            }
        }
    });
    if (donor != nullptr) {
        tally.codewords_reused += n;
    } else {
        tally.codewords_generated += n;
    }

    // Encode the dictionary once. Donor entries: a node entry is reusable
    // iff its message is unchanged; the null + decoy tail block is
    // message-independent.
    const auto donor_entry = [&](std::size_t e) {
        return e < n ? donor_message_equal(e) : donor != nullptr;
    };
    std::size_t regenerated = 0;
    for (std::size_t e = 0; e < entry_count; ++e) {
        regenerated += donor_entry(e) ? 0 : 1;
    }
    tally.encodes_generated += regenerated;
    tally.encodes_reused += entry_count - regenerated;
    round->candidate_encoded.resize(entry_count);
    round->candidate_tails.resize(entry_count);
    for_node_blocks(pool, entry_count, [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t e = begin; e < end; ++e) {
            if (e < n) {
                round->candidate_messages[e] = round->payloads[e];
            }
            if (donor_entry(e)) {
                round->candidate_encoded[e] = donor->candidate_encoded[e];
                round->candidate_tails[e] = donor->candidate_tails[e];
            } else {
                const Bitstring& candidate = round->candidate_messages[e];
                distance.encode_into(candidate, round->candidate_encoded[e]);
                candidate.tail_into(1, round->candidate_tails[e]);
            }
        }
    });

    // Bitsliced phase-1 matrix: only the all_nodes policy scans
    // dictionaries large enough to amortize it (see the header comment on
    // Round), and only from bitslice_min_candidates candidates up — below
    // the crossover the transport's scalar early-exit loop wins and the
    // transpose would be waste.
    if (bitsliced_rounds()) {
        if (donor != nullptr && !donor->codeword_slices.empty()) {
            // Same entry space, same nonce: the codeword planes are
            // bit-identical (copies share the scratch-bias epoch), and the
            // SoA dictionary needs only the regenerated columns patched in
            // place instead of a full re-transposition.
            round->codeword_slices = donor->codeword_slices;
            round->candidate_encoded_soa = donor->candidate_encoded_soa;
            for (std::size_t e = 0; e < entry_count; ++e) {
                if (!donor_entry(e)) {
                    round->candidate_encoded_soa.set_column(e, round->candidate_encoded[e]);
                }
            }
        } else {
            round->codeword_slices.build(round->codewords, round->decoy_codewords);
            // The phase-2 dictionary transposed word-major for the
            // vectorized full-sweep scan, gated with the bitslice matrix:
            // both pay off exactly when every node scans the whole entry
            // space (DistanceCode::nearest_entry_soa).
            round->candidate_encoded_soa.build(round->candidate_encoded);
        }
    } else {
        round->codeword_slices = BitsliceMatrix();
        round->candidate_encoded_soa = WordSoa();
    }
    // Phase-2 decode radii (DESIGN.md section 5): each entry's gap over
    // the entries it shares a dictionary row with. The payload block
    // (entries 0..n folded over each other) depends only on the payloads
    // and comes from node_gaps_; a round folds in only the decoys, which
    // share every row, in one pass over the entry space: each entry meets
    // every decoy once, and the pair bounds both — the payload entry's gap
    // directly, the decoy's through its slot for the entry's block in
    // decoy_gap_blocks, reduced after (a min, so the order is immaterial),
    // since a handful of decoy rows would otherwise serialize on one
    // worker. Every slot has one writer.
    pack_payloads(round->payloads, params_.payload_bits(), round->payload_key);
    round->payload_gaps = payload_gaps(*round, pool);
    const std::span<const Bitstring> entry_messages(round->candidate_messages);
    const std::span<const Bitstring> entry_encoded(round->candidate_encoded);
    round->decode_gaps.resize(entry_count);
    round->decoy_gap_blocks.resize((entry_count + kBuildBlock - 1) / kBuildBlock * decoys);
    for_node_blocks(pool, entry_count, [&](std::size_t, std::size_t begin, std::size_t end) {
        const std::span<std::uint32_t> decoy_slots(
            round->decoy_gap_blocks.data() + begin / kBuildBlock * decoys, decoys);
        std::ranges::fill(decoy_slots, distance.open_gap());
        for (std::size_t e = begin; e < end; ++e) {
            std::uint32_t gap = distance.open_gap();
            for (std::size_t k = 0; k < decoys; ++k) {
                const auto decoy = static_cast<std::uint32_t>(n + 1 + k);
                if (decoy != e) {
                    const std::uint32_t pair = distance.pair_gap(
                        entry_messages, entry_encoded, static_cast<std::uint32_t>(e), decoy);
                    gap = std::min(gap, pair);
                    decoy_slots[k] = std::min(decoy_slots[k], pair);
                }
            }
            if (e <= n) {
                round->decode_gaps[e] = gap;
            }
        }
    });
    for (std::size_t k = 0; k < decoys; ++k) {
        std::uint32_t gap = distance.open_gap();
        for (std::size_t b = k; b < round->decoy_gap_blocks.size(); b += decoys) {
            gap = std::min(gap, round->decoy_gap_blocks[b]);
        }
        round->decode_gaps[n + 1 + k] = gap;
    }

    // Fault-free phase-2 schedules CD(r_v, payload_v): D(payload_v) is
    // already in the dictionary, so only the scatter remains — and a donor
    // node with an unchanged message already scattered the identical pair.
    round->combined_schedules.resize(n);
    for_node_blocks(pool, n, [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
            if (donor_message_equal(v)) {
                round->combined_schedules[v] = donor->combined_schedules[v];
            } else {
                Bitstring::scatter_into(beep.length(), round->one_positions[v],
                                        round->candidate_encoded[v],
                                        round->combined_schedules[v]);
            }
        }
    });
    round->phase2_beeps = 0;
    for (std::size_t v = 0; v < n; ++v) {
        round->phase2_beeps += round->combined_schedules[v].count();
    }
    round->phase1_beeps = n * beep.weight();
    return round;
}

std::shared_ptr<const std::vector<std::uint32_t>> Codebook::payload_gaps(
    const Round& round, ThreadPool* pool) const {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = std::ranges::find(node_gaps_, round.payload_key, &NodeGapCache::key);
        if (it == node_gaps_.end()) {
            node_gaps_.push_front({round.payload_key, nullptr});
            while (node_gaps_.size() > node_gap_capacity()) {
                node_gaps_.pop_back();
            }
            return nullptr;
        }
        node_gaps_.splice(node_gaps_.begin(), node_gaps_, it);
        if (it->gaps != nullptr) {
            return it->gaps;
        }
    }
    // The key's second round: build the block. Each payload entry's
    // co-occurrence set: under all_nodes the one row holds every entry;
    // under two_hop node u's set comes from the row walk (O(sum of the row
    // sizes in u's row) per node), and the null entry, in every row, meets
    // every payload.
    const std::size_t n = graph_.node_count();
    const DistanceCode& distance = distance_code();
    const std::span<const Bitstring> entry_messages(round.candidate_messages);
    const std::span<const Bitstring> entry_encoded(round.candidate_encoded);
    const auto payload_block =
        std::views::iota(std::uint32_t{0}, static_cast<std::uint32_t>(n + 1));
    const bool walk_rows = params_.dictionary == DictionaryPolicy::two_hop;
    auto fresh = std::make_shared<std::vector<std::uint32_t>>(n + 1);
    std::vector<CoOccurrenceWalk> walks(pool != nullptr ? pool->worker_count() : 1);
    for_node_blocks(pool, n + 1, [&](std::size_t worker, std::size_t begin, std::size_t end) {
        for (std::size_t e = begin; e < end; ++e) {
            const auto entry = static_cast<std::uint32_t>(e);
            (*fresh)[e] =
                walk_rows && e < n
                    ? distance.fold_decode_gap(entry_messages, entry_encoded, entry,
                                               co_occurring_payloads(*this, entry, walks[worker]),
                                               distance.open_gap())
                    : distance.fold_decode_gap(entry_messages, entry_encoded, entry,
                                               payload_block, distance.open_gap());
        }
    });
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.gap_builds;
    // Re-find under the insertion lock: the entry may have been evicted, or
    // a concurrent same-key round may have raced the build (keep one block).
    const auto it = std::ranges::find(node_gaps_, round.payload_key, &NodeGapCache::key);
    if (it == node_gaps_.end()) {
        node_gaps_.push_front({round.payload_key, fresh});
        while (node_gaps_.size() > node_gap_capacity()) {
            node_gaps_.pop_back();
        }
        return fresh;
    }
    if (it->gaps == nullptr) {
        it->gaps = fresh;
    }
    return it->gaps;
}

std::size_t Codebook::node_gap_capacity() {
    // 2x hardware concurrency covers moderate worker oversubscription (the
    // sweep worker count is user-set, not capped at the core count); the
    // floor of 64 makes even heavy oversubscription cheap, since an entry
    // is n * (payload_bits / 8 + 4) bytes, while a job whose key is evicted
    // between its rounds never gets its block.
    const std::size_t hardware = std::thread::hardware_concurrency();
    return std::max<std::size_t>(64, 2 * hardware);
}

std::uint64_t Codebook::fingerprint() const {
    std::uint64_t h = 0x66696e6765727072ULL;
    auto mix = [&h](std::uint64_t value) { h = mix64(h ^ value); };
    mix(graph_.node_count());
    mix(beep_length());
    mix(beep_code().weight());
    mix(distance_code().length());
    mix(params_.message_bits);
    mix(params_.decoy_count);
    mix(params_.transport_seed);
    mix(params_.bitslice_min_candidates);
    mix(static_cast<std::uint64_t>(params_.dictionary));
    for (NodeId v = 0; v < graph_.node_count(); ++v) {
        const auto entries = candidate_entries(v);
        mix(entries.size());
        for (const auto e : entries) {
            mix(e);
        }
    }
    // Code content probes: codewords and encodings are pure functions of the
    // code seeds, so a few sampled inputs pin the codes bit for bit.
    for (std::uint64_t i = 0; i < 8; ++i) {
        const auto [codeword, positions] = beep_code().codeword_and_positions(mix64(i));
        mix(codeword.hash());
        mix(positions.size());
    }
    Rng probe(0x70726f6265u);
    for (int i = 0; i < 4; ++i) {
        mix(distance_code().encode(Bitstring::random(probe, params_.payload_bits())).hash());
    }
    return h;
}

Codebook::Stats Codebook::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

}  // namespace nb
