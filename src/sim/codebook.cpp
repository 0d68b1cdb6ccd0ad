#include "sim/codebook.h"

#include <algorithm>
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

/// body(begin, end) over [0, count) in kBuildBlock-sized blocks, on `pool`
/// (nullptr = inline, in block order).
template <typename Body>
void for_node_blocks(ThreadPool* pool, std::size_t count, const Body& body) {
    const std::size_t blocks = (count + kBuildBlock - 1) / kBuildBlock;
    const auto run = [&](std::size_t, std::size_t block) {
        const std::size_t begin = block * kBuildBlock;
        body(begin, std::min(count, begin + kBuildBlock));
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

std::shared_ptr<const CombinedCode> make_combined(const SimulationParams& params,
                                                  std::size_t max_degree) {
    return std::make_shared<const CombinedCode>(
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

std::uint64_t Codebook::ShardView::digest() const {
    std::uint64_t h = 0x73686172645f7677ULL;
    auto mix = [&h](std::uint64_t value) { h = mix64(h ^ value); };
    mix(global_node_count);
    mix(global_max_degree);
    mix(owned_begin);
    mix(owned_count);
    mix(global_ids.size());
    for (const auto id : global_ids) {
        mix(id);
    }
    return h;
}

bool Codebook::same_codebook_params(const SimulationParams& a, const SimulationParams& b) {
    return a.message_bits == b.message_bits && a.c_eps == b.c_eps &&
           a.code_seed == b.code_seed && a.transport_seed == b.transport_seed &&
           a.decoy_count == b.decoy_count &&
           a.bitslice_min_candidates == b.bitslice_min_candidates &&
           a.dictionary == b.dictionary;
}

Codebook::Codebook(const Graph& graph, const SimulationParams& params)
    : Codebook(graph, params, std::nullopt, nullptr) {}

Codebook::Codebook(const Graph& graph, const SimulationParams& params, ShardView view)
    : Codebook(graph, params, std::optional<ShardView>(std::move(view)), nullptr) {}

Codebook::Codebook(const Graph& graph, const SimulationParams& params,
                   std::shared_ptr<const CodebookFile> file)
    : Codebook(graph, params, std::nullopt, std::move(file)) {}

Codebook::Codebook(const Graph& graph, const SimulationParams& params, ShardView view,
                   std::shared_ptr<const CodebookFile> file)
    : Codebook(graph, params, std::optional<ShardView>(std::move(view)), std::move(file)) {}

Codebook::Codebook(const Graph& graph, const SimulationParams& params,
                   std::optional<ShardView> view, std::shared_ptr<const CodebookFile> file)
    : graph_(graph),
      params_(params),
      view_(std::move(view)),
      combined_(make_combined(params,
                              view_.has_value()
                                  ? static_cast<std::size_t>(view_->global_max_degree)
                                  : graph.max_degree())),
      file_(std::move(file)) {
    fp_codebook_build.check();
    params_.validate();
    if (view_.has_value()) {
        require(params_.dictionary == DictionaryPolicy::two_hop,
                "Codebook: shard views require the two_hop dictionary");
        require(view_->global_ids.size() == graph_.node_count(),
                "Codebook: shard view must map every local node");
        require(view_->owned_begin + view_->owned_count <= graph_.node_count(),
                "Codebook: shard view owned range out of bounds");
    }
    stats_.code_builds = 1;
    if (file_ != nullptr) {
        adopt_candidate_index();
    } else {
        build_candidate_index();
    }
}

Codebook::Codebook(const Graph& graph, const SimulationParams& params, const Codebook& base)
    : graph_(graph), params_(params) {
    fp_codebook_build.check();
    params_.validate();
    require(base.shard_view() == nullptr, "Codebook: delta builds require an unsharded base");
    require(same_codebook_params(params_, base.params_),
            "Codebook: delta builds require codebook-identical params "
            "(message_bits, c_eps, seeds, decoy_count, bitslice threshold, dictionary)");

    // The beep-code length depends on the max degree, not on n, so nearby
    // graph sizes share one code triple — and with it the base's cached
    // round as a same-nonce donor (every donor-copied value is derived from
    // the shared seeds, see build_round).
    if (params_.beep_code_length(graph_.max_degree()) == base.combined_->length()) {
        combined_ = base.combined_;
        std::lock_guard<std::mutex> lock(base.mutex_);
        donor_round_ = base.cached_;
    } else {
        combined_ = make_combined(params_, graph_.max_degree());
        stats_.code_builds = 1;
    }

    if (graph_.node_count() < base.graph_.node_count()) {
        // Shrinking renumbers the entry space under every surviving row
        // (tail ids shift down through the node block); model removal as
        // isolating the node instead to stay on the delta path.
        ++stats_.delta_full_rebuilds;
        build_candidate_index();
        return;
    }
    build_candidate_index_delta(base);
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

void Codebook::build_candidate_index_delta(const Codebook& base) {
    const std::size_t n = graph_.node_count();
    const std::size_t base_n = base.graph_.node_count();  // <= n on this path
    const std::vector<std::uint32_t> tail = make_tail(n, params_.decoy_count);

    if (params_.dictionary != DictionaryPolicy::two_hop) {
        // The shared all-nodes row is O(n) to begin with — rebuilding it IS
        // the delta.
        build_candidate_index();
        ++stats_.dictionary_rows_built;
        return;
    }

    // S: nodes whose own adjacency differs (appended nodes included). An
    // undirected edge edit changes both endpoints' neighbor lists, so S is
    // closed under edits; the rows that can see an edit through an unchanged
    // list are exactly S's neighbors on either side of it.
    std::vector<char> dirty(n, 0);
    std::vector<NodeId> changed;
    for (NodeId v = 0; v < n; ++v) {
        if (v >= base_n) {
            changed.push_back(v);
            dirty[v] = 1;
            continue;
        }
        const auto now = graph_.neighbors(v);
        const auto before = base.graph_.neighbors(v);
        if (now.size() != before.size() ||
            !std::equal(now.begin(), now.end(), before.begin())) {
            changed.push_back(v);
            dirty[v] = 1;
        }
    }
    for (const NodeId v : changed) {
        for (const auto u : graph_.neighbors(v)) {
            dirty[u] = 1;
        }
        if (v < base_n) {
            for (const auto u : base.graph_.neighbors(v)) {
                dirty[u] = 1;
            }
        }
    }

    // Clean rows: the two-hop set is unchanged, so copy the node-id prefix
    // verbatim and re-emit the tail (whose ids depend on n). Dirty rows are
    // recomputed from the new adjacency.
    const std::size_t tail_size = tail.size();  // equal params => equal base tail size
    owned_offsets_.clear();
    owned_entries_.clear();
    owned_offsets_.reserve(n + 1);
    owned_offsets_.push_back(0);
    for (NodeId v = 0; v < n; ++v) {
        if (dirty[v] == 0) {
            const auto row = base.candidate_row(v);
            const auto prefix = row.first(row.size() - tail_size);
            owned_entries_.insert(owned_entries_.end(), prefix.begin(), prefix.end());
            ++stats_.dictionary_rows_reused;
        } else {
            append_two_hop_set(graph_, v, owned_entries_);
            ++stats_.dictionary_rows_built;
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
    const std::uint64_t shard_digest = view_.has_value() ? view_->digest() : 0;
    require(header.shard_digest == shard_digest,
            "Codebook: codebook file shard view mismatch");
    const std::size_t max_degree = view_.has_value()
                                       ? static_cast<std::size_t>(view_->global_max_degree)
                                       : graph_.max_degree();
    require(header.max_degree == max_degree, "Codebook: codebook file max degree mismatch");
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
    const std::size_t beep_bytes = (combined_->length() + 7) / 8;
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
    if (params_.dictionary == DictionaryPolicy::all_nodes) {
        // Bitslice matrix (beep_length planes over n+decoys columns), the
        // word-major SoA mirror of candidate_encoded, and the decode gaps.
        bytes += combined_->length() * ((n + decoys + 63) / 64) * sizeof(std::uint64_t);
        bytes += entry_count * dist_bytes;
        bytes += entry_count * sizeof(std::uint32_t);
    }
    return bytes;
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
        // copy of cached_ taken under mutex_ (a hit above, `prev` below, a
        // delta build's donor capture), so no second owner can appear.
        // Same-nonce rounds stay donors instead.
        if (cached_ != nullptr && cached_->nonce != nonce && sole_owner(cached_)) {
            recycled = std::const_pointer_cast<Round>(std::move(cached_));
        } else {
            prev = cached_;
        }
    }
    // A same-nonce donor lets the rebuild copy everything the message edit
    // did not touch: the previous round of this codebook first, else the
    // delta base's round (captured only when the code geometry matches).
    std::shared_ptr<const Round> donor;
    if (prev != nullptr && prev->nonce == nonce) {
        donor = std::move(prev);
    } else if (donor_round_ != nullptr && donor_round_->nonce == nonce) {
        donor = donor_round_;
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

    // Donor contract (round() guarantees it): same transport_seed, nonce,
    // decoy params, and beep-code geometry. Everything copied below is a
    // pure function of those plus the entry id — or of that entry's
    // unchanged message — so each copy equals the value a fresh derivation
    // would produce, bit for bit. Entries past the donor's node count are
    // generated fresh.
    const Round* donor = donor_round.get();
    const std::size_t donor_n = donor != nullptr ? donor->inputs.size() : 0;
    const auto donor_message_equal = [&](std::size_t v) {
        return donor != nullptr && v < donor_n && messages[v] == donor->messages[v];
    };

    // `round` is null (build a new one) or a superseded round of this
    // codebook being recycled: same graph and view, so every vector already
    // has its final size. Every field below is assigned, never accumulated
    // into, and every per-slot write goes through an _into form or a
    // copy-assignment that reuses the slot's storage, so a recycled round
    // ends up equal to a new one and a warm rebuild allocates next to
    // nothing. (Halo slots of a shard view are written by no build, so they
    // stay empty either way.)
    if (round == nullptr) {
        round = std::make_shared<Round>();
    }
    round->nonce = nonce;
    round->rng = Rng(params_.transport_seed).derive(0x726f756eu, nonce);

    const std::size_t payload_bits = params_.payload_bits();
    const std::size_t decoys = params_.decoy_count;
    const BeepCode& beep = beep_code();
    const DistanceCode& distance = distance_code();

    // Sharded builds derive per-node state for the owned local range only
    // (halo slots stay empty; the transport imports them from the boundary
    // table), and always by *global* id — the derivation an unsharded build
    // would use for the same node. (A sharded round's donor is always the
    // previous round of the same codebook, so the ranges line up.)
    const std::size_t owned_lo = view_.has_value() ? view_->owned_begin : 0;
    const std::size_t owned_hi =
        view_.has_value() ? owned_lo + view_->owned_count : n;
    const auto global_id = [this](NodeId v) -> std::uint64_t {
        return view_.has_value() ? view_->global_ids[v] : v;
    };

    // The per-node loops below run over node blocks on the pool. Every slot
    // is sized up front and written by exactly one index, and every value is
    // a pure function of (seed, nonce, global id, message) — never of which
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
            round->candidate_messages[n + 1 + i] = donor->candidate_messages[donor_n + 1 + i];
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

    // Per node: the cache key, the payload, and — for owned nodes — the
    // fresh input r_v and the codeword C(r_v) with its 1-positions
    // (functions of (nonce, id), so a same-nonce donor serves every common
    // id).
    round->messages.resize(n);
    round->payloads.resize(n);
    round->inputs.resize(n);
    round->codewords.resize(n);
    round->one_positions.resize(n);
    for_node_blocks(pool, n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
            round->messages[v] = messages[v];
            if (donor_message_equal(v)) {
                round->payloads[v] = donor->payloads[v];
            } else {
                make_payload_into(messages[v], params_.message_bits, round->payloads[v]);
            }
            if (v < owned_lo || v >= owned_hi) {
                continue;
            }
            if (donor != nullptr && v < donor_n) {
                round->inputs[v] = donor->inputs[v];
                round->codewords[v] = donor->codewords[v];
                round->one_positions[v] = donor->one_positions[v];
            } else {
                round->inputs[v] =
                    round->rng.derive(0x7069636bu, global_id(static_cast<NodeId>(v)))
                        .next_u64();
                beep.codeword_into(round->inputs[v], round->codewords[v],
                                   round->one_positions[v]);
            }
        }
    });
    // The owned ids below donor_n were copied, the rest generated.
    const std::size_t owned_reused =
        std::min(owned_hi, std::max(owned_lo, donor_n)) - owned_lo;
    tally.codewords_reused += owned_reused;
    tally.codewords_generated += (owned_hi - owned_lo) - owned_reused;

    // Encode the dictionary once. Donor entries: a node entry is reusable
    // iff its message is unchanged; the null + decoy tail block is
    // message-independent and maps to the donor's tail block whatever its
    // node count.
    const auto donor_entry = [&](std::size_t e) -> std::ptrdiff_t {
        if (e < n) {
            return donor_message_equal(e) ? static_cast<std::ptrdiff_t>(e) : -1;
        }
        return donor != nullptr ? static_cast<std::ptrdiff_t>(donor_n + (e - n)) : -1;
    };
    std::size_t regenerated = 0;
    for (std::size_t e = 0; e < entry_count; ++e) {
        regenerated += donor_entry(e) < 0 ? 1 : 0;
    }
    tally.encodes_generated += regenerated;
    tally.encodes_reused += entry_count - regenerated;
    round->candidate_encoded.resize(entry_count);
    round->candidate_tails.resize(entry_count);
    for_node_blocks(pool, entry_count, [&](std::size_t begin, std::size_t end) {
        for (std::size_t e = begin; e < end; ++e) {
            if (e < n) {
                round->candidate_messages[e] = round->payloads[e];
            }
            const std::ptrdiff_t d = donor_entry(e);
            if (d >= 0) {
                round->candidate_encoded[e] =
                    donor->candidate_encoded[static_cast<std::size_t>(d)];
                round->candidate_tails[e] = donor->candidate_tails[static_cast<std::size_t>(d)];
            } else {
                const Bitstring& candidate = round->candidate_messages[e];
                distance.encode_into(candidate, round->candidate_encoded[e]);
                candidate.tail_into(1, round->candidate_tails[e]);
            }
        }
    });

    // Bitsliced phase-1 matrix and phase-2 decode radii: only the all_nodes
    // policy scans dictionaries large enough to amortize them (see the
    // header comment on Round). The matrix is built only from
    // bitslice_min_candidates candidates up — below the crossover the
    // transport's scalar early-exit loop wins and the transpose would be
    // waste. The O(n^2) node-payload gap block is messages-keyed in
    // node_gaps_, so a fixed-messages nonce sweep recomputes only the
    // decoy rows each round.
    const bool all_nodes = params_.dictionary == DictionaryPolicy::all_nodes;
    if (all_nodes && n + decoys >= params_.bitslice_min_candidates) {
        if (donor != nullptr && donor_n == n && !donor->codeword_slices.empty()) {
            // Same entry space, same nonce: the codeword planes are
            // bit-identical (copies share the scratch-bias epoch), and the
            // SoA dictionary needs only the regenerated columns patched in
            // place instead of a full re-transposition.
            round->codeword_slices = donor->codeword_slices;
            round->candidate_encoded_soa = donor->candidate_encoded_soa;
            for (std::size_t e = 0; e < entry_count; ++e) {
                if (donor_entry(e) < 0) {
                    round->candidate_encoded_soa.set_column(e, round->candidate_encoded[e]);
                }
            }
        } else {
            round->codeword_slices = BitsliceMatrix(round->codewords, round->decoy_codewords);
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
    if (all_nodes) {
        const std::span<const Bitstring> all_messages(round->candidate_messages);
        const std::span<const Bitstring> all_encoded(round->candidate_encoded);
        std::shared_ptr<const NodeGapCache> node_gaps;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (auto it = node_gaps_.begin(); it != node_gaps_.end(); ++it) {
                if ((*it)->messages == messages) {
                    node_gaps_.splice(node_gaps_.begin(), node_gaps_, it);
                    node_gaps = node_gaps_.front();
                    break;
                }
            }
        }
        if (node_gaps == nullptr) {
            auto fresh = std::make_shared<NodeGapCache>();
            fresh->messages = messages;
            fresh->gaps = distance.decode_gaps(all_messages.first(n + 1),
                                               all_encoded.first(n + 1));
            node_gaps = fresh;
            std::lock_guard<std::mutex> lock(mutex_);
            // Re-check under the insertion lock: a concurrent same-messages
            // miss may have raced the build; inserting a duplicate would
            // waste a slot and compound into thrash under capacity pressure.
            bool already_cached = false;
            for (const auto& entry : node_gaps_) {
                if (entry->messages == messages) {
                    already_cached = true;
                    break;
                }
            }
            if (!already_cached) {
                node_gaps_.push_front(std::move(fresh));
                while (node_gaps_.size() > node_gap_capacity()) {
                    node_gaps_.pop_back();
                }
            }
        }
        round->decode_gaps =
            distance.extend_decode_gaps(all_messages, all_encoded, node_gaps->gaps);
    } else {
        round->decode_gaps.clear();
    }

    // Fault-free phase-2 schedules CD(r_v, payload_v): D(payload_v) is
    // already in the dictionary, so only the scatter remains — and a donor
    // node with an unchanged message already scattered the identical pair.
    // Sharded energy totals count the owned nodes only — the transport sums
    // them across shards, each node counted by exactly its owner.
    round->combined_schedules.resize(n);
    for_node_blocks(pool, owned_hi - owned_lo, [&](std::size_t begin, std::size_t end) {
        for (std::size_t v = owned_lo + begin; v < owned_lo + end; ++v) {
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
    for (std::size_t v = owned_lo; v < owned_hi; ++v) {
        round->phase2_beeps += round->combined_schedules[v].count();
    }
    round->phase1_beeps = (owned_hi - owned_lo) * beep.weight();
    return round;
}

std::size_t Codebook::node_gap_capacity() {
    // 2x hardware concurrency covers moderate worker oversubscription (the
    // sweep worker count is user-set, not capped at the core count); the
    // floor of 64 makes even heavy oversubscription cheap, since an entry
    // is a few KB while a thrashed recompute is O(n^2) distance decodes
    // per round.
    const std::size_t hardware = std::thread::hardware_concurrency();
    return std::max<std::size_t>(64, 2 * hardware);
}

std::uint64_t Codebook::fingerprint() const {
    std::uint64_t h = 0x66696e6765727072ULL;
    auto mix = [&h](std::uint64_t value) { h = mix64(h ^ value); };
    if (view_.has_value()) {  // unsharded digests are unchanged by the view feature
        mix(0x73686172u);
        mix(view_->digest());
    }
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
