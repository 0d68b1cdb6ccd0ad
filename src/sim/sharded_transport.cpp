#include "sim/sharded_transport.h"

#include <algorithm>
#include <cstring>

#include "beep/batch_engine.h"
#include "common/cancel.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "sim/decode_core.h"

namespace nb {

// Armed by the resilience tests and NB_FAILPOINTS: fires on the coordinator
// thread once per round, between the shards' boundary publishes and their
// imports — the seam where a real distributed implementation would hit the
// network. The sweep engine classifies the injected fault as transient and
// retries the whole scenario (DESIGN.md section 9).
NB_FAILPOINT_DEFINE(fp_shard_exchange, "shard.exchange");

namespace {

using transport_detail::DecodeContext;
using transport_detail::NodeDiagnostics;
using transport_detail::NodeState;
using transport_detail::build_node_states_into;

/// Per-shard per-round scratch, reused across rounds and batches (lives in
/// the batch's Scratch::extension, so it reaches steady-state size once).
struct ShardRoundScratch {
    std::vector<std::optional<Bitstring>> messages;  ///< local slice, closure order
    std::shared_ptr<const Codebook::Round> round;
    // The complete local fault-free dictionary: owned slots copied from the
    // round, halo slots imported from the boundary table.
    std::vector<Bitstring> codewords;
    std::vector<std::vector<std::size_t>> one_positions;
    std::vector<Bitstring> phase2;
    std::vector<Bitstring> faulty_phase1;
    std::vector<Bitstring> faulty_phase2;
    std::vector<NodeState> states;
    std::vector<NodeDiagnostics> diagnostics;
    std::size_t total_beeps = 0;  ///< owned nodes only
};

/// The boundary table plus every shard's scratch. One writer per table row
/// (the owning shard's stage-A task); readers only start after the exchange
/// barrier between stages, so no row is ever concurrently written and read.
struct ShardBatchScratch {
    std::vector<std::uint64_t> table;
    std::vector<ShardRoundScratch> shards;
};

/// Local index of global id `g` in the sorted closure, or ln if absent.
std::size_t local_index_of(const std::vector<std::uint32_t>& local_to_global, NodeId g) {
    const auto it =
        std::lower_bound(local_to_global.begin(), local_to_global.end(), g);
    if (it != local_to_global.end() && *it == g) {
        return static_cast<std::size_t>(it - local_to_global.begin());
    }
    return local_to_global.size();
}

}  // namespace

ShardedTransport::ShardedTransport(const Graph& graph, SimulationParams params,
                                   std::size_t shard_count)
    : graph_(graph), params_(params) {
    params_.validate();
    if (params_.dictionary != DictionaryPolicy::two_hop) {
        // all_nodes decoders scan every node's input, so no shard closure is
        // self-contained; the unsharded transport is the correct engine.
        fallback_ = std::make_unique<BeepTransport>(graph_, params_);
        return;
    }
    plan_ = make_shard_plan(graph_, shard_count);
    const std::size_t k = plan_.shard_count();
    const std::uint64_t delta = graph_.max_degree();
    shards_.resize(k);
    for (std::size_t s = 0; s < k; ++s) {
        const ShardPlan::Shard& sh = plan_.shards[s];
        Codebook::ShardView view;
        view.global_ids = sh.local_to_global;
        view.owned_begin = sh.owned_begin;
        view.owned_count = sh.owned_count;
        view.global_node_count = graph_.node_count();
        view.global_max_degree = delta;
        if (params_.shared_codebook) {
            shards_[s].shared = CodebookCache::instance().acquire(sh.local, params_, view);
            shards_[s].codebook = &shards_[s].shared->codebook();
        } else {
            shards_[s].owned =
                std::make_unique<Codebook>(sh.local, params_, std::move(view));
            shards_[s].codebook = shards_[s].owned.get();
        }
    }
    beep_length_ = shards_.front().codebook->beep_length();
    words_per_schedule_ = (beep_length_ + 63) / 64;
    row_offset_words_.resize(k);
    std::size_t offset = 0;
    for (std::size_t s = 0; s < k; ++s) {
        row_offset_words_[s] = offset;
        offset += plan_.shards[s].exports.size() * 2 * words_per_schedule_;
    }
    table_words_ = offset;
    pool_ = std::make_unique<ThreadPool>(ThreadPool::worker_count_for(params_.threads, k));
}

std::size_t ShardedTransport::rounds_per_broadcast_round() const {
    if (fallback_ != nullptr) {
        return fallback_->rounds_per_broadcast_round();
    }
    return params_.rounds_per_broadcast_round(graph_.max_degree());
}

TransportRound ShardedTransport::simulate_round(
    const std::vector<std::optional<Bitstring>>& messages, std::uint64_t round_nonce,
    const FaultModel& faults) const {
    const RoundSpec spec{&messages, round_nonce, &faults};
    return std::move(simulate_rounds({&spec, 1}).front());
}

std::vector<TransportRound> ShardedTransport::simulate_rounds(
    std::span<const RoundSpec> specs) const {
    TransportBatch batch;
    simulate_rounds_into(specs, batch);
    std::vector<TransportRound> results;
    results.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        results.push_back(batch.to_round(i));
    }
    return results;
}

void ShardedTransport::simulate_rounds_into(std::span<const RoundSpec> specs,
                                            TransportBatch& batch) const {
    if (fallback_ != nullptr) {
        fallback_->simulate_rounds_into(specs, batch);
        return;
    }
    const std::size_t n = graph_.node_count();
    for (const auto& spec : specs) {
        require(spec.messages != nullptr, "ShardedTransport::simulate_rounds: null messages");
        require(spec.messages->size() == n, "ShardedTransport: one message slot per node");
    }

    batch.prepare(specs.size(), n, params_.message_bits, pool_->worker_count());
    if (specs.empty()) {
        return;
    }
    for (const auto& spec : specs) {
        if (spec.faults != nullptr) {
            // Fail fast on bad fault ids before any decoding starts — same
            // global validation (and error text) as the unsharded transport.
            build_node_states_into(batch.scratch_->states, n, *spec.faults);
        }
    }
    decode_rounds(specs, batch);
}

void ShardedTransport::decode_rounds(std::span<const RoundSpec> specs,
                                     TransportBatch& batch) const {
    TransportBatch::Scratch& scratch = *batch.scratch_;
    const std::size_t k = plan_.shard_count();

    auto ext = std::static_pointer_cast<ShardBatchScratch>(scratch.extension);
    if (ext == nullptr || ext->shards.size() != k) {
        ext = std::make_shared<ShardBatchScratch>();
        ext->shards.resize(k);
        scratch.extension = ext;
    }
    ext->table.resize(table_words_);

    const std::size_t b = beep_length_;
    const std::size_t wb = words_per_schedule_;
    static const FaultModel no_faults{};
    // Resolved once per batch: what params_.simd_kernel actually runs as.
    const simd::Kernel kernel = simd::resolve_kernel(params_.simd_kernel);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        // Round boundary: cancellation (sweep watchdogs) unwinds here, same
        // as the unsharded transport.
        cancel_poll();
        const RoundSpec& spec = specs[i];
        const FaultModel& faults = spec.faults != nullptr ? *spec.faults : no_faults;

        // Stage A — per shard, on the pool: slice this round's messages to
        // the closure, build (or fetch) the shard round, and publish the
        // export rows. Each row has exactly one writer: the owning shard.
        pool_->parallel_for(k, [&](std::size_t, std::size_t s) {
            const ShardPlan::Shard& sh = plan_.shards[s];
            ShardRoundScratch& sr = ext->shards[s];
            const std::size_t ln = sh.local_to_global.size();
            sr.messages.resize(ln);
            for (std::size_t li = 0; li < ln; ++li) {
                sr.messages[li] = (*spec.messages)[sh.local_to_global[li]];
            }
            sr.round = shards_[s].codebook->round(sr.messages, spec.nonce);
            std::uint64_t* row = ext->table.data() + row_offset_words_[s];
            for (const auto e : sh.exports) {
                const std::vector<std::uint64_t>& cw = sr.round->codewords[e].words();
                const std::vector<std::uint64_t>& cs =
                    sr.round->combined_schedules[e].words();
                std::memcpy(row, cw.data(), wb * sizeof(std::uint64_t));
                std::memcpy(row + wb, cs.data(), wb * sizeof(std::uint64_t));
                row += 2 * wb;
            }
        });

        // The exchange seam: in a distributed deployment this is where the
        // boundary table crosses the network. Checked once per round on the
        // coordinator, so injected faults hit deterministically regardless
        // of shard and worker counts.
        fp_shard_exchange.check();

        // Stage B — per shard, on the pool: import halo rows, apply fault
        // overrides, and decode the owned nodes with the shared per-node
        // pipeline (decode_core.h).
        pool_->parallel_for(k, [&](std::size_t worker, std::size_t s) {
            const ShardPlan::Shard& sh = plan_.shards[s];
            ShardRoundScratch& sr = ext->shards[s];
            const Codebook& codebook = *shards_[s].codebook;
            const Codebook::Round& round = *sr.round;
            const std::size_t ln = sh.local_to_global.size();
            const std::uint32_t owned_end = sh.owned_begin + sh.owned_count;

            sr.codewords.resize(ln);
            sr.one_positions.resize(ln);
            sr.phase2.resize(ln);
            for (std::uint32_t v = sh.owned_begin; v < owned_end; ++v) {
                sr.codewords[v] = round.codewords[v];
                sr.one_positions[v] = round.one_positions[v];
                sr.phase2[v] = round.combined_schedules[v];
            }
            for (const ShardPlan::Import& imp : sh.imports) {
                const std::uint64_t* row = ext->table.data() +
                                           row_offset_words_[imp.src_shard] +
                                           static_cast<std::size_t>(imp.src_row) * 2 * wb;
                sr.codewords[imp.local] = Bitstring::from_words({row, wb}, b);
                sr.phase2[imp.local] = Bitstring::from_words({row + wb, wb}, b);
                sr.one_positions[imp.local] = sr.codewords[imp.local].one_positions();
            }

            // Per-local fault states from the global lists (already
            // validated); most shards see none of the faulty ids.
            sr.states.assign(ln, NodeState::correct);
            for (const auto g : faults.jammers) {
                const std::size_t l = local_index_of(sh.local_to_global, g);
                if (l < ln) {
                    sr.states[l] = NodeState::jammer;
                }
            }
            for (const auto g : faults.crashed) {
                const std::size_t l = local_index_of(sh.local_to_global, g);
                if (l < ln) {
                    sr.states[l] = NodeState::crashed;
                }
            }

            const std::vector<Bitstring>* phase1_schedules = &sr.codewords;
            const std::vector<Bitstring>* phase2_schedules = &sr.phase2;
            if (!faults.empty()) {
                sr.faulty_phase1 = sr.codewords;
                sr.faulty_phase2 = sr.phase2;
                for (std::size_t v = 0; v < ln; ++v) {
                    if (sr.states[v] == NodeState::jammer) {
                        sr.faulty_phase1[v] = ~Bitstring(b);
                        sr.faulty_phase2[v] = ~Bitstring(b);
                    } else if (sr.states[v] == NodeState::crashed) {
                        sr.faulty_phase1[v] = Bitstring(b);
                        sr.faulty_phase2[v] = Bitstring(b);
                    }
                }
                phase1_schedules = &sr.faulty_phase1;
                phase2_schedules = &sr.faulty_phase2;
            }

            // Engines on the local closure graph, noise keyed by global id,
            // streams derived from the same round rng every shard (and the
            // unsharded transport) derives — per-node noise is therefore
            // independent of the partition.
            const BatchParams channel{params_.channel_model(), false};
            const std::span<const std::uint32_t> ids(sh.local_to_global);
            const BatchEngine phase1_engine(sh.local, channel,
                                            round.rng.derive(0x70683161u), ids);
            const BatchEngine phase2_engine(sh.local, channel,
                                            round.rng.derive(0x70683262u), ids);
            phase1_engine.check_schedules(*phase1_schedules);
            phase2_engine.check_schedules(*phase2_schedules);

            const Phase1Decoder phase1_decoder(codebook.beep_code(), params_.epsilon);
            sr.diagnostics.assign(ln, NodeDiagnostics{});

            DecodeContext ctx;
            ctx.graph = &sh.local;
            ctx.codebook = &codebook;
            ctx.round = &round;
            ctx.codewords = &sr.codewords;
            ctx.one_positions = &sr.one_positions;
            ctx.messages = &sr.messages;
            ctx.phase1_schedules = phase1_schedules;
            ctx.phase2_schedules = phase2_schedules;
            ctx.phase1_engine = &phase1_engine;
            ctx.phase2_engine = &phase2_engine;
            ctx.phase1_decoder = &phase1_decoder;
            ctx.distance_code = &codebook.distance_code();
            ctx.batch = &batch;
            ctx.workspaces = &scratch.workspaces;
            ctx.states = &sr.states;
            ctx.diagnostics = &sr.diagnostics;
            ctx.local_to_global = sh.local_to_global.data();
            ctx.round_index = i;
            ctx.n = ln;
            ctx.decoy_count = codebook.decoy_count();
            ctx.bitsliced = !round.codeword_slices.empty();  // two_hop: never
            ctx.kernel = kernel;

            for (std::uint32_t v = sh.owned_begin; v < owned_end; ++v) {
                transport_detail::decode_node(ctx, worker, static_cast<NodeId>(v));
            }

            // Owned-only energy so the cross-shard sum counts every global
            // node exactly once.
            if (faults.empty()) {
                sr.total_beeps = round.phase1_beeps + round.phase2_beeps;
            } else {
                sr.total_beeps = 0;
                for (std::uint32_t v = sh.owned_begin; v < owned_end; ++v) {
                    if (sr.states[v] == NodeState::jammer) {
                        sr.total_beeps += 2 * b;
                    } else if (sr.states[v] == NodeState::correct) {
                        sr.total_beeps += round.codewords[v].count() +
                                          round.combined_schedules[v].count();
                    }
                }
            }
        });

        // Deterministic reduction: shard order, then local order — totals
        // are independent of thread schedule, shard count, and worker count.
        TransportRoundStats& stats = batch.stats_[i];
        stats.beep_rounds = 2 * b;
        for (std::size_t s = 0; s < k; ++s) {
            const ShardRoundScratch& sr = ext->shards[s];
            stats.total_beeps += sr.total_beeps;
            for (const auto& diag : sr.diagnostics) {
                stats.phase1_false_negatives += diag.phase1_false_negatives;
                stats.phase1_false_positives += diag.phase1_false_positives;
                stats.phase2_errors += diag.phase2_errors;
                stats.delivery_mismatches += diag.delivery_mismatches;
            }
        }
        stats.perfect = stats.delivery_mismatches == 0;
    }
}

}  // namespace nb
