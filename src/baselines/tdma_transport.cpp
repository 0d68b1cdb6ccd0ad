#include "baselines/tdma_transport.h"

#include <algorithm>
#include <cmath>

#include "beep/batch_engine.h"
#include "common/cancel.h"
#include "common/error.h"
#include "common/math_util.h"
#include "graph/algorithms.h"
#include "sim/codebook_cache.h"

namespace nb {

std::size_t TdmaParams::recommended_repetitions(std::size_t node_count, double epsilon) {
    if (epsilon <= 0.0) {
        return 1;
    }
    // Majority over rho repetitions fails with probability
    // exp(-rho * (1/2 - eps)^2 / 2); choose rho so this is ~ n^-3, and make
    // it odd so majorities are never tied.
    const double margin = 0.5 - epsilon;
    const double needed =
        6.0 * std::log(std::max<double>(4.0, static_cast<double>(node_count))) /
        (margin * margin);
    auto rho = static_cast<std::size_t>(std::ceil(needed));
    if (rho % 2 == 0) {
        ++rho;
    }
    return rho;
}

TdmaTransport::TdmaTransport(const Graph& graph, TdmaParams params)
    : graph_(graph), params_(params) {
    require(params_.epsilon >= 0.0 && params_.epsilon < 0.5,
            "TdmaTransport: epsilon must be in [0, 1/2)");
    require(params_.message_bits >= 1, "TdmaTransport: message_bits must be >= 1");
    require(params_.repetitions >= 1, "TdmaTransport: repetitions must be >= 1");
    if (params_.channel.has_value()) {
        params_.channel->validate();
        require(params_.channel->noise_on_own_beep,
                "TdmaTransport: transports require noise_on_own_beep");
    }
    colors_ = CodebookCache::instance().coloring(graph_);
    color_count_ = graph_.node_count() == 0 ? 0 : nb::color_count(colors_);
    noise_skip_ = make_noise_skip(params_.channel_model());
    pool_ = std::make_unique<ThreadPool>(
        ThreadPool::worker_count_for(params_.threads, graph_.node_count()));
}

std::size_t TdmaTransport::rounds_per_broadcast_round() const {
    // One slot of (message_bits + 1 presence bit) * repetitions per color.
    return color_count_ * (params_.message_bits + 1) * params_.repetitions;
}

std::shared_ptr<const TdmaTransport::ScheduleCache> TdmaTransport::schedules_for(
    const std::vector<std::optional<Bitstring>>& messages) const {
    {
        std::lock_guard<std::mutex> lock(cache_mutex_);
        if (cached_ != nullptr && cached_->messages == messages) {
            return cached_;
        }
    }

    const std::size_t n = graph_.node_count();
    const std::size_t payload_bits = params_.message_bits + 1;
    const std::size_t slot_bits = payload_bits * params_.repetitions;
    const std::size_t total_bits = rounds_per_broadcast_round();
    const std::size_t stride = (params_.message_bits + 63) / 64;

    // Build beep schedules: node v transmits its payload (presence bit, then
    // message bits), each bit repeated, inside its color's slot.
    auto cache = std::make_shared<ScheduleCache>();
    cache->schedules.reserve(n);
    cache->records.assign(n * stride, 0);
    for (NodeId v = 0; v < n; ++v) {
        Bitstring schedule(total_bits);
        if (messages[v].has_value()) {
            require(messages[v]->size() <= params_.message_bits,
                    "TdmaTransport: message exceeds the bit budget");
            const std::size_t base = colors_[v] * slot_bits;
            auto write_bit = [&](std::size_t bit_index, bool value) {
                if (value) {
                    for (std::size_t rep = 0; rep < params_.repetitions; ++rep) {
                        schedule.set(base + bit_index * params_.repetitions + rep);
                    }
                }
            };
            write_bit(0, true);  // presence
            for (std::size_t i = 0; i < messages[v]->size(); ++i) {
                write_bit(1 + i, messages[v]->test(i));
            }
            const std::vector<std::uint64_t>& words = messages[v]->words();
            std::copy(words.begin(), words.end(), cache->records.begin() + v * stride);
        }
        cache->schedules.push_back(std::move(schedule));
    }
    cache->total_beeps = BatchEngine::total_beeps(cache->schedules);
    cache->messages = messages;

    std::lock_guard<std::mutex> lock(cache_mutex_);
    cached_ = cache;
    return cache;
}

struct TdmaTransport::WorkerScratch {
    Bitstring heard;
    std::vector<std::uint64_t> sort_tmp;         ///< commit_node's record rotation
    std::vector<const std::uint64_t*> expected;  ///< ground-truth records, sorted
    std::size_t mismatches = 0;                  ///< this round's mismatched nodes
};

void TdmaTransport::simulate_rounds_into(std::span<const RoundSpec> specs,
                                         TransportBatch& batch) const {
    const std::size_t n = graph_.node_count();
    for (const auto& spec : specs) {
        require(spec.messages != nullptr, "TdmaTransport::simulate_rounds_into: null messages");
        require(spec.messages->size() == n, "TdmaTransport: one message slot per node");
        require(spec.faults == nullptr || spec.faults->empty(),
                "TdmaTransport: fault injection is not supported");
    }

    batch.prepare(specs.size(), n, params_.message_bits, pool_->worker_count());
    // Worker scratch is per batch: sized on the first round, reused by all.
    std::vector<WorkerScratch> workers(pool_->worker_count());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        cancel_poll();  // round boundary, same contract as BeepTransport
        const std::shared_ptr<const ScheduleCache> cache = schedules_for(*specs[i].messages);
        decode_round_into(*cache, specs[i], i, batch, workers);
    }
}

void TdmaTransport::decode_round_into(const ScheduleCache& cache, const RoundSpec& spec,
                                      std::size_t round_index, TransportBatch& batch,
                                      std::vector<WorkerScratch>& workers) const {
    const std::size_t n = graph_.node_count();
    const std::size_t payload_bits = params_.message_bits + 1;
    const std::size_t slot_bits = payload_bits * params_.repetitions;
    const std::size_t stride = batch.message_words();
    const std::vector<std::optional<Bitstring>>& messages = *spec.messages;

    const Rng round_rng = Rng(params_.transport_seed).derive(0x726f756eu, spec.nonce);
    const BatchParams channel{.channel = params_.channel_model(), .noise_skip = noise_skip_};
    const BatchEngine engine(graph_, channel, round_rng);
    engine.check_schedules(cache.schedules);  // once per round, not per node

    const std::size_t majority = params_.repetitions / 2 + 1;
    for (auto& ws : workers) {
        ws.mismatches = 0;
    }
    pool_->parallel_for(n, [&](std::size_t worker, std::size_t node) {
        const auto v = static_cast<NodeId>(node);
        WorkerScratch& ws = workers[worker];
        engine.hear_into(v, cache.schedules, ws.heard);
        // Decode one message per neighbor from that neighbor's color slot
        // (the setup coloring tells v when each neighbor transmits), straight
        // into a record of this worker's arena; the run is contiguous
        // because a worker decodes one node at a time.
        std::uint64_t run_start = 0;
        std::uint32_t run_count = 0;
        for (const auto u : graph_.neighbors(v)) {
            const std::size_t base = colors_[u] * slot_bits;
            auto read_bit = [&](std::size_t bit_index) {
                std::size_t ones = 0;
                for (std::size_t rep = 0; rep < params_.repetitions; ++rep) {
                    if (ws.heard.test(base + bit_index * params_.repetitions + rep)) {
                        ++ones;
                    }
                }
                return ones >= majority;
            };
            if (!read_bit(0)) {
                continue;  // no presence: neighbor was silent
            }
            const std::uint64_t offset = batch.push_record(worker);
            if (run_count == 0) {
                run_start = offset;
            }
            ++run_count;
            std::uint64_t* record = batch.record_at(worker, offset);
            std::fill_n(record, stride, 0);
            for (std::size_t i = 0; i < params_.message_bits; ++i) {
                if (read_bit(1 + i)) {
                    record[i / 64] |= std::uint64_t{1} << (i % 64);
                }
            }
        }
        batch.commit_node(round_index, v, worker, run_start, run_count, ws.sort_tmp);

        // Ground truth: every sending neighbor's zero-padded message,
        // compared word-by-word against the sorted delivered records.
        ws.expected.clear();
        for (const auto u : graph_.neighbors(v)) {
            if (messages[u].has_value()) {
                ws.expected.push_back(cache.records.data() + u * stride);
            }
        }
        std::sort(ws.expected.begin(), ws.expected.end(),
                  [stride](const std::uint64_t* a, const std::uint64_t* b) {
                      return record_less(a, b, stride);
                  });
        bool mismatch = ws.expected.size() != run_count;
        for (std::size_t i = 0; !mismatch && i < ws.expected.size(); ++i) {
            const std::span<const std::uint64_t> record =
                batch.delivered_words(round_index, v, i);
            mismatch = !std::equal(record.begin(), record.end(), ws.expected[i]);
        }
        ws.mismatches += mismatch ? 1 : 0;
    });

    TransportRoundStats& stats = batch.stats_[round_index];
    stats.beep_rounds = rounds_per_broadcast_round();
    stats.total_beeps = cache.total_beeps;
    for (const auto& ws : workers) {
        stats.delivery_mismatches += ws.mismatches;
    }
    stats.perfect = stats.delivery_mismatches == 0;
}

}  // namespace nb
