// Prior-work baseline: G^2-coloring TDMA simulation of Broadcast CONGEST.
//
// Mechanism of Beauquier et al. [7] and Ashkenazi-Gelles-Leshem [4]
// (paper Section 1.4): color G^2 so nodes within two hops differ, then
// iterate over color classes; when class c transmits, every listener has at
// most one beeping neighbor and hears its message bits verbatim. Against
// noise, each bit is repeated `repetitions` times and majority-decoded
// (repetitions = Theta(log n) gives per-bit error n^-Theta(1)).
//
// Per Broadcast CONGEST round this costs
//     #colors * (message_bits + 1) * repetitions
// beep rounds with #colors <= min{n, Delta^2 + 1} — the Theta(min{n,
// Delta^2}) overhead gap to Algorithm 1 that the paper eliminates.
//
// The coloring itself is computed centrally here, standing in for the
// baselines' distributed setup phases (Delta^6 rounds in [7], O(Delta^4
// log n) in [4]); setup costs are charged via baselines/cost_models.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "beep/channel_model.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "sim/transport.h"

namespace nb {

struct TdmaParams {
    double epsilon = 0.0;          ///< design noise rate (sizes repetitions)
    std::size_t message_bits = 16; ///< algorithm message budget B
    std::size_t repetitions = 1;   ///< per-bit repetitions (majority decode)
    std::uint64_t transport_seed = 0x74646d61u;
    std::size_t threads = 0;       ///< decode workers (0 = hardware concurrency)

    /// Physical channel process; nullopt = iid(epsilon), exactly as before.
    /// Like SimulationParams, a non-iid model leaves `epsilon` as the design
    /// rate the majority-decode repetitions are sized for.
    std::optional<ChannelModel> channel;

    /// Fetch the greedy G^2 coloring (this baseline's expensive setup) from
    /// the process-wide CodebookCache instead of recomputing per transport.
    /// The coloring is a pure function of the graph, so sharing cannot
    /// change any output; false restores the private computation.
    bool shared_coloring = true;

    /// The effective channel driven through BatchEngine.
    ChannelModel channel_model() const {
        return channel.has_value() ? *channel : ChannelModel::iid(epsilon);
    }

    /// Repetitions giving w.h.p. decoding for a given n and epsilon:
    /// ceil(kappa * log2 n) with kappa scaled by the noise margin.
    static std::size_t recommended_repetitions(std::size_t node_count, double epsilon);
};

class TdmaTransport final : public Transport {
public:
    /// The graph must outlive the transport. Computes the greedy G^2
    /// coloring once at construction.
    TdmaTransport(const Graph& graph, TdmaParams params);

    /// Batched rounds (specs must carry no FaultModel — the baseline does
    /// not model faults). Schedule packing is cached per messages vector;
    /// each majority-decoded message lands as a record in the decoding
    /// worker's batch arena, and hearing buffers are reused across the
    /// whole batch.
    void simulate_rounds_into(std::span<const RoundSpec> specs,
                              TransportBatch& batch) const override;

    std::size_t rounds_per_broadcast_round() const override;

    const Graph& graph() const noexcept override { return graph_; }

    std::size_t color_count() const noexcept { return color_count_; }
    /// The G^2 coloring the slot schedule is built from (one color per node).
    const std::vector<std::size_t>& colors() const noexcept { return colors_; }
    const TdmaParams& params() const noexcept { return params_; }

private:
    /// The baseline's analogue of the Codebook round cache: TDMA schedules
    /// depend only on the messages (slots are fixed by the coloring), so
    /// repeated rounds with unchanged messages reuse the packed schedules,
    /// their energy total and the ground-truth records.
    struct ScheduleCache {
        std::vector<Bitstring> schedules;
        std::size_t total_beeps = 0;
        /// Node v's message zero-padded to message_bits, as the batch record
        /// it should be delivered as (word-stride message_words; unused for
        /// silent nodes).
        std::vector<std::uint64_t> records;
        std::vector<std::optional<Bitstring>> messages;  ///< the cache key
    };

    /// One pool worker's hearing and ground-truth scratch (tdma_transport.cpp).
    struct WorkerScratch;

    std::shared_ptr<const ScheduleCache> schedules_for(
        const std::vector<std::optional<Bitstring>>& messages) const;

    void decode_round_into(const ScheduleCache& cache, const RoundSpec& spec,
                           std::size_t round_index, TransportBatch& batch,
                           std::vector<WorkerScratch>& workers) const;

    const Graph& graph_;
    TdmaParams params_;
    std::vector<std::size_t> colors_;
    std::size_t color_count_ = 0;
    /// The channel's exact gap sampler for the per-round engine; null
    /// unless the channel flips at one rate.
    std::shared_ptr<const GeometricSkip> noise_skip_;
    std::unique_ptr<ThreadPool> pool_;

    mutable std::mutex cache_mutex_;
    mutable std::shared_ptr<const ScheduleCache> cached_;
};

}  // namespace nb
