#include "beep/batch_engine.h"

#include "common/error.h"

namespace nb {

BatchEngine::BatchEngine(const Graph& graph, BatchParams params, Rng rng)
    : graph_(graph), params_(std::move(params)), rng_(rng) {
    params_.channel.validate();
    // The batch engine cannot exempt own-beep rounds from noise without
    // tracking them per bit; the paper's default convention (own beeps are
    // noisy too, footnote 2) is the only one supported here.
    require(params_.channel.noise_on_own_beep,
            "BatchEngine: only the paper convention (noise_on_own_beep) is supported");
    require(!params_.reserved, "BatchEngine: BatchParams::reserved must be false");
    if (params_.noise_skip == nullptr) {
        params_.noise_skip = make_noise_skip(params_.channel);
    }
}

Bitstring BatchEngine::superimpose(NodeId node, const std::vector<Bitstring>& schedules,
                                   bool include_own) const {
    Bitstring heard;
    superimpose_into(node, schedules, heard, include_own);
    return heard;
}

void BatchEngine::superimpose_into(NodeId node, const std::vector<Bitstring>& schedules,
                                   Bitstring& out, bool include_own) const {
    // O(1) validation only; callers batching many nodes over one schedule
    // set validate lengths once via check_schedules. A mismatched length
    // among the schedules this node actually ORs still throws below; a
    // mismatch elsewhere in the set is only caught by check_schedules.
    require(schedules.size() == graph_.node_count(),
            "BatchEngine: one schedule per node required");
    require(node < graph_.node_count(), "BatchEngine::superimpose: node out of range");
    out.reset(schedules.empty() ? 0 : schedules.front().size());
    if (include_own) {
        out |= schedules[node];
    }
    for (const auto u : graph_.neighbors(node)) {
        out |= schedules[u];
    }
}

Bitstring BatchEngine::hear(NodeId node, const std::vector<Bitstring>& schedules) const {
    Bitstring heard;
    hear_into(node, schedules, heard);
    return heard;
}

void BatchEngine::hear_into(NodeId node, const std::vector<Bitstring>& schedules,
                            Bitstring& out) const {
    superimpose_into(node, schedules, out, /*include_own=*/true);
    if (!params_.channel.noiseless()) {
        // The sampler consumes the same derived per-node stream the
        // original iid path did, so iid outputs are bit-identical and every
        // node's noise stays independent of evaluation order.
        ChannelNoiseSampler noise(params_.channel, node, rng_.derive(0x6e6f6973u, node));
        noise.apply(out, params_.noise_skip.get());
    }
}

std::size_t BatchEngine::total_beeps(const std::vector<Bitstring>& schedules) {
    std::size_t total = 0;
    for (const auto& schedule : schedules) {
        total += schedule.count();
    }
    return total;
}

void BatchEngine::check_schedules(const std::vector<Bitstring>& schedules) const {
    require(schedules.size() == graph_.node_count(),
            "BatchEngine: one schedule per node required");
    if (!schedules.empty()) {
        const std::size_t length = schedules.front().size();
        for (const auto& schedule : schedules) {
            require(schedule.size() == length, "BatchEngine: schedule lengths must match");
        }
    }
}

}  // namespace nb
