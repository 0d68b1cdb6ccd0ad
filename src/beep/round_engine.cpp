#include "beep/round_engine.h"

#include "common/bitstring.h"
#include "common/error.h"

namespace nb {

RoundEngine::RoundEngine(const Graph& graph, ChannelModel channel, Rng rng)
    : graph_(graph), channel_(channel), rng_(rng) {
    channel_.validate();
}

RunStats RoundEngine::run(std::vector<std::unique_ptr<BeepAlgorithm>>& nodes,
                          std::size_t max_rounds) {
    const std::size_t n = graph_.node_count();
    require(nodes.size() == n, "RoundEngine::run: one algorithm per node required");
    for (const auto& node : nodes) {
        require(node != nullptr, "RoundEngine::run: null algorithm");
    }

    const NetworkInfo info{n, graph_.max_degree()};
    // Private per-node randomness, independent of the channel-noise streams.
    // Noise comes from one ChannelNoiseSampler per node, seeded from the
    // node's derived stream — the stream BatchEngine draws its gaps from —
    // one flip_next per received bit; stateful models (burst phase,
    // adversary budget) keep their state inside the sampler.
    std::vector<Rng> node_rngs;
    std::vector<ChannelNoiseSampler> samplers;
    node_rngs.reserve(n);
    samplers.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
        node_rngs.push_back(rng_.derive(0x6e6f6465u, v));
        samplers.emplace_back(channel_, v, rng_.derive(0x6e6f6973u, v));
    }
    const bool noisy = !channel_.noiseless();

    for (NodeId v = 0; v < n; ++v) {
        nodes[v]->initialize(v, info, node_rngs[v]);
    }

    RunStats stats;
    // Actions packed one bit per node: the receive scan below reads the
    // same word-packed representation the batch engine superimposes over
    // (a whole round of this engine is one column of a BatchEngine run).
    Bitstring beeps;
    for (std::size_t round = 0; round < max_rounds; ++round) {
        beeps.reset(n);
        bool someone_active = false;
        for (NodeId v = 0; v < n; ++v) {
            if (nodes[v]->finished()) {
                continue;
            }
            someone_active = true;
            if (nodes[v]->act(round, node_rngs[v]) == BeepAction::beep) {
                beeps.set(v);
                ++stats.total_beeps;
            }
        }
        if (!someone_active) {
            stats.all_finished = true;
            break;
        }
        ++stats.rounds;

        const auto& beep_words = beeps.words();
        const auto beeped_bit = [&beep_words](NodeId u) {
            return (beep_words[u / 64] >> (u % 64)) & 1u;
        };
        for (NodeId v = 0; v < n; ++v) {
            if (nodes[v]->finished()) {
                continue;
            }
            const bool beeped = beeped_bit(v) != 0;
            bool received = beeped;
            if (!received) {
                for (const auto u : graph_.neighbors(v)) {
                    if (beeped_bit(u) != 0) {
                        received = true;
                        break;
                    }
                }
            }
            if (noisy && (!beeped || channel_.noise_on_own_beep) &&
                samplers[v].flip_next(received)) {
                received = !received;
            }
            nodes[v]->receive(round, received, node_rngs[v]);
        }
    }

    if (!stats.all_finished) {
        bool all_done = true;
        for (const auto& node : nodes) {
            if (!node->finished()) {
                all_done = false;
                break;
            }
        }
        stats.all_finished = all_done;
    }
    return stats;
}

}  // namespace nb
