// Word-parallel beeping-network engine for oblivious (fixed-schedule) phases.
//
// Algorithm 1's two phases are oblivious: once a node has chosen r_v and m_v,
// its beep pattern for the whole phase is a fixed bitstring. The engine
// computes each node's heard transcript as the word-parallel OR of its
// neighbors' schedules and injects channel noise with geometric skip
// sampling (table-driven, GeometricSkip, at a single iid rate), which makes
// large (n, Delta) sweeps feasible.
//
// Semantics are those of running the same schedules on RoundEngine: bit i
// of the result is what the node receives in round i under the paper's
// conventions (own beeps count as received 1s, noise flips each received
// bit independently with probability epsilon). The superimposition and the
// per-node noise streams are pinned against RoundEngine bit for bit by
// tests that replay the stream through ChannelNoiseSampler::flip_next.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "beep/channel_model.h"
#include "common/bitstring.h"
#include "common/rng.h"
#include "graph/graph.h"

namespace nb {

struct BatchParams {
    /// Any ChannelModel (ChannelParams converts implicitly for the paper's
    /// i.i.d. model). Must keep noise_on_own_beep — this engine cannot
    /// exempt own-beep rounds without tracking them per bit.
    ChannelModel channel;

    /// Reserved; must stay false. The slot of the removed per-bit noise
    /// switch, kept so the positional initializer `BatchParams{model, false}`
    /// in perfbench/nb_perfbench.cpp still compiles.
    bool reserved = false;

    /// The exact gap sampler for the channel's one flip rate
    /// (make_noise_skip). An owner that creates engines round after round
    /// builds it once and passes it here; when it is null the engine builds
    /// its own. Either way the noise is the formula's, draw for draw.
    std::shared_ptr<const GeometricSkip> noise_skip;
};

class BatchEngine {
public:
    /// The graph must outlive the engine. `rng` seeds per-node noise streams.
    BatchEngine(const Graph& graph, BatchParams params, Rng rng);

    /// Transcript heard by `node` when every node u beeps according to
    /// schedules[u] (all schedules must share one length). Only this node's
    /// transcript is computed; noise comes from the node's own derived
    /// stream, so calls are independent of evaluation order.
    Bitstring hear(NodeId node, const std::vector<Bitstring>& schedules) const;

    /// hear() into a caller-owned transcript buffer: the word-parallel OR
    /// runs in place and no allocation happens when `out` already has the
    /// schedule length. This is the workspace API the transports drive from
    /// per-worker scratch buffers. Safe to call concurrently (per-node noise
    /// streams are derived, never shared).
    void hear_into(NodeId node, const std::vector<Bitstring>& schedules, Bitstring& out) const;

    /// Superimposition OR_{u in N(v) (+ v)} schedules[u] with no noise: the
    /// paper's x_v before flips. Exposed for decoder analysis in tests.
    Bitstring superimpose(NodeId node, const std::vector<Bitstring>& schedules,
                          bool include_own = true) const;

    /// superimpose() into a caller-owned buffer (reset to the schedule
    /// length, then OR-accumulated word-parallel).
    void superimpose_into(NodeId node, const std::vector<Bitstring>& schedules, Bitstring& out,
                          bool include_own = true) const;

    /// Total beeps (energy) of a schedule set.
    static std::size_t total_beeps(const std::vector<Bitstring>& schedules);

    /// Validate a schedule set (one per node, equal lengths) once, before a
    /// batch of hear/superimpose calls over it. The per-call path checks
    /// only the O(1) schedule count — revalidating all n lengths inside
    /// every per-node call made the decode loop O(n^2) in require checks —
    /// and a mismatched length still throws from the word-parallel OR, so
    /// skipping this check risks no silent corruption.
    void check_schedules(const std::vector<Bitstring>& schedules) const;

private:
    const Graph& graph_;
    BatchParams params_;
    Rng rng_;
};

}  // namespace nb
