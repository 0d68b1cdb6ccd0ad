// Algorithm 1: simulation of one Broadcast CONGEST round with noisy beeps.
//
// Phase 1 — each node v picks a fresh random input r_v and beeps the beep
// codeword C(r_v) bit-by-bit (b rounds). Every node decodes the noisy
// superimposition transcript with the Lemma 9 threshold rule to obtain
// R~_v, the set of inputs used in its inclusive neighborhood.
//
// Phase 2 — each node beeps the combined codeword CD(r_v, m_v) (b rounds):
// its distance-coded payload written into C(r_v)'s 1-positions. For every
// recovered input r in R~_v, a node extracts the transcript subsequence at
// C(r)'s 1-positions and nearest-codeword-decodes it (Lemma 10 rule).
//
// Total: exactly 2*b = 2*c_eps^3*(Delta+1)*payload_bits beep rounds — the
// O(Delta log n) overhead of Theorem 11.
//
// The transport also computes ground-truth deliveries and per-phase error
// diagnostics, which the experiments report; they are observability hooks,
// never inputs to the decoding itself.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "codes/combined_code.h"
#include "codes/decoders.h"
#include "common/bitstring.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "sim/codebook.h"
#include "sim/codebook_cache.h"
#include "sim/params.h"
#include "sim/transport_batch.h"

namespace nb {

/// Fault injection for robustness experiments (an extension beyond the
/// paper's model, which assumes only channel noise):
///  * jammers beep in every round of both phases (a stuck-on transmitter);
///  * crashed nodes never beep and produce no output.
/// Correct nodes run Algorithm 1 unchanged; the diagnostics measure the
/// collateral damage in the faulty nodes' neighborhoods.
struct FaultModel {
    std::vector<NodeId> jammers;
    std::vector<NodeId> crashed;

    bool empty() const noexcept { return jammers.empty() && crashed.empty(); }
};

/// Result of simulating one Broadcast CONGEST round.
struct TransportRound {
    /// delivered[v] = sorted multiset of messages decoded by v (one entry
    /// per recovered foreign codeword whose payload carries a message).
    std::vector<std::vector<Bitstring>> delivered;

    std::size_t beep_rounds = 0;  ///< 2*b
    std::size_t total_beeps = 0;  ///< energy: total 1s transmitted

    // Diagnostics (vs ground truth):
    std::size_t phase1_false_negatives = 0;  ///< in-neighborhood inputs missed
    std::size_t phase1_false_positives = 0;  ///< foreign inputs accepted
    std::size_t phase2_errors = 0;           ///< true-neighbor payloads mis-decoded
    std::size_t delivery_mismatches = 0;     ///< nodes whose delivery != ground truth
    bool perfect = true;                     ///< delivery_mismatches == 0
};

/// One round of a batched simulation: the messages (non-owning and never
/// null — implementations require() it per spec, and the pointee must
/// outlive the simulate_rounds_into call), the per-round nonce, and an
/// optional fault model (nullptr = fault-free, otherwise also non-owning
/// with the same lifetime contract). Sweeps typically share one messages
/// vector across many specs and vary only the nonce.
struct RoundSpec {
    const std::vector<std::optional<Bitstring>>* messages = nullptr;
    std::uint64_t nonce = 0;
    const FaultModel* faults = nullptr;
};

/// Abstract "one Broadcast CONGEST round over beeps" mechanism. The paper's
/// Algorithm 1 (BeepTransport) and the prior-work G^2-coloring TDMA baseline
/// implement this, so the same simulated engine and experiments drive both.
class Transport {
public:
    virtual ~Transport() = default;

    /// Simulate a batch of rounds, in spec order, into caller-owned arena
    /// storage (see transport_batch.h): each round's counters land in
    /// batch.stats(i) and its delivered messages as fixed-stride records in
    /// per-worker arenas, with all decode scratch kept in the batch. This is
    /// the one simulation path every transport implements: per-spec setup
    /// is paid once per batch and each round is fanned out on the
    /// transport's one thread pool (BeepTransport, on a reused batch at its
    /// steady-state high-water mark, decodes with no heap allocation).
    /// Outputs are bit-identical for any batch split and thread count (see
    /// DESIGN.md section 5). One call writes a batch at a time.
    virtual void simulate_rounds_into(std::span<const RoundSpec> specs,
                                      TransportBatch& batch) const = 0;

    /// The owning-result bridge over simulate_rounds_into: a fresh batch,
    /// then batch.to_round(i) per spec. For callers that consume Bitstring
    /// deliveries, such as the Broadcast CONGEST engine; it allocates per
    /// delivered message, so counter-only callers read the batch instead.
    std::vector<TransportRound> simulate_rounds(std::span<const RoundSpec> specs) const;

    /// Simulate one round. `messages[v]` is node v's broadcast (at most
    /// message_bits bits) or nullopt for silence. `round_nonce` must differ
    /// across rounds (it keys the fresh per-round randomness). Equivalent to
    /// simulate_rounds with a single fault-free spec.
    TransportRound simulate_round(const std::vector<std::optional<Bitstring>>& messages,
                                  std::uint64_t round_nonce) const;

    /// Beep rounds one simulated round costs on this transport's graph.
    virtual std::size_t rounds_per_broadcast_round() const = 0;

    virtual const Graph& graph() const noexcept = 0;
};

class BeepTransport final : public Transport {
public:
    /// The graph must outlive the transport.
    BeepTransport(const Graph& graph, SimulationParams params);

    /// A spec's FaultModel makes its nodes misbehave as described there.
    /// Ground-truth diagnostics expect nothing from faulty nodes (their
    /// messages are lost by definition); deliveries at correct nodes
    /// measure how far the damage spreads.
    void simulate_rounds_into(std::span<const RoundSpec> specs,
                              TransportBatch& batch) const override;

    /// Beep rounds one simulated round costs on this graph (2*b).
    std::size_t rounds_per_broadcast_round() const override;

    const SimulationParams& params() const noexcept { return params_; }
    const Graph& graph() const noexcept override { return graph_; }

    /// The code/dictionary cache this transport decodes with (see
    /// codebook.h): the process-wide CodebookCache's build for this graph
    /// and params, possibly serving other transports too, so its stats()
    /// aggregate across them.
    const Codebook& codebook() const noexcept { return codebook_->codebook(); }

private:
    void decode_round_into(const Codebook::Round& round, const RoundSpec& spec,
                           std::size_t round_index, TransportBatch& batch) const;

    const Graph& graph_;
    SimulationParams params_;
    std::shared_ptr<const SharedCodebook> codebook_;  ///< cache-owned
    /// The physical channel's exact gap sampler, handed to both per-round
    /// engines; null unless the channel flips at one rate.
    std::shared_ptr<const GeometricSkip> noise_skip_;
    std::unique_ptr<ThreadPool> pool_;
};

}  // namespace nb
