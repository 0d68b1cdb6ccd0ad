// The per-node decode pipeline of Algorithm 1: one function, decode_node(),
// consumes a DecodeContext and writes one node's deliveries and
// diagnostics.
//
// Internal header: included by transport.cpp only. It also defines
// TransportBatch::Scratch (forward-declared in transport_batch.h), the
// cross-call scratch BeepTransport keeps in the caller's batch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "beep/batch_engine.h"
#include "codes/decoders.h"
#include "common/bitslice.h"
#include "common/bitstring.h"
#include "common/simd/simd.h"
#include "graph/graph.h"
#include "sim/codebook.h"
#include "sim/transport.h"
#include "sim/transport_batch.h"

namespace nb {
namespace transport_detail {

enum class NodeState : unsigned char { correct, jammer, crashed };

/// Per-node diagnostic deltas, reduced into the round stats in node order
/// after the parallel loop so totals are independent of thread schedule.
struct NodeDiagnostics {
    std::size_t phase1_false_negatives = 0;
    std::size_t phase1_false_positives = 0;
    std::size_t phase2_errors = 0;
    std::size_t delivery_mismatches = 0;
};

/// Validate fault ids against `n` nodes and expand them into per-node states.
void build_node_states_into(std::vector<NodeState>& state, std::size_t n,
                            const FaultModel& faults);

/// Reusable per-worker scratch: transcript/gather buffers, acceptance lists,
/// bitslice counters and ground-truth pointers. Lives in the batch scratch;
/// TransportBatch::prepare levels every worker's buffers up to the largest
/// any worker reached, so a reused batch never reallocates them whichever
/// nodes the pool hands each worker.
struct DecodeWorkspace {
    /// Grow every buffer to at least `other`'s size (contents are scratch).
    void reserve_like(const DecodeWorkspace& other);

    Bitstring heard1;
    Bitstring heard2;
    Bitstring gathered;
    std::vector<NodeId> accepted_nodes;
    std::vector<std::size_t> accepted_decoys;
    std::vector<std::uint64_t> accept_mask;
    std::vector<std::uint32_t> distances;  ///< phase-2 SoA sweep scratch
    std::vector<std::uint64_t> sort_tmp;   ///< record rotation buffer
    BitsliceScratch slice_scratch;
    std::vector<const Bitstring*> expected;
};

/// The one pointer the decode loop's closure captures: per-round constants
/// and the batch the workers write into. Keeping the closure to a single
/// pointer keeps the std::function conversion at the parallel_for call site
/// inside its small-buffer storage — no per-round allocation.
///
/// The round's fault-free codewords are the decoding dictionary for phase 1
/// and the phase-2 gathers; the phase schedules differ from them only when
/// faults force per-node overrides.
struct DecodeContext {
    const Graph* graph = nullptr;
    const Codebook* codebook = nullptr;
    const Codebook::Round* round = nullptr;
    const std::vector<std::optional<Bitstring>>* messages = nullptr;
    const std::vector<Bitstring>* phase1_schedules = nullptr;
    const std::vector<Bitstring>* phase2_schedules = nullptr;
    const BatchEngine* phase1_engine = nullptr;
    const BatchEngine* phase2_engine = nullptr;
    const Phase1Decoder* phase1_decoder = nullptr;
    const DistanceCode* distance_code = nullptr;
    TransportBatch* batch = nullptr;
    std::vector<DecodeWorkspace>* workspaces = nullptr;
    const std::vector<NodeState>* states = nullptr;
    std::vector<NodeDiagnostics>* diagnostics = nullptr;
    std::size_t round_index = 0;
    std::size_t n = 0;
    std::size_t decoy_count = 0;
    bool bitsliced = false;
    simd::Kernel kernel = simd::Kernel::auto_best;
};

/// Decode node `v` on `worker`'s scratch: phase-1 acceptance, phase-2
/// nearest-entry decodes, delivery commit into the batch, and this node's
/// diagnostics. Faulty nodes return immediately
/// (their slot stays empty).
void decode_node(const DecodeContext& ctx, std::size_t worker, NodeId v);

}  // namespace transport_detail

/// Everything decode rounds reuse across rounds and batches. Owned by the
/// TransportBatch (caller lifetime), created on its first use; the
/// fault-override schedule vectors stay empty on fault-free workloads.
struct TransportBatch::Scratch {
    std::vector<transport_detail::DecodeWorkspace> workspaces;
    std::vector<transport_detail::NodeState> states;
    std::vector<transport_detail::NodeDiagnostics> diagnostics;
    std::vector<Bitstring> faulty_phase1;
    std::vector<Bitstring> faulty_phase2;
};

}  // namespace nb
