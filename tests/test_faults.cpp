// Fault-injection tests for the transport: jammers (stuck-on transmitters)
// and crashed (silent) nodes. The paper's model has only channel noise;
// these tests pin down how the implementation degrades under node faults —
// crashes must cost exactly the crashed node's messages, jammers must only
// damage their own neighborhood.
#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "common/error.h"
#include "congest/algorithm.h"
#include "graph/generators.h"
#include "sim/transport.h"

namespace nb {
namespace {

std::vector<std::optional<Bitstring>> all_messages_for(const Graph& graph, std::size_t bits,
                                                       std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::optional<Bitstring>> messages(graph.node_count());
    for (NodeId v = 0; v < graph.node_count(); ++v) {
        messages[v] = Bitstring::random(rng, bits);
    }
    return messages;
}

/// One round of `transport` with `faults` applied: a single-spec batch.
TransportRound simulate_faulty(const Transport& transport,
                               const std::vector<std::optional<Bitstring>>& messages,
                               std::uint64_t nonce, const FaultModel& faults) {
    const RoundSpec spec{&messages, nonce, &faults};
    return std::move(transport.simulate_rounds({&spec, 1}).front());
}

SimulationParams params_for(double epsilon) {
    SimulationParams params;
    params.epsilon = epsilon;
    params.message_bits = 10;
    params.c_eps = 4;
    return params;
}

TEST(Faults, EmptyFaultModelMatchesPlainRound) {
    Rng rng(1);
    const Graph g = make_erdos_renyi(16, 0.3, rng);
    const BeepTransport transport(g, params_for(0.1));
    const auto messages = all_messages_for(g, 10, 5);
    const auto plain = transport.simulate_round(messages, 3);
    const auto faulted = simulate_faulty(transport, messages, 3, FaultModel{});
    EXPECT_EQ(plain.delivered, faulted.delivered);
    EXPECT_EQ(plain.perfect, faulted.perfect);
}

TEST(Faults, CrashedNodeMessagesLostButRestDelivered) {
    // Star center crashes: leaves must still deliver perfectly among
    // themselves (they have no other neighbors, so they hear nothing), and
    // nobody receives the center's message.
    const Graph g = make_complete(8);
    const BeepTransport transport(g, params_for(0.0));
    const auto messages = all_messages_for(g, 10, 7);
    FaultModel faults;
    faults.crashed = {0};

    const auto round = simulate_faulty(transport, messages, 0, faults);
    EXPECT_TRUE(round.perfect);  // ground truth excludes the crashed node
    EXPECT_TRUE(round.delivered[0].empty());
    for (NodeId v = 1; v < 8; ++v) {
        // 6 correct neighbors (everyone but self and the crashed node).
        EXPECT_EQ(round.delivered[v].size(), 6u);
        for (const auto& m : round.delivered[v]) {
            EXPECT_NE(m, *messages[0]);
        }
    }
}

TEST(Faults, CrashIsLocalizedOnAPath) {
    // 0-1-2-3-4 with node 2 crashed: nodes 0,1 and 3,4 must exchange
    // perfectly; 1 and 3 simply lose one neighbor message each.
    const Graph g = make_path(5);
    const BeepTransport transport(g, params_for(0.0));
    const auto messages = all_messages_for(g, 10, 9);
    FaultModel faults;
    faults.crashed = {2};

    const auto round = simulate_faulty(transport, messages, 0, faults);
    EXPECT_TRUE(round.perfect);
    EXPECT_EQ(round.delivered[0].size(), 1u);
    EXPECT_EQ(round.delivered[1].size(), 1u);  // only node 0's message
    EXPECT_EQ(round.delivered[1][0], *messages[0]);
    EXPECT_EQ(round.delivered[3].size(), 1u);
    EXPECT_EQ(round.delivered[3][0], *messages[4]);
}

TEST(Faults, JammerDamagesOnlyItsNeighborhood) {
    // Path 0-1-2-3-4-5 with node 0 jamming: nodes 3,4,5 are out of its
    // range (distance >= 2 from any of 0's neighbors... node 1 is jammed,
    // node 2's transcript picks up nothing from node 0). Deliveries beyond
    // the jammer's neighborhood must stay exact.
    const Graph g = make_path(6);
    const BeepTransport transport(g, params_for(0.0));
    const auto messages = all_messages_for(g, 10, 11);
    FaultModel faults;
    faults.jammers = {0};

    const auto round = simulate_faulty(transport, messages, 0, faults);
    // Node 1 hears all-ones: everything in its dictionary passes the
    // threshold test — spurious accepts counted as false positives.
    EXPECT_GT(round.phase1_false_positives, 0u);
    // Nodes 3, 4, 5 are unaffected: their expected messages arrive.
    const auto check_exact = [&](NodeId v, std::vector<Bitstring> expect) {
        sort_messages(expect);
        EXPECT_EQ(round.delivered[v], expect) << "node " << v;
    };
    check_exact(3, {*messages[2], *messages[4]});
    check_exact(4, {*messages[3], *messages[5]});
    check_exact(5, {*messages[4]});
}

TEST(Faults, JammedListenerAcceptsEverything) {
    // A node adjacent to a jammer hears an all-ones transcript, so every
    // dictionary codeword passes the missing-ones test: the decoder reports
    // (rather than hides) the breakdown via false positives.
    const Graph g = make_star(6);  // center 0
    const BeepTransport transport(g, params_for(0.0));
    const auto messages = all_messages_for(g, 10, 13);
    FaultModel faults;
    faults.jammers = {1};  // one leaf jams; center is in range

    const auto round = simulate_faulty(transport, messages, 0, faults);
    EXPECT_FALSE(round.perfect);
    EXPECT_GT(round.phase1_false_positives, 0u);
    // Other leaves (distance 2 from the jammer) hear only the center.
    for (NodeId v = 2; v < 6; ++v) {
        ASSERT_EQ(round.delivered[v].size(), 1u) << "leaf " << v;
        EXPECT_EQ(round.delivered[v][0], *messages[0]);
    }
}

TEST(Faults, ValidationRejectsBadIds) {
    const Graph g = make_path(3);
    const BeepTransport transport(g, params_for(0.0));
    const auto messages = all_messages_for(g, 10, 15);
    FaultModel out_of_range;
    out_of_range.jammers = {5};
    EXPECT_THROW(simulate_faulty(transport, messages, 0, out_of_range), precondition_error);
    // A node listed as both jammer and crashed is contradictory — rejected
    // up front, alone or behind a valid spec in the same batch.
    FaultModel both;
    both.jammers = {1};
    both.crashed = {1};
    EXPECT_THROW(simulate_faulty(transport, messages, 0, both), precondition_error);
    const std::vector<RoundSpec> specs{{&messages, 0, nullptr}, {&messages, 1, &both}};
    EXPECT_THROW(transport.simulate_rounds(specs), precondition_error);
}

TEST(Faults, DuplicateListingsAreIdempotent) {
    // The same node twice in one fault list means the fault once, not an
    // error: only the jam+crash contradiction is rejected.
    const Graph g = make_path(5);
    const BeepTransport transport(g, params_for(0.0));
    const auto messages = all_messages_for(g, 10, 23);
    FaultModel duplicated;
    duplicated.jammers = {0, 0};
    duplicated.crashed = {2, 2};
    FaultModel plain;
    plain.jammers = {0};
    plain.crashed = {2};
    const auto a = simulate_faulty(transport, messages, 1, duplicated);
    const auto b = simulate_faulty(transport, messages, 1, plain);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.phase1_false_positives, b.phase1_false_positives);
    EXPECT_EQ(a.delivery_mismatches, b.delivery_mismatches);
}

TEST(Faults, BatchedBitslicedThreadCountsAgree) {
    // Faults combined with batching and with the bitsliced phase-1 kernel
    // forced on: outputs must be identical for 1 vs N workers and for the
    // bitsliced vs scalar kernel (jammer transcripts are the all-ones edge
    // case of the vertical counters).
    Rng rng(29);
    const Graph g = make_erdos_renyi(28, 0.22, rng);
    const auto messages = all_messages_for(g, 10, 31);
    FaultModel faults;
    faults.jammers = {4};
    faults.crashed = {9, 17};

    auto make_params = [](std::size_t threads, std::size_t bitslice_min) {
        SimulationParams params;
        params.epsilon = 0.1;
        params.message_bits = 10;
        params.c_eps = 4;
        params.dictionary = DictionaryPolicy::all_nodes;
        params.bitslice_min_candidates = bitslice_min;
        params.threads = threads;
        return params;
    };
    const BeepTransport sliced_serial(g, make_params(1, 0));
    const BeepTransport sliced_threaded(g, make_params(4, 0));
    const BeepTransport scalar_serial(
        g, make_params(1, std::numeric_limits<std::size_t>::max()));

    std::vector<RoundSpec> specs;
    for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
        specs.push_back(RoundSpec{&messages, nonce, nonce == 1 ? nullptr : &faults});
    }
    const auto a = sliced_serial.simulate_rounds(specs);
    const auto b = sliced_threaded.simulate_rounds(specs);
    const auto c = scalar_serial.simulate_rounds(specs);
    ASSERT_EQ(a.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(a[i].delivered, b[i].delivered) << "round " << i;
        EXPECT_EQ(a[i].phase1_false_negatives, b[i].phase1_false_negatives);
        EXPECT_EQ(a[i].phase1_false_positives, b[i].phase1_false_positives);
        EXPECT_EQ(a[i].phase2_errors, b[i].phase2_errors);
        EXPECT_EQ(a[i].delivery_mismatches, b[i].delivery_mismatches);
        EXPECT_EQ(a[i].delivered, c[i].delivered) << "round " << i;
        EXPECT_EQ(a[i].phase1_false_positives, c[i].phase1_false_positives);
        EXPECT_EQ(a[i].delivery_mismatches, c[i].delivery_mismatches);
    }
}

TEST(Faults, ManyCrashesStillDeliverAmongSurvivors) {
    Rng rng(17);
    const Graph g = make_erdos_renyi(24, 0.25, rng);
    const BeepTransport transport(g, params_for(0.1));
    const auto messages = all_messages_for(g, 10, 19);
    FaultModel faults;
    faults.crashed = {0, 3, 7, 11};

    std::size_t perfect = 0;
    for (std::uint64_t nonce = 0; nonce < 5; ++nonce) {
        perfect += simulate_faulty(transport, messages, nonce, faults).perfect ? 1 : 0;
    }
    // Crashes reduce effective degree; decoding should succeed at least as
    // often as in the fault-free noisy case.
    EXPECT_GE(perfect, 4u);
}

}  // namespace
}  // namespace nb
