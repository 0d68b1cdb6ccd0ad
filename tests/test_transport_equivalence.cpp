// Transport equivalence: the codebook-cached, thread-pooled simulate_round
// must be a pure refactor of the original implementation. Every scenario
// here is pinned against 64-bit fingerprints captured from the pre-refactor
// (seed) BeepTransport on the same inputs — across both dictionary
// policies, with and without a FaultModel — and the outputs must not depend
// on the worker-thread count.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "baselines/tdma_transport.h"
#include "common/error.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "sim/codebook_cache.h"
#include "sim/params.h"
#include "sim/transport.h"

namespace nb {
namespace {

std::vector<std::optional<Bitstring>> make_messages(const Graph& graph, std::size_t bits,
                                                    std::uint64_t seed,
                                                    double silent_fraction = 0.25) {
    Rng rng(seed);
    std::vector<std::optional<Bitstring>> messages(graph.node_count());
    for (NodeId v = 0; v < graph.node_count(); ++v) {
        if (!rng.bernoulli(silent_fraction)) {
            messages[v] = Bitstring::random(rng, bits);
        }
    }
    return messages;
}

/// Order- and content-sensitive digest of everything a TransportRound
/// reports. Must stay byte-for-byte in sync with the harness that captured
/// the golden values from the seed implementation.
std::uint64_t fingerprint(const TransportRound& round) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    auto mix = [&h](std::uint64_t value) { h = mix64(h ^ value); };
    for (const auto& messages : round.delivered) {
        mix(messages.size());
        for (const auto& message : messages) {
            mix(message.hash());
        }
    }
    mix(round.beep_rounds);
    mix(round.total_beeps);
    mix(round.phase1_false_negatives);
    mix(round.phase1_false_positives);
    mix(round.phase2_errors);
    mix(round.delivery_mismatches);
    return h;
}

/// One round of `transport` with `faults` applied: a single-spec batch.
TransportRound simulate_faulty(const Transport& transport,
                               const std::vector<std::optional<Bitstring>>& messages,
                               std::uint64_t nonce, const FaultModel& faults) {
    const RoundSpec spec{&messages, nonce, &faults};
    return std::move(transport.simulate_rounds({&spec, 1}).front());
}

std::uint64_t run_fingerprint(const BeepTransport& transport,
                              const std::vector<std::optional<Bitstring>>& messages,
                              const FaultModel& faults) {
    std::uint64_t h = 0;
    for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
        h = mix64(h ^ fingerprint(simulate_faulty(transport, messages, nonce, faults)));
    }
    return h;
}

/// The same three-round digest as run_fingerprint, but simulated through a
/// single batched simulate_rounds call — the goldens must not care which
/// path produced the rounds.
std::uint64_t batched_fingerprint(const Transport& transport,
                                  const std::vector<std::optional<Bitstring>>& messages,
                                  const FaultModel& faults) {
    std::vector<RoundSpec> specs;
    for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
        specs.push_back(RoundSpec{&messages, nonce, faults.empty() ? nullptr : &faults});
    }
    std::uint64_t h = 0;
    for (const auto& round : transport.simulate_rounds(specs)) {
        h = mix64(h ^ fingerprint(round));
    }
    return h;
}

SimulationParams noisy_params(DictionaryPolicy policy, std::size_t threads = 1) {
    SimulationParams params;
    params.epsilon = 0.1;
    params.message_bits = 10;
    params.c_eps = 4;
    params.dictionary = policy;
    params.threads = threads;
    return params;
}

void expect_equal_rounds(const TransportRound& a, const TransportRound& b) {
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.beep_rounds, b.beep_rounds);
    EXPECT_EQ(a.total_beeps, b.total_beeps);
    EXPECT_EQ(a.phase1_false_negatives, b.phase1_false_negatives);
    EXPECT_EQ(a.phase1_false_positives, b.phase1_false_positives);
    EXPECT_EQ(a.phase2_errors, b.phase2_errors);
    EXPECT_EQ(a.delivery_mismatches, b.delivery_mismatches);
    EXPECT_EQ(a.perfect, b.perfect);
}

// Golden fingerprints captured by running the scenarios below on the seed
// (pre-codebook) implementation of BeepTransport at commit 6b6a934.
constexpr std::uint64_t kGoldenTwoHopPlain = 0x82c6aaa1661aa3eaULL;
constexpr std::uint64_t kGoldenTwoHopFaults = 0x2d7eb0a121342769ULL;
constexpr std::uint64_t kGoldenAllNodesPlain = 0x82c6aaa1661aa3eaULL;
constexpr std::uint64_t kGoldenAllNodesFaults = 0xcf836c6fc717b592ULL;
constexpr std::uint64_t kGoldenNoiseless = 0x4c90d81a92c67923ULL;

class TransportEquivalence : public ::testing::Test {
protected:
    TransportEquivalence() : graph_(make_graph()), messages_(make_messages(graph_, 10, 1234)) {
        faults_.jammers = {3};
        faults_.crashed = {7, 11};
    }

    static Graph make_graph() {
        Rng rng(42);
        return make_erdos_renyi(32, 0.18, rng);
    }

    Graph graph_;
    std::vector<std::optional<Bitstring>> messages_;
    FaultModel faults_;
};

TEST_F(TransportEquivalence, MatchesSeedTwoHop) {
    const BeepTransport transport(graph_, noisy_params(DictionaryPolicy::two_hop));
    EXPECT_EQ(run_fingerprint(transport, messages_, FaultModel{}), kGoldenTwoHopPlain);
    EXPECT_EQ(run_fingerprint(transport, messages_, faults_), kGoldenTwoHopFaults);
}

TEST_F(TransportEquivalence, MatchesSeedAllNodes) {
    const BeepTransport transport(graph_, noisy_params(DictionaryPolicy::all_nodes));
    EXPECT_EQ(run_fingerprint(transport, messages_, FaultModel{}), kGoldenAllNodesPlain);
    EXPECT_EQ(run_fingerprint(transport, messages_, faults_), kGoldenAllNodesFaults);
}

TEST_F(TransportEquivalence, MatchesSeedNoiseless) {
    Rng rng(7);
    const Graph g = make_random_regular(20, 4, rng);
    const auto messages = make_messages(g, 8, 99, /*silent_fraction=*/0.0);
    SimulationParams params;
    params.epsilon = 0.0;
    params.message_bits = 8;
    params.c_eps = 4;
    params.threads = 1;
    const BeepTransport transport(g, params);
    EXPECT_EQ(fingerprint(transport.simulate_round(messages, 5)), kGoldenNoiseless);
}

TEST_F(TransportEquivalence, BatchedRoundsMatchGoldenFingerprints) {
    // simulate_rounds with batch size 3 must reproduce the seed-pinned
    // fingerprints exactly, for both policies, with and without faults.
    const BeepTransport two_hop(graph_, noisy_params(DictionaryPolicy::two_hop));
    EXPECT_EQ(batched_fingerprint(two_hop, messages_, FaultModel{}), kGoldenTwoHopPlain);
    EXPECT_EQ(batched_fingerprint(two_hop, messages_, faults_), kGoldenTwoHopFaults);
    const BeepTransport all_nodes(graph_, noisy_params(DictionaryPolicy::all_nodes));
    EXPECT_EQ(batched_fingerprint(all_nodes, messages_, FaultModel{}), kGoldenAllNodesPlain);
    EXPECT_EQ(batched_fingerprint(all_nodes, messages_, faults_), kGoldenAllNodesFaults);
}

TEST_F(TransportEquivalence, BitslicedDecoderMatchesGoldenFingerprints) {
    // Forcing the bitsliced phase-1 kernel below its size crossover must
    // not change a single output bit: the goldens pin the bitsliced decode
    // end to end (single and batched paths).
    SimulationParams params = noisy_params(DictionaryPolicy::all_nodes);
    params.bitslice_min_candidates = 0;
    const BeepTransport transport(graph_, params);
    EXPECT_EQ(run_fingerprint(transport, messages_, FaultModel{}), kGoldenAllNodesPlain);
    EXPECT_EQ(run_fingerprint(transport, messages_, faults_), kGoldenAllNodesFaults);
    EXPECT_EQ(batched_fingerprint(transport, messages_, FaultModel{}), kGoldenAllNodesPlain);
    EXPECT_EQ(batched_fingerprint(transport, messages_, faults_), kGoldenAllNodesFaults);
}

TEST_F(TransportEquivalence, ExplicitIidChannelMatchesGoldenFingerprints) {
    // Carrying the channel as an explicit ChannelModel::iid instead of the
    // legacy epsilon-only configuration must not change a single bit: the
    // ChannelModel refactor is golden-pinned for the paper's channel.
    SimulationParams params = noisy_params(DictionaryPolicy::two_hop);
    params.channel = ChannelModel::iid(params.epsilon);
    const BeepTransport transport(graph_, params);
    EXPECT_EQ(run_fingerprint(transport, messages_, FaultModel{}), kGoldenTwoHopPlain);
    EXPECT_EQ(run_fingerprint(transport, messages_, faults_), kGoldenTwoHopFaults);
}

TEST_F(TransportEquivalence, NullMessagesAreRejectedPerSpec) {
    // RoundSpec::messages is a non-owning pointer; both transports must
    // require() it non-null per spec instead of dereferencing.
    const BeepTransport transport(graph_, noisy_params(DictionaryPolicy::two_hop));
    const RoundSpec good{&messages_, 0, nullptr};
    const RoundSpec null_spec{nullptr, 1, nullptr};
    const std::vector<RoundSpec> specs{good, null_spec};
    EXPECT_THROW(transport.simulate_rounds(specs), precondition_error);

    TdmaParams tdma_params;
    tdma_params.message_bits = 10;
    const TdmaTransport tdma(graph_, tdma_params);
    EXPECT_THROW(tdma.simulate_rounds({&null_spec, 1}), precondition_error);
}

TEST_F(TransportEquivalence, BatchSizeOneMatchesSimulateRound) {
    // A round simulated alone (simulate_round, or one faulty spec) must
    // equal the same round decoded inside a larger batch, whose arenas
    // already hold the earlier rounds' records.
    for (const auto policy : {DictionaryPolicy::two_hop, DictionaryPolicy::all_nodes}) {
        const BeepTransport transport(graph_, noisy_params(policy));
        const std::vector<RoundSpec> specs{
            {&messages_, 6, nullptr}, {&messages_, 7, &faults_}, {&messages_, 8, nullptr}};
        const auto batched = transport.simulate_rounds(specs);
        ASSERT_EQ(batched.size(), specs.size());
        expect_equal_rounds(batched[1], simulate_faulty(transport, messages_, 7, faults_));
        expect_equal_rounds(batched[2], transport.simulate_round(messages_, 8));
    }
}

TEST_F(TransportEquivalence, BatchedThreadCountDoesNotChangeOutputs) {
    // The pooled batch (threads > 1 fans each round's codebook build and
    // decode out over the pool) must agree round-for-round with the inline
    // single-worker batch.
    for (const auto policy : {DictionaryPolicy::two_hop, DictionaryPolicy::all_nodes}) {
        const BeepTransport serial(graph_, noisy_params(policy, 1));
        const BeepTransport threaded(graph_, noisy_params(policy, 4));
        std::vector<RoundSpec> specs;
        for (std::uint64_t nonce = 0; nonce < 4; ++nonce) {
            specs.push_back(RoundSpec{&messages_, nonce, nonce % 2 == 0 ? nullptr : &faults_});
        }
        const auto serial_rounds = serial.simulate_rounds(specs);
        const auto threaded_rounds = threaded.simulate_rounds(specs);
        ASSERT_EQ(serial_rounds.size(), threaded_rounds.size());
        for (std::size_t i = 0; i < serial_rounds.size(); ++i) {
            expect_equal_rounds(serial_rounds[i], threaded_rounds[i]);
        }
    }
}

TEST_F(TransportEquivalence, ThreadCountDoesNotChangeOutputs) {
    for (const auto policy : {DictionaryPolicy::two_hop, DictionaryPolicy::all_nodes}) {
        const BeepTransport serial(graph_, noisy_params(policy, 1));
        const BeepTransport threaded(graph_, noisy_params(policy, 4));
        for (std::uint64_t nonce = 0; nonce < 2; ++nonce) {
            expect_equal_rounds(serial.simulate_round(messages_, nonce),
                                threaded.simulate_round(messages_, nonce));
            expect_equal_rounds(simulate_faulty(serial, messages_, nonce, faults_),
                                simulate_faulty(threaded, messages_, nonce, faults_));
        }
    }
}

TEST_F(TransportEquivalence, SharedCodebookCacheMatchesGoldenFingerprints) {
    // With the process-wide CodebookCache enabled (the default), every seed
    // fingerprint is unchanged, and two transports agreeing on the
    // codebook-relevant parameters decode through the same Codebook object
    // even when they disagree on thread count.
    CodebookCache::instance().clear();
    const BeepTransport two_hop(graph_, noisy_params(DictionaryPolicy::two_hop, 1));
    const BeepTransport two_hop_threaded(graph_, noisy_params(DictionaryPolicy::two_hop, 4));
    EXPECT_EQ(&two_hop.codebook(), &two_hop_threaded.codebook());
    EXPECT_EQ(run_fingerprint(two_hop, messages_, FaultModel{}), kGoldenTwoHopPlain);
    EXPECT_EQ(run_fingerprint(two_hop_threaded, messages_, faults_), kGoldenTwoHopFaults);

    const BeepTransport all_nodes(graph_, noisy_params(DictionaryPolicy::all_nodes));
    EXPECT_EQ(batched_fingerprint(all_nodes, messages_, FaultModel{}), kGoldenAllNodesPlain);
    EXPECT_EQ(batched_fingerprint(all_nodes, messages_, faults_), kGoldenAllNodesFaults);

    const auto stats = CodebookCache::instance().stats();
    EXPECT_EQ(stats.builds, 2u);  // one per dictionary policy
    EXPECT_EQ(stats.hits, 1u);    // the threaded two_hop transport
}

TEST_F(TransportEquivalence, ReusedBatchStaysIdenticalAcrossCalls) {
    // A second pass through the same warm batch reuses its scratch and
    // arenas, and the codebook rebuilds each warm round in place; neither
    // may change a bit of the golden outputs.
    CodebookCache::instance().clear();  // a fresh build, so the recycle count is this test's
    const BeepTransport transport(graph_, noisy_params(DictionaryPolicy::two_hop));
    std::vector<RoundSpec> specs;
    for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
        specs.push_back(RoundSpec{&messages_, nonce, &faults_});
    }
    TransportBatch batch;
    for (int pass = 0; pass < 2; ++pass) {
        SCOPED_TRACE("pass " + std::to_string(pass));
        transport.simulate_rounds_into(specs, batch);
        std::uint64_t h = 0;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            h = mix64(h ^ fingerprint(batch.to_round(i)));
        }
        EXPECT_EQ(h, kGoldenTwoHopFaults);
    }
    EXPECT_GT(transport.codebook().stats().round_recycles, 0u);
}

TEST_F(TransportEquivalence, CodesAndCodewordsBuiltOncePerRound) {
    // The once-per-transport counters need a fresh cache entry: a cached
    // codebook aggregates every transport that ever hit it.
    CodebookCache::instance().clear();
    const BeepTransport transport(graph_, noisy_params(DictionaryPolicy::two_hop));
    const std::size_t n = graph_.node_count();
    const std::size_t decoys = transport.params().decoy_count;

    auto stats = transport.codebook().stats();
    EXPECT_EQ(stats.code_builds, 1u);   // built in the constructor
    EXPECT_EQ(stats.round_builds, 0u);  // no round simulated yet

    transport.simulate_round(messages_, 0);
    stats = transport.codebook().stats();
    EXPECT_EQ(stats.round_builds, 1u);
    EXPECT_EQ(stats.codeword_builds, n + decoys);
    EXPECT_EQ(stats.payload_encodes, n + 1 + decoys);

    // Re-simulating the same round (same messages + nonce, faults included)
    // must not regenerate any code, codeword, or encoding.
    transport.simulate_round(messages_, 0);
    simulate_faulty(transport, messages_, 0, faults_);
    stats = transport.codebook().stats();
    EXPECT_EQ(stats.code_builds, 1u);
    EXPECT_EQ(stats.round_builds, 1u);
    EXPECT_EQ(stats.codeword_builds, n + decoys);
    EXPECT_EQ(stats.payload_encodes, n + 1 + decoys);

    // A fresh nonce is a new round: exactly one more rebuild.
    transport.simulate_round(messages_, 1);
    stats = transport.codebook().stats();
    EXPECT_EQ(stats.code_builds, 1u);
    EXPECT_EQ(stats.round_builds, 2u);
    EXPECT_EQ(stats.codeword_builds, 2 * (n + decoys));
}

TEST(TdmaEquivalence, ThreadCountDoesNotChangeOutputs) {
    Rng rng(11);
    const Graph g = make_erdos_renyi(24, 0.2, rng);
    const auto messages = make_messages(g, 8, 5);
    TdmaParams serial_params;
    serial_params.epsilon = 0.1;
    serial_params.message_bits = 8;
    serial_params.repetitions = 9;
    serial_params.threads = 1;
    TdmaParams threaded_params = serial_params;
    threaded_params.threads = 4;
    const TdmaTransport serial(g, serial_params);
    const TdmaTransport threaded(g, threaded_params);
    for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
        expect_equal_rounds(serial.simulate_round(messages, nonce),
                            threaded.simulate_round(messages, nonce));
    }
}

// Golden fingerprints of TdmaTransport rounds, captured at commit b2c8358
// from its TransportRound-building decode (before it wrote TransportBatch
// records).
constexpr std::uint64_t kGoldenTdmaNoiseless = 0xd12bcc38ec8d6cd3ULL;
constexpr std::uint64_t kGoldenTdmaNoisy = 0xfcbd1967dae061e3ULL;

TEST(TdmaEquivalence, GoldenFingerprints) {
    // Messages shorter than message_bits exercise the zero-padding of
    // delivered records. The noiseless configuration delivers every message
    // exactly; the noisy one (three repetitions at eps = 0.2) misdecodes
    // about a quarter of the nodes' deliveries, so corrupted records and
    // the mismatch counter enter the digest too.
    Rng rng(13);
    const Graph g = make_erdos_renyi(28, 0.2, rng);
    const auto messages = make_messages(g, 7, 21);
    std::vector<RoundSpec> specs;
    for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
        specs.push_back(RoundSpec{&messages, nonce, nullptr});
    }
    const auto digest = [&](double epsilon, std::size_t repetitions, std::size_t threads) {
        TdmaParams params;
        params.epsilon = epsilon;
        params.message_bits = 9;
        params.repetitions = repetitions;
        params.threads = threads;
        const TdmaTransport transport(g, params);
        std::uint64_t h = 0;
        for (const auto& round : transport.simulate_rounds(specs)) {
            h = mix64(h ^ fingerprint(round));
        }
        return h;
    };
    for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        EXPECT_EQ(digest(0.0, 1, threads), kGoldenTdmaNoiseless);
        EXPECT_EQ(digest(0.2, 3, threads), kGoldenTdmaNoisy);
    }
}

TEST(TdmaEquivalence, BatchedRoundsMatchSingleRounds) {
    Rng rng(12);
    const Graph g = make_erdos_renyi(20, 0.25, rng);
    const auto messages = make_messages(g, 8, 17);
    TdmaParams params;
    params.epsilon = 0.1;
    params.message_bits = 8;
    params.repetitions = 7;
    params.threads = 1;
    const TdmaTransport transport(g, params);
    std::vector<RoundSpec> specs;
    for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
        specs.push_back(RoundSpec{&messages, nonce, nullptr});
    }
    const auto batched = transport.simulate_rounds(specs);
    ASSERT_EQ(batched.size(), specs.size());
    for (std::uint64_t nonce = 0; nonce < specs.size(); ++nonce) {
        expect_equal_rounds(batched[nonce], transport.simulate_round(messages, nonce));
    }
    FaultModel faults;
    faults.jammers = {1};
    const RoundSpec faulty{&messages, 0, &faults};
    EXPECT_THROW(transport.simulate_rounds({&faulty, 1}), precondition_error);
}

}  // namespace
}  // namespace nb
