// Tests for the scenario layer: topology/workload builders, spec
// validation, runner determinism, the registry contract, the JSON schema,
// and the acceptance pin that the registered E11 spec reproduces the legacy
// bench's numbers through the scenario runner.
#include <gtest/gtest.h>

#include <sstream>

#include "alloc_hooks.h"
#include "common/cancel.h"
#include "common/error.h"
#include "common/math_util.h"
#include "graph/generators.h"
#include "scenarios/registry.h"
#include "scenarios/scenario.h"
#include "sim/transport.h"

namespace nb {
namespace {

TEST(TopologySpec, BuildsEveryFamily) {
    TopologySpec spec;
    spec.n = 12;
    spec.degree = 3;

    spec.family = TopologySpec::Family::complete;
    EXPECT_EQ(spec.build().node_count(), 12u);
    EXPECT_EQ(spec.build().max_degree(), 11u);

    spec.family = TopologySpec::Family::ring;
    EXPECT_EQ(spec.build().max_degree(), 2u);

    spec.family = TopologySpec::Family::path;
    EXPECT_EQ(spec.build().node_count(), 12u);

    spec.family = TopologySpec::Family::star;
    EXPECT_EQ(spec.build().max_degree(), 11u);

    spec.family = TopologySpec::Family::tree;
    EXPECT_EQ(spec.build().node_count(), 12u);

    spec.family = TopologySpec::Family::hard_instance;
    EXPECT_EQ(spec.build().node_count(), 12u);
    EXPECT_EQ(spec.build().max_degree(), 3u);

    spec.family = TopologySpec::Family::grid;
    EXPECT_THROW(spec.build(), precondition_error);  // both dims required
    spec.rows = 3;
    spec.cols = 4;
    EXPECT_EQ(spec.build().node_count(), 12u);

    spec.family = TopologySpec::Family::erdos_renyi;
    EXPECT_EQ(spec.build().node_count(), 12u);

    spec.family = TopologySpec::Family::random_geometric;
    EXPECT_EQ(spec.build().node_count(), 12u);

    spec.family = TopologySpec::Family::random_regular;
    const Graph regular = spec.build();
    EXPECT_EQ(regular.node_count(), 12u);
    EXPECT_LE(regular.max_degree(), 4u);  // parity fixup may bump d to 4
}

TEST(TopologySpec, RandomRegularMatchesBenchHelper) {
    // The historical benches' helper (including the odd-product parity
    // fixup) and the spec builder must be the same graph for the same seed.
    TopologySpec spec;
    spec.family = TopologySpec::Family::random_regular;
    spec.n = 64;
    spec.degree = 8;
    spec.seed = 0xe11;
    Rng rng(0xe11);
    const Graph expected = make_random_regular(64, 8, rng);
    const Graph built = spec.build();
    ASSERT_EQ(built.node_count(), expected.node_count());
    for (NodeId v = 0; v < built.node_count(); ++v) {
        EXPECT_EQ(built.degree(v), expected.degree(v)) << "node " << v;
    }
}

TEST(WorkloadSpec, MatchesLegacyDrawSequenceWhenNobodySilent) {
    const Graph g = make_ring(10);
    WorkloadSpec workload;
    workload.message_bits = 6;
    workload.seed = 11;
    const auto messages = workload.build(g);
    Rng rng(11);
    for (NodeId v = 0; v < g.node_count(); ++v) {
        ASSERT_TRUE(messages[v].has_value());
        EXPECT_EQ(*messages[v], Bitstring::random(rng, 6)) << "node " << v;
    }
}

TEST(WorkloadSpec, SilentFractionBounds) {
    const Graph g = make_ring(8);
    WorkloadSpec workload;
    workload.silent_fraction = 1.0;
    for (const auto& message : workload.build(g)) {
        EXPECT_FALSE(message.has_value());
    }
    workload.silent_fraction = 1.5;
    EXPECT_THROW(workload.build(g), precondition_error);
}

TEST(ScenarioSpec, Validation) {
    ScenarioSpec spec = scenarios::e11_noise_point(0.1, 4);
    EXPECT_NO_THROW(spec.validate());

    ScenarioSpec unnamed = spec;
    unnamed.name.clear();
    EXPECT_THROW(unnamed.validate(), precondition_error);

    ScenarioSpec no_rounds = spec;
    no_rounds.rounds = 0;
    EXPECT_THROW(no_rounds.validate(), precondition_error);

    ScenarioSpec bad_window = spec;
    FaultWindow window;
    window.faults.jammers = {1};
    window.first_round = 3;
    window.last_round = 1;
    bad_window.faults.push_back(window);
    EXPECT_THROW(bad_window.validate(), precondition_error);

    // The TDMA baseline does not model faults; a spec combining them must
    // fail fast at validation, not mid-run.
    ScenarioSpec tdma_faults = spec;
    tdma_faults.transport = TransportKind::tdma;
    FaultWindow active;
    active.faults.crashed = {2};
    tdma_faults.faults.push_back(active);
    EXPECT_THROW(tdma_faults.validate(), precondition_error);
}

TEST(ScenarioSpec, DecoderEpsilonDefaultsToChannelDesignRate) {
    ScenarioSpec spec = scenarios::e11_noise_point(0.1, 4);
    EXPECT_DOUBLE_EQ(spec.effective_decoder_epsilon(), 0.1);
    spec.channel = ChannelModel::heterogeneous(0.1, 0.3, 1);
    EXPECT_DOUBLE_EQ(spec.effective_decoder_epsilon(), 0.2);
    spec.decoder_epsilon = 0.05;
    EXPECT_DOUBLE_EQ(spec.effective_decoder_epsilon(), 0.05);
    // Non-iid channels ride in SimulationParams::channel; iid ones use the
    // default paper configuration (channel unset).
    EXPECT_TRUE(spec.sim_params().channel.has_value());
    EXPECT_FALSE(scenarios::e11_noise_point(0.1, 4).sim_params().channel.has_value());
}

TEST(RunScenario, DeterministicAcrossRuns) {
    const ScenarioSpec spec = scenarios::e11_noise_point(0.2, 5);
    const ScenarioResult a = run_scenario(spec);
    const ScenarioResult b = run_scenario(spec);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.perfect_rounds, b.perfect_rounds);
    EXPECT_EQ(a.total_beeps, b.total_beeps);
    EXPECT_EQ(a.phase1_false_negatives, b.phase1_false_negatives);
    EXPECT_EQ(a.phase1_false_positives, b.phase1_false_positives);
    EXPECT_EQ(a.phase2_errors, b.phase2_errors);
    EXPECT_EQ(a.delivery_mismatches, b.delivery_mismatches);
}

TEST(ScenarioSpec, FingerprintIgnoresThreadCount) {
    // The journal contract: the thread count is an execution knob, so
    // changing it must not invalidate resume.
    ScenarioSpec spec = scenarios::shipped_scenarios().front();
    const std::uint64_t reference = scenario_spec_fingerprint(spec);
    spec.threads = 4;
    EXPECT_EQ(scenario_spec_fingerprint(spec), reference);
}

TEST(RunScenario, DemoRing100kRunsEndToEnd) {
    const ScenarioSpec* demo = scenarios::find_scenario("demo-ring-100k");
    ASSERT_NE(demo, nullptr);
    const ScenarioResult result = run_scenario(*demo);
    EXPECT_EQ(result.node_count, 100000u);
    EXPECT_EQ(result.rounds, 2u);
    EXPECT_EQ(result.max_degree, 2u);  // ring
    EXPECT_GT(result.beep_rounds_per_round, 0u);
    EXPECT_GT(result.total_beeps, 0u);
}

TEST(RunScenario, TimeoutGoesThroughTheWatchdogTokenPath) {
    const ScenarioSpec spec = scenarios::e11_noise_point(0.2, 5);

    // No deadline (or a generous one): identical to plain run_scenario.
    const ScenarioResult plain = run_scenario(spec);
    const ScenarioResult unbounded = run_scenario_with_timeout(spec, 0.0);
    const ScenarioResult generous = run_scenario_with_timeout(spec, 3600.0);
    EXPECT_EQ(plain.total_beeps, unbounded.total_beeps);
    EXPECT_EQ(plain.total_beeps, generous.total_beeps);

    // An already-expired deadline: the transports' round-boundary polls
    // unwind with cancelled_error — the same token path the sweep engine's
    // per-job watchdog uses, now reachable for single runs (nb_run
    // --timeout without --sweep).
    EXPECT_THROW(run_scenario_with_timeout(spec, 1e-9), cancelled_error);

    // The thread-local scope is restored: the next plain run is unaffected.
    EXPECT_EQ(run_scenario(spec).total_beeps, plain.total_beeps);
}

TEST(RunScenario, E11SpecReproducesLegacyBenchNumbers) {
    // The acceptance pin: the registered E11 point, executed by the unified
    // runner, must equal the legacy bench's hand-rolled loop (same graph
    // seed, same message stream, same transport parameters, same nonces).
    const ScenarioSpec spec = scenarios::e11_noise_point(0.1, 4);
    const ScenarioResult via_runner = run_scenario(spec);

    Rng graph_rng(0xe11);
    const Graph g = make_random_regular(64, 8, graph_rng);
    SimulationParams params;
    params.epsilon = 0.1;
    params.message_bits = ceil_log2(64);
    params.c_eps = 4;
    const BeepTransport transport(g, params);
    Rng message_rng(11);
    std::vector<std::optional<Bitstring>> messages(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
        messages[v] = Bitstring::random(message_rng, params.message_bits);
    }
    std::vector<RoundSpec> specs;
    for (std::uint64_t nonce = 0; nonce < 8; ++nonce) {
        specs.push_back(RoundSpec{&messages, nonce, nullptr});
    }
    std::size_t perfect = 0;
    std::uint64_t beeps = 0;
    for (const auto& round : transport.simulate_rounds(specs)) {
        perfect += round.perfect ? 1 : 0;
        beeps += round.total_beeps;
    }

    EXPECT_EQ(via_runner.rounds, 8u);
    EXPECT_EQ(via_runner.perfect_rounds, perfect);
    EXPECT_EQ(via_runner.total_beeps, beeps);
    EXPECT_EQ(via_runner.beep_rounds_per_round, transport.rounds_per_broadcast_round());
    EXPECT_EQ(via_runner.node_count, 64u);
    EXPECT_EQ(via_runner.max_degree, g.max_degree());
}

TEST(RunScenario, AllocationsDoNotGrowWithRounds) {
    // run_scenario reads counters from its batch and never turns delivered
    // records into Bitstrings, so three more rounds cost only a few arena
    // growths, not one object per node and per delivered message. The
    // cached codebook is warm, so every round build recycles in place.
    ScenarioSpec spec;
    spec.name = "test-allocations";
    spec.topology.family = TopologySpec::Family::random_regular;
    spec.topology.n = 2048;
    spec.topology.degree = 8;
    spec.channel = ChannelModel::iid(0.1);
    spec.workload.message_bits = 11;
    spec.dictionary = DictionaryPolicy::two_hop;
    spec.threads = 4;  // arena growth is per worker; pin the worker count
    const auto allocations_at = [&spec](std::size_t rounds) {
        spec.rounds = rounds;
        const std::uint64_t before = alloc_hooks::count();
        const ScenarioResult result = run_scenario(spec);
        const std::uint64_t allocations = alloc_hooks::count() - before;
        EXPECT_EQ(result.rounds, rounds);
        return allocations;
    };
    allocations_at(4);  // warms the codebook cache and its round
    const std::uint64_t one = allocations_at(1);
    const std::uint64_t four = allocations_at(4);
    EXPECT_LE(four, one + 64) << "rounds=1: " << one << ", rounds=4: " << four;
}

TEST(RunScenario, FaultWindowsActivatePerRound) {
    // Noiseless channel, jammer active from round 2 only: rounds 0-1 must
    // be perfect, later rounds must show the jammer's false positives.
    ScenarioSpec spec;
    spec.name = "test-window";
    spec.topology.family = TopologySpec::Family::star;
    spec.topology.n = 8;
    spec.channel = ChannelModel::iid(0.0);
    spec.workload.message_bits = 6;
    spec.workload.seed = 3;
    spec.rounds = 4;
    FaultWindow window;
    window.faults.jammers = {1};
    window.first_round = 2;
    spec.faults.push_back(window);

    const ScenarioResult result = run_scenario(spec);
    EXPECT_EQ(result.rounds, 4u);
    EXPECT_EQ(result.perfect_rounds, 2u);  // exactly the clean rounds 0-1
    EXPECT_GT(result.phase1_false_positives, 0u);

    // First containing window wins: an explicitly empty window shadows a
    // catch-all jammer behind it, so rounds 0-1 stay clean even though the
    // second window covers them too.
    ScenarioSpec shadowed = spec;
    shadowed.faults.clear();
    FaultWindow clean;
    clean.last_round = 1;
    shadowed.faults.push_back(clean);
    FaultWindow catch_all;
    catch_all.faults.jammers = {1};
    shadowed.faults.push_back(catch_all);
    const ScenarioResult shadowed_result = run_scenario(shadowed);
    EXPECT_EQ(shadowed_result.perfect_rounds, 2u);
    EXPECT_GT(shadowed_result.phase1_false_positives, 0u);
}

TEST(Registry, ShippedScenariosAreWellFormed) {
    const auto& specs = scenarios::shipped_scenarios();
    ASSERT_GE(specs.size(), 8u);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_NO_THROW(specs[i].validate()) << specs[i].name;
        EXPECT_FALSE(specs[i].description.empty()) << specs[i].name;
        for (std::size_t j = i + 1; j < specs.size(); ++j) {
            EXPECT_NE(specs[i].name, specs[j].name);
        }
        EXPECT_EQ(scenarios::find_scenario(specs[i].name), &specs[i]);
    }
    EXPECT_EQ(scenarios::find_scenario("no-such-scenario"), nullptr);

    // Every channel model kind ships at least one spec.
    bool has_ge = false, has_het = false, has_adv = false, has_iid = false;
    for (const auto& spec : specs) {
        switch (spec.channel.kind) {
            case ChannelModelKind::iid:
                has_iid = true;
                break;
            case ChannelModelKind::gilbert_elliott:
                has_ge = true;
                break;
            case ChannelModelKind::heterogeneous:
                has_het = true;
                break;
            case ChannelModelKind::adversarial_budget:
                has_adv = true;
                break;
        }
    }
    EXPECT_TRUE(has_iid && has_ge && has_het && has_adv);
}

TEST(ScenarioJson, EmitsTheV1Schema) {
    ScenarioResult result;
    result.name = "demo";
    result.description = "a \"quoted\" description";
    result.topology = "ring(n=8)";
    result.channel = "iid(eps=0.1)";
    result.transport = "beep";
    result.node_count = 8;
    result.rounds = 4;
    result.perfect_rounds = 3;
    result.total_beeps = 1234;

    std::ostringstream out;
    JsonWriter json(out);
    scenario_results_json(json, {&result, 1});
    const std::string text = out.str();
    EXPECT_NE(text.find("\"schema\": \"nb-scenarios/v1\""), std::string::npos);
    EXPECT_NE(text.find("\"name\": \"demo\""), std::string::npos);
    EXPECT_NE(text.find("\\\"quoted\\\""), std::string::npos);  // escaping
    EXPECT_NE(text.find("\"perfect_fraction\": 0.75"), std::string::npos);
    EXPECT_NE(text.find("\"total_beeps\": 1234"), std::string::npos);
}

TEST(JsonWriterTest, StructureAndEscaping) {
    std::ostringstream out;
    JsonWriter json(out, /*indent=*/0);
    json.begin_object();
    json.kv("text", "line\nbreak\ttab");
    json.kv("flag", true);
    json.kv("num", 1.5);
    json.key("arr").begin_array().value(1).value(2).end_array();
    json.end_object();
    EXPECT_EQ(out.str(),
              "{\"text\": \"line\\nbreak\\ttab\",\"flag\": true,\"num\": 1.5,"
              "\"arr\": [1,2]}");

    std::ostringstream bad;
    JsonWriter broken(bad);
    broken.begin_array();
    EXPECT_THROW(broken.key("k"), precondition_error);
    EXPECT_THROW(broken.end_object(), precondition_error);
}

}  // namespace
}  // namespace nb
