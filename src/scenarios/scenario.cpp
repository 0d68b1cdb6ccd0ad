#include "scenarios/scenario.h"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/cancel.h"
#include "common/error.h"
#include "common/rng.h"
#include "graph/generators.h"

namespace nb {

Graph TopologySpec::build() const {
    Rng rng(seed);
    switch (family) {
        case Family::complete:
            return make_complete(n);
        case Family::complete_bipartite:
            // `degree` is the left-part size; the right part fills up to n.
            require(degree >= 1 && degree < n,
                    "TopologySpec: complete_bipartite needs 1 <= degree < n");
            return make_complete_bipartite(degree, n - degree);
        case Family::hard_instance:
            return make_hard_instance(n, degree);
        case Family::ring:
            return make_ring(n);
        case Family::path:
            return make_path(n);
        case Family::star:
            return make_star(n);
        case Family::grid:
            // rows*cols defines the node count; a half-specified grid would
            // silently shrink to rows x 1, so demand both dimensions.
            require(rows > 0 && cols > 0, "TopologySpec: grid needs rows and cols set");
            return make_grid(rows, cols);
        case Family::tree:
            return make_tree(n, degree);
        case Family::erdos_renyi:
            return make_erdos_renyi(n, edge_probability, rng);
        case Family::random_regular: {
            // The historical benches' parity fixup: the pairing model needs
            // n*d even, so an odd product bumps the degree by one.
            std::size_t d = degree;
            if ((n * d) % 2 != 0) {
                ++d;
            }
            return make_random_regular(n, d, rng);
        }
        case Family::random_geometric:
            return make_random_geometric(n, radius, rng);
    }
    throw precondition_error("TopologySpec: unknown family");
}

const char* TopologySpec::family_name() const noexcept {
    switch (family) {
        case Family::complete:
            return "complete";
        case Family::complete_bipartite:
            return "complete_bipartite";
        case Family::hard_instance:
            return "hard_instance";
        case Family::ring:
            return "ring";
        case Family::path:
            return "path";
        case Family::star:
            return "star";
        case Family::grid:
            return "grid";
        case Family::tree:
            return "tree";
        case Family::erdos_renyi:
            return "erdos_renyi";
        case Family::random_regular:
            return "random_regular";
        case Family::random_geometric:
            return "random_geometric";
    }
    return "unknown";
}

std::string TopologySpec::describe() const {
    char buffer[128];
    switch (family) {
        case Family::erdos_renyi:
            std::snprintf(buffer, sizeof buffer, "erdos_renyi(n=%zu, p=%.3g)", n,
                          edge_probability);
            break;
        case Family::random_geometric:
            std::snprintf(buffer, sizeof buffer, "random_geometric(n=%zu, r=%.3g)", n,
                          radius);
            break;
        case Family::grid:
            std::snprintf(buffer, sizeof buffer, "grid(%zux%zu)", rows, cols);
            break;
        case Family::random_regular:
        case Family::tree:
        case Family::complete_bipartite:
        case Family::hard_instance:
            std::snprintf(buffer, sizeof buffer, "%s(n=%zu, d=%zu)", family_name(), n,
                          degree);
            break;
        default:
            std::snprintf(buffer, sizeof buffer, "%s(n=%zu)", family_name(), n);
    }
    return buffer;
}

std::vector<std::optional<Bitstring>> WorkloadSpec::build(const Graph& graph) const {
    require(silent_fraction >= 0.0 && silent_fraction <= 1.0,
            "WorkloadSpec: silent_fraction must be in [0, 1]");
    Rng rng(seed);
    std::vector<std::optional<Bitstring>> messages(graph.node_count());
    for (NodeId v = 0; v < graph.node_count(); ++v) {
        // No Bernoulli draw when silent_fraction == 0: the draw sequence
        // must match the legacy benches' plain per-node random loop.
        if (silent_fraction > 0.0 && rng.bernoulli(silent_fraction)) {
            continue;
        }
        messages[v] = Bitstring::random(rng, message_bits);
    }
    return messages;
}

double ScenarioSpec::effective_decoder_epsilon() const {
    return decoder_epsilon >= 0.0 ? decoder_epsilon : channel.design_epsilon();
}

SimulationParams ScenarioSpec::sim_params() const {
    SimulationParams params;
    params.epsilon = effective_decoder_epsilon();
    // Carry the explicit model only when it differs from iid(epsilon), so
    // iid scenarios exercise the default (paper) configuration path.
    if (!(channel.is_iid() && channel == ChannelModel::iid(params.epsilon))) {
        params.channel = channel;
    }
    params.message_bits = workload.message_bits;
    params.c_eps = c_eps;
    params.dictionary = dictionary;
    params.decoy_count = decoy_count;
    params.threads = threads;
    return params;
}

TdmaParams ScenarioSpec::tdma_params(std::size_t node_count) const {
    TdmaParams params;
    params.epsilon = effective_decoder_epsilon();
    if (!(channel.is_iid() && channel == ChannelModel::iid(params.epsilon))) {
        params.channel = channel;
    }
    params.message_bits = workload.message_bits;
    params.repetitions = tdma_repetitions > 0
                             ? tdma_repetitions
                             : TdmaParams::recommended_repetitions(node_count, params.epsilon);
    params.threads = threads;
    return params;
}

void ScenarioSpec::validate() const {
    require(!name.empty(), "ScenarioSpec: name must not be empty");
    require(rounds >= 1, "ScenarioSpec: at least one round required");
    channel.validate();
    for (const auto& window : faults) {
        require(window.first_round <= window.last_round,
                "ScenarioSpec: fault window must have first_round <= last_round");
        require(transport == TransportKind::beep || window.faults.empty(),
                "ScenarioSpec: the TDMA baseline does not model faults");
    }
    if (transport == TransportKind::beep) {
        sim_params().validate();
    }
}

namespace {

const FaultModel* faults_for_round(const std::vector<FaultWindow>& windows,
                                   std::size_t round) {
    for (const auto& window : windows) {
        if (round >= window.first_round && round <= window.last_round) {
            // First containing window wins — an explicitly empty one is a
            // clean window that shadows any catch-all behind it.
            return window.faults.empty() ? nullptr : &window.faults;
        }
    }
    return nullptr;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec) {
    spec.validate();

    const Graph graph = spec.topology.build();
    // RoundSpec::messages/faults are non-owning: both live here, on the
    // runner's frame, for the whole simulate_rounds_into call.
    const std::vector<std::optional<Bitstring>> messages = spec.workload.build(graph);

    std::unique_ptr<Transport> transport;
    if (spec.transport == TransportKind::beep) {
        transport = std::make_unique<BeepTransport>(graph, spec.sim_params());
    } else {
        transport = std::make_unique<TdmaTransport>(graph, spec.tdma_params(graph.node_count()));
    }

    std::vector<RoundSpec> round_specs;
    round_specs.reserve(spec.rounds);
    for (std::uint64_t nonce = 0; nonce < spec.rounds; ++nonce) {
        round_specs.push_back(RoundSpec{&messages, nonce, faults_for_round(spec.faults, nonce)});
    }

    // The result is counters only, so they are read straight from the
    // batch; its delivered records are never turned into Bitstrings.
    TransportBatch batch;
    const auto start = std::chrono::steady_clock::now();
    transport->simulate_rounds_into(round_specs, batch);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    ScenarioResult result;
    result.name = spec.name;
    result.description = spec.description;
    result.topology = spec.topology.describe();
    result.channel = spec.channel.describe();
    result.transport = spec.transport == TransportKind::beep ? "beep" : "tdma";
    result.node_count = graph.node_count();
    result.max_degree = graph.max_degree();
    result.rounds = batch.rounds();
    result.wall_seconds = wall;
    result.rounds_per_second =
        wall > 0.0 ? static_cast<double>(batch.rounds()) / wall : 0.0;
    for (std::size_t i = 0; i < batch.rounds(); ++i) {
        const auto& round = batch.stats(i);
        result.perfect_rounds += round.perfect ? 1 : 0;
        result.beep_rounds_per_round = round.beep_rounds;  // constant per transport
        result.total_beeps += round.total_beeps;
        result.phase1_false_negatives += round.phase1_false_negatives;
        result.phase1_false_positives += round.phase1_false_positives;
        result.phase2_errors += round.phase2_errors;
        result.delivery_mismatches += round.delivery_mismatches;
    }
    return result;
}

ScenarioResult run_scenario_with_timeout(const ScenarioSpec& spec, double timeout_seconds) {
    if (timeout_seconds <= 0.0) {
        return run_scenario(spec);
    }
    CancelToken token;
    token.set_timeout(std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(timeout_seconds)));
    // Same watchdog shape as the sweep engine's per-attempt token: the
    // transports' round-boundary polls see the deadline through the
    // thread-local scope, no plumbing through their signatures.
    CancelScope scope(&token);
    return run_scenario(spec);
}

std::uint64_t scenario_spec_fingerprint(const ScenarioSpec& spec) {
    std::uint64_t h = 0x6e622d737063ULL;  // "nb-spc"
    const auto mix = [&h](std::uint64_t value) { h = mix64(h ^ value); };
    const auto mix_double = [&mix](double value) {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(value));
        std::memcpy(&bits, &value, sizeof(bits));
        mix(bits);
    };
    const auto mix_string = [&mix](const std::string& text) {
        mix(text.size());
        std::uint64_t word = 0;
        std::size_t fill = 0;
        for (const char c : text) {
            word = (word << 8) | static_cast<unsigned char>(c);
            if (++fill == 8) {
                mix(word);
                word = 0;
                fill = 0;
            }
        }
        if (fill != 0) {
            mix(word);
        }
    };

    mix_string(spec.name);
    mix_string(spec.description);

    mix(static_cast<std::uint64_t>(spec.topology.family));
    mix(spec.topology.n);
    mix(spec.topology.degree);
    mix_double(spec.topology.edge_probability);
    mix_double(spec.topology.radius);
    mix(spec.topology.rows);
    mix(spec.topology.cols);
    mix(spec.topology.seed);

    mix(static_cast<std::uint64_t>(spec.channel.kind));
    mix_double(spec.channel.epsilon);
    mix(spec.channel.noise_on_own_beep ? 1 : 0);
    mix_double(spec.channel.ge_p_enter_burst);
    mix_double(spec.channel.ge_p_exit_burst);
    mix_double(spec.channel.ge_epsilon_good);
    mix_double(spec.channel.ge_epsilon_bad);
    mix_double(spec.channel.het_epsilon_min);
    mix_double(spec.channel.het_epsilon_max);
    mix(spec.channel.het_seed);
    mix(spec.channel.adv_budget);

    mix(static_cast<std::uint64_t>(spec.transport));
    mix(spec.workload.message_bits);
    mix_double(spec.workload.silent_fraction);
    mix(spec.workload.seed);

    mix(spec.faults.size());
    for (const auto& window : spec.faults) {
        mix(window.first_round);
        mix(window.last_round);
        mix(window.faults.jammers.size());
        for (const NodeId v : window.faults.jammers) {
            mix(v);
        }
        mix(window.faults.crashed.size());
        for (const NodeId v : window.faults.crashed) {
            mix(v);
        }
    }

    mix(spec.rounds);
    mix_double(spec.decoder_epsilon);
    mix(spec.c_eps);
    mix(static_cast<std::uint64_t>(spec.dictionary));
    mix(spec.decoy_count);
    // The retired spec-level bitslice threshold, mixed as the library
    // default it always carried, so journals and sweep fingerprints written
    // before it left the spec stay valid.
    mix(SimulationParams{}.bitslice_min_candidates);
    mix(spec.tdma_repetitions);
    // spec.threads deliberately not mixed: an execution knob, not an input —
    // outputs are bit-identical for every value, so a resumed sweep may
    // change it and still replay its journal.
    return h;
}

void scenario_result_json(JsonWriter& json, const ScenarioResult& r, bool include_timing) {
    json.begin_object();
    json.kv("name", r.name);
    json.kv("description", r.description);
    json.kv("topology", r.topology);
    json.kv("channel", r.channel);
    json.kv("transport", r.transport);
    json.kv("n", r.node_count);
    json.kv("delta", r.max_degree);
    json.kv("rounds", r.rounds);
    json.kv("perfect_rounds", r.perfect_rounds);
    json.kv("perfect_fraction", r.perfect_fraction());
    json.kv("beep_rounds_per_round", r.beep_rounds_per_round);
    json.kv("total_beeps", r.total_beeps);
    json.kv("phase1_false_negatives", r.phase1_false_negatives);
    json.kv("phase1_false_positives", r.phase1_false_positives);
    json.kv("phase2_errors", r.phase2_errors);
    json.kv("delivery_mismatches", r.delivery_mismatches);
    if (include_timing) {
        json.kv("wall_seconds", r.wall_seconds);
        json.kv("rounds_per_second", r.rounds_per_second);
    }
    json.end_object();
}

void scenario_results_json(JsonWriter& json, std::span<const ScenarioResult> results) {
    json.begin_object();
    json.kv("schema", "nb-scenarios/v1");
    json.key("results").begin_array();
    for (const auto& r : results) {
        scenario_result_json(json, r, /*include_timing=*/true);
    }
    json.end_array();
    json.end_object();
}

}  // namespace nb
