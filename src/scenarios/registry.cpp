#include "scenarios/registry.h"

#include <cstdarg>
#include <cstdio>

#include "common/math_util.h"

namespace nb::scenarios {

namespace {

TopologySpec regular_topology(std::size_t n, std::size_t degree, std::uint64_t seed) {
    TopologySpec topology;
    topology.family = TopologySpec::Family::random_regular;
    topology.n = n;
    topology.degree = degree;
    topology.seed = seed;
    return topology;
}

std::string format_name(const char* format, ...) {
    char buffer[96];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buffer, sizeof buffer, format, args);
    va_end(args);
    return buffer;
}

}  // namespace

ScenarioSpec e5_overhead_point(std::size_t degree, TransportKind transport) {
    const std::size_t n = 256;
    ScenarioSpec spec;
    spec.name = format_name("e5-delta%zu-%s", degree,
                            transport == TransportKind::beep ? "beep" : "tdma");
    spec.description = "Theorem 11 Delta-scaling point: beep rounds per Broadcast "
                       "CONGEST round at n=256, eps=0.1";
    spec.topology = regular_topology(n, degree, 0xe5 + degree);
    spec.channel = ChannelModel::iid(0.1);
    spec.transport = transport;
    spec.workload.message_bits = ceil_log2(n);
    spec.workload.seed = 5 + degree;
    spec.rounds = 4;
    spec.c_eps = 4;
    return spec;
}

ScenarioSpec e6_overhead_point(std::size_t n) {
    ScenarioSpec spec;
    spec.name = format_name("e6-n%zu", n);
    spec.description = "Theorem 11 n-scaling point: beep rounds per Broadcast "
                       "CONGEST round at Delta~8, eps=0.1";
    spec.topology = regular_topology(n, 8, 0xe6 + n);
    spec.channel = ChannelModel::iid(0.1);
    spec.workload.message_bits = ceil_log2(n);
    spec.workload.seed = n;
    spec.rounds = 4;
    spec.c_eps = 4;
    return spec;
}

ScenarioSpec e11_noise_point(double epsilon, std::size_t c_eps) {
    const std::size_t n = 64;
    ScenarioSpec spec;
    spec.name = format_name("e11-eps%.2f-c%zu", epsilon, c_eps);
    spec.description = "Section 1.3 noise-sweep point: perfect-round rate at "
                       "n=64, Delta~8";
    spec.topology = regular_topology(n, 8, 0xe11);
    spec.channel = ChannelModel::iid(epsilon);
    spec.workload.message_bits = ceil_log2(n);
    spec.workload.seed = 11;
    spec.rounds = 8;
    spec.c_eps = c_eps;
    return spec;
}

const std::vector<ScenarioSpec>& shipped_scenarios() {
    static const std::vector<ScenarioSpec> specs = [] {
        std::vector<ScenarioSpec> all;

        all.push_back(e5_overhead_point(8, TransportKind::beep));
        all.push_back(e5_overhead_point(8, TransportKind::tdma));
        all.push_back(e6_overhead_point(256));
        all.push_back(e11_noise_point(0.1, 4));

        {
            // Bursty noise: quiet channel that degrades hard inside bursts
            // of mean length 1/0.15 ~ 7 beep rounds; the decoder keeps its
            // thresholds sized for the stationary average rate.
            ScenarioSpec spec;
            spec.name = "ge-burst";
            spec.description = "Gilbert-Elliott bursty channel on the E11 topology: "
                               "does Algorithm 1 ride out bursts the iid analysis "
                               "never promised to cover?";
            spec.topology = regular_topology(64, 8, 0xe11);
            spec.channel = ChannelModel::gilbert_elliott(/*p_enter_burst=*/0.03,
                                                         /*p_exit_burst=*/0.15,
                                                         /*epsilon_good=*/0.02,
                                                         /*epsilon_bad=*/0.35);
            spec.workload.message_bits = 6;
            spec.workload.seed = 11;
            spec.rounds = 8;
            spec.c_eps = 6;
            all.push_back(std::move(spec));
        }
        {
            // PODS-style per-node heterogeneity: every node listens through
            // its own epsilon in [0.02, 0.3].
            ScenarioSpec spec;
            spec.name = "het-pernode";
            spec.description = "heterogeneous per-node noise rates drawn from "
                               "[0.02, 0.30]: thresholds sized for the midpoint";
            spec.topology = regular_topology(64, 8, 0xe11);
            spec.channel = ChannelModel::heterogeneous(0.02, 0.30, /*seed=*/0x686574);
            spec.workload.message_bits = 6;
            spec.workload.seed = 11;
            spec.rounds = 8;
            spec.c_eps = 6;
            all.push_back(std::move(spec));
        }
        {
            // Adversarial erasures: a budget of 64 erased 1s per transcript
            // per phase, against thresholds designed for zero noise.
            ScenarioSpec spec;
            spec.name = "adv-budget64";
            spec.description = "adversarial erasure budget k=64 per transcript: "
                               "bounded worst-case damage, not sampled noise";
            spec.topology = regular_topology(64, 8, 0xe11);
            spec.channel = ChannelModel::adversarial_budget(64);
            spec.decoder_epsilon = 0.1;  // give Lemma 9 a slack margin
            spec.workload.message_bits = 6;
            spec.workload.seed = 11;
            spec.rounds = 8;
            spec.c_eps = 6;
            all.push_back(std::move(spec));
        }
        {
            // Faults arriving mid-run: rounds 0-1 clean, a jammer plus two
            // crashes from round 2 on.
            ScenarioSpec spec;
            spec.name = "faults-midrun";
            spec.description = "fault schedule: clean rounds 0-1, then jammer {3} "
                               "and crashed {7, 11} from round 2 onward";
            spec.topology = regular_topology(64, 8, 0xe11);
            spec.channel = ChannelModel::iid(0.1);
            spec.workload.message_bits = 6;
            spec.workload.seed = 11;
            spec.rounds = 6;
            spec.c_eps = 4;
            FaultWindow window;
            window.faults.jammers = {3};
            window.faults.crashed = {7, 11};
            window.first_round = 2;
            spec.faults.push_back(std::move(window));
            all.push_back(std::move(spec));
        }
        return all;
    }();
    return specs;
}

const std::vector<ScenarioSpec>& demo_scenarios() {
    static const std::vector<ScenarioSpec> specs = [] {
        std::vector<ScenarioSpec> all;
        // Ring topologies keep the scale demos honest but cheap: max degree 2
        // means the beep-code length stays small while n drives the work.
        {
            ScenarioSpec spec;
            spec.name = "demo-ring-100k";
            spec.description = "scale demo: ring n=10^5, 2 rounds";
            spec.topology.family = TopologySpec::Family::ring;
            spec.topology.n = 100000;
            spec.channel = ChannelModel::iid(0.05);
            spec.workload.message_bits = 2;
            spec.workload.seed = 100;
            spec.rounds = 2;
            spec.c_eps = 4;
            spec.decoy_count = 8;
            all.push_back(std::move(spec));
        }
        {
            ScenarioSpec spec;
            spec.name = "demo-ring-1m";
            spec.description = "scale demo: ring n=10^6, 1 round";
            spec.topology.family = TopologySpec::Family::ring;
            spec.topology.n = 1000000;
            spec.channel = ChannelModel::iid(0.05);
            spec.workload.message_bits = 2;
            spec.workload.seed = 1000;
            spec.rounds = 1;
            spec.c_eps = 4;
            spec.decoy_count = 8;
            all.push_back(std::move(spec));
        }
        return all;
    }();
    return specs;
}

SweepSpec shipped_sweep(std::vector<std::uint64_t> seeds) {
    SweepSpec sweep;
    sweep.name = "shipped-x-seeds";
    sweep.bases = shipped_scenarios();
    sweep.axes.seeds = std::move(seeds);
    return sweep;
}

const ScenarioSpec* find_scenario(std::string_view name) {
    for (const auto& spec : shipped_scenarios()) {
        if (spec.name == name) {
            return &spec;
        }
    }
    for (const auto& spec : demo_scenarios()) {
        if (spec.name == name) {
            return &spec;
        }
    }
    return nullptr;
}

}  // namespace nb::scenarios
