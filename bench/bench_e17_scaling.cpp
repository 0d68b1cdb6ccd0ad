// E17 — transport thread scaling: batched simulated rounds per second at
// n = 65536 on a ring, through BeepTransport at 1, 2, and 4 pool threads.
// Both the round build (Codebook::round) and the decode fan out over the
// transport's pool, so the 1→4 ratio measures what the pool buys end to
// end. The bench computes its own verdict from the rows and exits 1 when
// the 4-thread rate is below 2x the 1-thread rate on a machine with at
// least 4 cores (elsewhere it only requires every rate to be positive);
// check_perf_regression.py --scaling applies the same gate to the JSON,
// which records hardware_concurrency so the gate can tell which case it is
// in.
//
// The workload mirrors the demo-ring-* registry specs: a ring keeps the max
// degree (and so the beep-code length) constant while n drives the work.
// Determinism is not re-proven here — test_transport_equivalence.cpp pins
// bit-identity across thread counts; this bench only measures wall-clock.
#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "graph/generators.h"
#include "sim/transport.h"

namespace {

using namespace nb;

constexpr double kRequiredSpeedup = 2.0;  ///< 1->4 thread gate (>= 4 cores)

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct Measurement {
    std::size_t threads = 0;
    std::size_t beep_rounds = 0;
    double batched_rounds_per_s = 0.0;
};

/// Best of `passes` timed batches of `rounds` rounds, after one warm-up
/// batch (codebook, arenas and recycled rounds warm).
Measurement measure(const Graph& graph, std::size_t threads, std::size_t rounds,
                    std::size_t passes) {
    SimulationParams params;
    params.epsilon = 0.05;
    params.message_bits = 2;
    params.c_eps = 4;
    params.decoy_count = 8;
    params.threads = threads;
    const BeepTransport transport(graph, params);

    Rng message_rng(0xe17);
    std::vector<std::optional<Bitstring>> messages(graph.node_count());
    for (NodeId v = 0; v < graph.node_count(); ++v) {
        messages[v] = Bitstring::random(message_rng, params.message_bits);
    }

    std::vector<RoundSpec> specs;
    specs.reserve(rounds);
    for (std::uint64_t nonce = 0; nonce < rounds; ++nonce) {
        specs.push_back(RoundSpec{&messages, nonce, nullptr});
    }

    TransportBatch batch;
    transport.simulate_rounds_into(specs, batch);  // warm-up

    Measurement m;
    m.threads = threads;
    m.beep_rounds = transport.rounds_per_broadcast_round();
    for (std::size_t pass = 0; pass < passes; ++pass) {
        const auto start = std::chrono::steady_clock::now();
        transport.simulate_rounds_into(specs, batch);
        m.batched_rounds_per_s = std::max(m.batched_rounds_per_s,
                                          static_cast<double>(rounds) / seconds_since(start));
    }
    return m;
}

}  // namespace

int main() {
    using namespace nb;
    bench::header("E17", "transport thread scaling at n=65536",
                  "implementation bench (no paper claim): batched rounds per "
                  "second on a ring through BeepTransport at 1/2/4 threads");

    const Graph graph = make_ring(65536);
    const std::size_t cores = std::thread::hardware_concurrency();

    std::vector<Measurement> measurements;
    for (const std::size_t threads : {1, 2, 4}) {
        measurements.push_back(measure(graph, threads, /*rounds=*/4, /*passes=*/3));
    }

    const double base = measurements.front().batched_rounds_per_s;
    Table table({"threads", "beep rounds", "batched (rounds/s)", "speedup vs 1"});
    for (const auto& m : measurements) {
        table.add_row({Table::num(m.threads), Table::num(m.beep_rounds),
                       Table::num(m.batched_rounds_per_s, 2),
                       Table::num(m.batched_rounds_per_s / base, 2)});
    }
    table.print(std::cout, "BeepTransport::simulate_rounds_into, ring n=65536");
    std::cout << "hardware_concurrency: " << cores << "\n\n";

    bench::write_json_file("BENCH_scaling.json", [&](JsonWriter& json) {
        json.begin_object();
        json.kv("bench", "thread_scaling");
        json.kv("n", std::size_t{65536});
        json.kv("topology", "ring");
        json.kv("message_bits", std::size_t{2});
        json.kv("hardware_concurrency", cores);
        json.key("results").begin_array();
        for (const auto& m : measurements) {
            json.begin_object();
            json.kv("threads", m.threads);
            json.kv("beep_rounds_per_round", m.beep_rounds);
            json.kv("batched_rounds_per_s", m.batched_rounds_per_s);
            json.end_object();
        }
        json.end_array();
        json.end_object();
    });

    const bool rates_positive =
        std::all_of(measurements.begin(), measurements.end(),
                    [](const Measurement& m) { return m.batched_rounds_per_s > 0.0; });
    const double speedup = measurements.back().batched_rounds_per_s / base;
    const bool gated = cores >= 4;
    const bool pass = rates_positive && (!gated || speedup >= kRequiredSpeedup);
    std::ostringstream text;
    text << std::fixed << std::setprecision(2) << "1->4 thread speedup " << speedup << "x";
    if (!rates_positive) {
        text << "; FAILED: a non-positive rate";
    } else if (!gated) {
        text << " (hardware_concurrency " << cores << " < 4: threshold not applied)";
    } else if (pass) {
        text << " (required " << kRequiredSpeedup << "x)";
    } else {
        text << "; FAILED: below the required " << kRequiredSpeedup << "x";
    }
    bench::verdict(text.str());
    return pass ? 0 : 1;
}
