// E16 — transport throughput: simulated Broadcast CONGEST rounds per second
// on the Algorithm 1 transport, single-round loop vs the batched
// simulate_rounds_into path, at n in {256, 1024} with the all_nodes
// dictionary — measured once per SIMD kernel set this machine supports, so
// the JSON records what runtime dispatch actually buys.
//
// This is the implementation-performance bench backing the ROADMAP's "as
// fast as the hardware allows" goal: it prints the usual table AND writes
// machine-readable BENCH_transport.json (in the working directory) so CI
// can archive the perf trajectory across PRs and the perf-smoke job can
// diff it against bench/baselines/BENCH_transport.baseline.json.
//
// Reference points (1-core container, Release, hardware popcount): PR 1
// measured 27.6 rounds/s at n=256 and 2.28 at n=1024 on this workload;
// PR 2's batched path reached 92 and 10.9.
//
// The steady-state allocation column counts operator-new calls (see
// alloc_hooks.h) during a warm simulate_rounds_into batch over a cached
// codebook round at the default worker count — the zero-copy arena
// contract says it is exactly 0, and the bench exits 1 on any nonzero row.
#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "alloc_hooks.h"
#include "bench_util.h"
#include "common/math_util.h"
#include "common/simd/simd.h"
#include "sim/codebook_cache.h"
#include "sim/transport.h"

namespace {

using namespace nb;

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct Measurement {
    std::size_t n = 0;
    std::size_t delta = 0;
    simd::Kernel kernel = simd::Kernel::auto_best;  ///< requested
    simd::Kernel resolved = simd::Kernel::scalar;   ///< what actually ran
    double single_rounds_per_s = 0.0;
    double batched_rounds_per_s = 0.0;
    std::uint64_t steady_allocs = 0;  ///< operator-new calls in the warm batch
    std::size_t arena_words = 0;      ///< result-ring high-water mark
};

Measurement measure(std::size_t n, std::size_t degree, std::size_t rounds,
                    simd::Kernel kernel) {
    const Graph g = bench::regular_graph(n, degree, 0xe16 + n);
    SimulationParams params;
    params.epsilon = 0.1;
    params.message_bits = ceil_log2(n);
    params.c_eps = 4;
    params.dictionary = DictionaryPolicy::all_nodes;
    params.simd_kernel = kernel;
    const BeepTransport transport(g, params);

    Rng message_rng(7);
    std::vector<std::optional<Bitstring>> messages(n);
    for (NodeId v = 0; v < n; ++v) {
        messages[v] = Bitstring::random(message_rng, params.message_bits);
    }

    Measurement m;
    m.n = n;
    m.delta = g.max_degree();
    m.kernel = kernel;
    m.resolved = simd::resolve_kernel(kernel);

    transport.simulate_round(messages, 0);  // warm caches and workspaces

    auto start = std::chrono::steady_clock::now();
    for (std::uint64_t nonce = 1; nonce <= rounds; ++nonce) {
        transport.simulate_round(messages, nonce);
    }
    m.single_rounds_per_s = static_cast<double>(rounds) / seconds_since(start);

    std::vector<RoundSpec> specs;
    specs.reserve(rounds);
    for (std::uint64_t nonce = 1; nonce <= rounds; ++nonce) {
        specs.push_back(RoundSpec{&messages, nonce, nullptr});
    }
    TransportBatch batch;
    start = std::chrono::steady_clock::now();
    transport.simulate_rounds_into(specs, batch);
    m.batched_rounds_per_s = static_cast<double>(batch.rounds()) / seconds_since(start);

    // Steady-state allocation count: a warm batch over one cached codebook
    // round (same messages + nonce throughout) is pure decoding — the arena
    // contract says zero operator-new calls.
    const std::vector<RoundSpec> steady(4, RoundSpec{&messages, 1, nullptr});
    transport.simulate_rounds_into(steady, batch);  // reach high-water
    const std::uint64_t before = alloc_hooks::count();
    transport.simulate_rounds_into(steady, batch);
    m.steady_allocs = alloc_hooks::count() - before;
    m.arena_words = batch.arena_words();
    return m;
}

}  // namespace

int main() {
    using namespace nb;
    bench::header("E16", "transport throughput: single vs batched simulation path",
                  "implementation bench (no paper claim): simulated rounds per "
                  "second with the all_nodes dictionary, eps=0.1, Delta~8, per "
                  "SIMD kernel set");

    std::vector<simd::Kernel> kernels;
    for (const auto k : {simd::Kernel::scalar, simd::Kernel::avx2, simd::Kernel::avx512}) {
        if (simd::kernel_supported(k)) {
            kernels.push_back(k);
        }
    }

    std::vector<Measurement> measurements;
    for (const auto kernel : kernels) {
        measurements.push_back(measure(256, 8, 24, kernel));
        measurements.push_back(measure(1024, 8, 12, kernel));
    }

    Table table({"n", "Delta", "kernel", "single (rounds/s)", "batched (rounds/s)",
                 "batched/single", "steady allocs"});
    for (const auto& m : measurements) {
        table.add_row({Table::num(m.n), Table::num(m.delta), simd::kernel_name(m.resolved),
                       Table::num(m.single_rounds_per_s, 1),
                       Table::num(m.batched_rounds_per_s, 1),
                       Table::num(m.batched_rounds_per_s / m.single_rounds_per_s, 2),
                       Table::num(m.steady_allocs)});
    }
    table.print(std::cout, "simulate_round loop vs simulate_rounds_into batch");

    // Cache pressure over the whole bench: every transport above acquired its
    // codebook through the process-wide cache, so byte-capacity evictions or
    // oversize fallbacks here mean the shipped workloads no longer fit the
    // cache budget — rebuild churn that perf-smoke gates on (exactly 0).
    const CodebookCache::Stats cache_stats = CodebookCache::instance().stats();
    std::cout << "codebook cache: " << cache_stats.builds << " builds, "
              << cache_stats.hits << " hits, " << cache_stats.bytes_resident
              << " bytes resident, " << cache_stats.evictions_capacity
              << " byte-cap evictions, " << cache_stats.oversize_uncached
              << " oversize uncached\n\n";

    // The shared bench/scenario serializer (common/json.h via bench_util):
    // this bench is a caller of the one JSON writer, not a copy of it.
    bench::write_json_file("BENCH_transport.json", [&](JsonWriter& json) {
        json.begin_object();
        json.kv("bench", "transport_throughput");
        json.kv("policy", "all_nodes");
        json.kv("epsilon", 0.1);
        // The dispatch decision on this machine: what auto_best resolves to
        // and which kernel sets were available to choose from.
        json.key("dispatch").begin_object();
        json.kv("best_kernel", simd::kernel_name(simd::best_kernel()));
        json.kv("auto_resolves_to",
                simd::kernel_name(simd::resolve_kernel(simd::Kernel::auto_best)));
        json.key("supported").begin_array();
        for (const auto k : kernels) {
            json.value(simd::kernel_name(k));
        }
        json.end_array();
        json.end_object();
        // Cache-pressure telemetry for the perf gate: rates above stay
        // meaningful only while codebooks stay resident between transports.
        json.key("codebook_cache").begin_object();
        json.kv("builds", cache_stats.builds);
        json.kv("hits", cache_stats.hits);
        json.kv("bytes_resident", cache_stats.bytes_resident);
        json.kv("evictions_capacity", cache_stats.evictions_capacity);
        json.kv("oversize_uncached", cache_stats.oversize_uncached);
        json.end_object();
        json.key("results").begin_array();
        for (const auto& m : measurements) {
            json.begin_object();
            json.kv("n", m.n);
            json.kv("delta", m.delta);
            json.kv("kernel", simd::kernel_name(m.resolved));
            json.kv("single_rounds_per_s", m.single_rounds_per_s);
            json.kv("batched_rounds_per_s", m.batched_rounds_per_s);
            json.kv("steady_state_allocs", m.steady_allocs);
            json.kv("arena_words", m.arena_words);
            json.end_object();
        }
        json.end_array();
        json.end_object();
    });

    // Every clause is computed from the rows. Only the exact one — zero
    // steady-state allocations — sets the exit status; the throughput
    // ratios are single timed runs, which the perf gate judges against the
    // baseline instead.
    std::size_t allocating_rows = 0;
    double min_ratio = std::numeric_limits<double>::infinity();
    double max_ratio = 0.0;
    double scalar_1024 = 0.0;
    double vector_1024 = 0.0;
    for (const auto& m : measurements) {
        allocating_rows += m.steady_allocs != 0 ? 1 : 0;
        const double ratio = m.batched_rounds_per_s / m.single_rounds_per_s;
        min_ratio = std::min(min_ratio, ratio);
        max_ratio = std::max(max_ratio, ratio);
        if (m.n == 1024) {
            double& best = m.resolved == simd::Kernel::scalar ? scalar_1024 : vector_1024;
            best = std::max(best, m.batched_rounds_per_s);
        }
    }
    std::ostringstream text;
    text << std::fixed << std::setprecision(2) << "batched/single throughput "
         << min_ratio << "-" << max_ratio << "x across rows; ";
    if (vector_1024 > 0.0 && scalar_1024 > 0.0) {
        text << "best vector kernel vs scalar at n=1024 " << vector_1024 / scalar_1024
             << "x; ";
    }
    if (allocating_rows == 0) {
        text << "steady-state allocations on the batched decode path: 0 on all "
             << measurements.size() << " rows";
    } else {
        text << "FAILED: the batched decode path allocated in steady state on "
             << allocating_rows << " of " << measurements.size() << " rows";
    }
    bench::verdict(text.str());
    return allocating_rows == 0 ? 0 : 1;
}
