// nb_perfbench — the measuring half of the repository benchmark.
//
// perfbench/run.py builds this binary, runs it once per benchmark run, and
// derives every metric from the raw record it writes. This file only calls
// the library's public functions, times them, counts what they report, and
// keeps the canonical output bytes the checks compare; it computes no
// percentile, ratio or derived metric itself (perfbench/metrics.py does, and
// perfbench/test_metrics.py tests that arithmetic).
//
//   nb_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out PATH
//
// Workloads (perfbench/README.md gives the reason for each):
//   ring-64k    ring n=65536, two_hop, iid eps=0.05, B=2, c_eps=4, 8 decoys
//   regular-2k  random_regular n=2048 d=16, two_hop, iid eps=0.1, B=11
//   dense-1k    random_regular n=1024 d=8, all_nodes, iid eps=0.1, B=10
//   serve-mix   in-process serve::Server (default config), 4 closed-loop
//               clients submitting n=256 d=4 B=4 8-round jobs, every other
//               one stored and read back
//
// With --trace 1 the timed loop alternates traced and untraced operations
// (spans from this file around each call; nothing inside src/ is traced)
// and the layer probes run after it. Spans stay in memory and are written
// with the record at the end.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "alloc_hooks.h"
#include "beep/batch_engine.h"
#include "common/json.h"
#include "common/json_parse.h"
#include "common/simd/simd.h"
#include "scenarios/scenario.h"
#include "scenarios/spec_json.h"
#include "scenarios/sweep.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/store.h"
#include "sim/codebook.h"
#include "sim/codebook_cache.h"
#include "sim/transport.h"
#include "sim/transport_batch.h"

#ifndef NB_PERFBENCH_BUILD_TYPE
#define NB_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;

// setup_s and every probe metric are medians over repeated calls: at least
// kMinRepetitions of them, and more until kMinSeconds have passed, up to
// kMaxRepetitions.
constexpr std::size_t kMinRepetitions = 5;
constexpr double kMinSeconds = 1.0;
constexpr std::size_t kMaxRepetitions = 400;
constexpr std::size_t kRoundsPerCall = 4;      ///< rounds per run_scenario call
constexpr std::size_t kServeClients = 4;
constexpr std::size_t kServeSeeds = 4;         ///< distinct job specs cycled per run
constexpr std::size_t kServeRounds = 8;        ///< rounds per served job
constexpr double kServeProbeSeconds = 3.0;     ///< serve probe loop in simulation traces
constexpr double kScenarioProbeSeconds = 2.0;  ///< scenario probe loop in serve-mix traces
constexpr std::size_t kPings = 200;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

Clock::time_point after(Clock::time_point start, double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
}

/// splitmix64 of (seed, stream), masked to 32 bits so every seed survives a
/// JSON round trip through a double unchanged.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z & 0xffffffffULL;
}

std::size_t online_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        return static_cast<std::size_t>(CPU_COUNT(&set));
    }
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Restarts the process's resident high-water mark (VmHWM) from the current
/// resident size; false where /proc/self/clear_refs is not writable.
bool reset_peak_rss() {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    return clear.good();
}

/// VmHWM from /proc/self/status in MB, or -1 when it cannot be read.
double current_peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // reported in kB
        }
    }
    return -1.0;
}

// ------------------------------------------------------------------ spans --

struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;      ///< index into the span list, -1 for a root
    std::uint64_t request = 0;     ///< spans of one request share this id
    std::uint64_t items = 1;       ///< work items the span covers (rounds, nodes)
};

/// In-memory span recorder. Disabled (every call a no-op returning -1) in
/// untraced runs; thread-safe because serve clients record concurrently.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

    bool enabled() const noexcept { return enabled_; }

    std::int64_t begin(std::string name, std::int64_t parent = -1, std::uint64_t request = 0,
                       std::uint64_t items = 1) {
        if (!enabled_) {
            return -1;
        }
        const std::int64_t now = now_ns();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(Span{std::move(name), now, now, parent, request, items});
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    void end(std::int64_t id) {
        if (id < 0) {
            return;
        }
        const std::int64_t now = now_ns();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end_ns = now;
    }

    void write(nb::JsonWriter& json) const {
        std::lock_guard<std::mutex> lock(mutex_);
        json.begin_array();
        for (const Span& span : spans_) {
            json.begin_object();
            json.kv("name", span.name);
            json.kv("start_ns", span.start_ns);
            json.kv("end_ns", span.end_ns);
            json.kv("parent", span.parent);
            json.kv("request", span.request);
            json.kv("items", span.items);
            json.end_object();
        }
        json.end_array();
    }

private:
    std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
            .count();
    }

    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

class ScopedSpan {
public:
    ScopedSpan(Tracer& tracer, std::string name, std::int64_t parent = -1,
               std::uint64_t request = 0, std::uint64_t items = 1)
        : tracer_(tracer), id_(tracer.begin(std::move(name), parent, request, items)) {}
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::int64_t id() const noexcept { return id_; }

private:
    Tracer& tracer_;
    std::int64_t id_;
};

// ----------------------------------------------------------------- record --

/// Everything the run measured, written as one JSON object at the end.
struct Record {
    std::map<std::string, std::string> strings;
    std::map<std::string, double> numbers;
    std::map<std::string, std::vector<double>> samples;  ///< flags are 0/1 samples

    void write(nb::JsonWriter& json) const {
        for (const auto& [key, value] : strings) {
            json.kv(key, value);
        }
        for (const auto& [key, value] : numbers) {
            json.kv(key, value);
        }
        for (const auto& [key, values] : samples) {
            json.key(key).begin_array();
            for (const double v : values) {
                json.value(v);
            }
            json.end_array();
        }
    }
};

std::string canonical_bytes(const nb::ScenarioResult& result) {
    std::ostringstream out;
    nb::JsonWriter json(out, /*indent=*/0);
    nb::scenario_result_json(json, result, /*include_timing=*/false);
    return out.str();
}

// ------------------------------------------------------ simulation workloads --

nb::ScenarioSpec simulation_spec(const std::string& workload, std::uint64_t seed,
                                 std::size_t threads) {
    nb::ScenarioSpec spec;
    spec.name = workload;
    spec.rounds = kRoundsPerCall;
    spec.threads = threads;
    spec.topology.seed = derive_seed(seed, 1);
    spec.workload.seed = derive_seed(seed, 2);
    if (workload == "ring-64k") {
        spec.description = "ring n=65536, two_hop, iid eps=0.05, B=2, 8 decoys";
        spec.topology.family = nb::TopologySpec::Family::ring;
        spec.topology.n = 65536;
        spec.channel = nb::ChannelModel::iid(0.05);
        spec.workload.message_bits = 2;
        spec.c_eps = 4;
        spec.decoy_count = 8;
    } else if (workload == "regular-2k") {
        spec.description = "random_regular n=2048 d=16, two_hop, iid eps=0.1, B=11";
        spec.topology.family = nb::TopologySpec::Family::random_regular;
        spec.topology.n = 2048;
        spec.topology.degree = 16;
        spec.channel = nb::ChannelModel::iid(0.1);
        spec.workload.message_bits = 11;
    } else if (workload == "dense-1k") {
        spec.description = "random_regular n=1024 d=8, all_nodes, iid eps=0.1, B=10";
        spec.topology.family = nb::TopologySpec::Family::random_regular;
        spec.topology.n = 1024;
        spec.topology.degree = 8;
        spec.channel = nb::ChannelModel::iid(0.1);
        spec.workload.message_bits = 10;
        spec.dictionary = nb::DictionaryPolicy::all_nodes;
    } else {
        throw std::invalid_argument("unknown workload '" + workload + "'");
    }
    spec.validate();
    return spec;
}

/// Whether another repetition is due after `done` of them since `start`.
bool more_repetitions(std::size_t done, Clock::time_point start) {
    return done < kMinRepetitions ||
           (done < kMaxRepetitions && seconds_between(start, Clock::now()) < kMinSeconds);
}

/// Set-up as a user pays it on a cold cache: topology, messages, and the
/// transport (codebook build through the process-wide cache, thread pool).
void measure_setup(const nb::ScenarioSpec& spec, Tracer& tracer, Record& record) {
    const auto first = Clock::now();
    for (std::size_t rep = 0; more_repetitions(rep, first); ++rep) {
        nb::CodebookCache::instance().clear();
        const auto start = Clock::now();
        ScopedSpan setup(tracer, "setup", -1, rep);
        std::optional<nb::Graph> graph;
        {
            ScopedSpan span(tracer, "graph.build", setup.id(), rep);
            graph.emplace(spec.topology.build());
        }
        std::vector<std::optional<nb::Bitstring>> messages;
        {
            ScopedSpan span(tracer, "scenarios.workload_build", setup.id(), rep);
            messages = spec.workload.build(*graph);
        }
        {
            ScopedSpan span(tracer, "transport.construct", setup.id(), rep);
            const nb::BeepTransport transport(*graph, spec.sim_params());
        }
        record.samples["setup_s"].push_back(seconds_between(start, Clock::now()));
    }
}

/// The user path: run_scenario calls of the spec until `seconds` have passed.
/// Every call's canonical (timing-free) result bytes are compared with the
/// first call's. Results go to `record` under `prefix`.
void timed_scenario_loop(const nb::ScenarioSpec& spec, double seconds, Tracer& tracer,
                         Record& record, const std::string& prefix) {
    std::string first;
    double mismatched_calls = 0;
    double rounds = 0;
    double imperfect_rounds = 0;
    auto& op_ms = record.samples[prefix + "op_ms"];
    auto& sim_ms = record.samples[prefix + "sim_ms"];
    auto& traced = record.samples[prefix + "op_traced"];
    const auto start = Clock::now();
    const auto deadline = after(start, seconds);
    for (std::size_t call = 0; call < 2 || Clock::now() < deadline; ++call) {
        const bool trace_this = tracer.enabled() && call % 2 == 0;
        const bool reset = reset_peak_rss();
        const auto call_start = Clock::now();
        const std::int64_t span =
            trace_this ? tracer.begin("scenarios.run_scenario", -1, call, spec.rounds) : -1;
        const nb::ScenarioResult result = nb::run_scenario(spec);
        tracer.end(span);
        op_ms.push_back(seconds_between(call_start, Clock::now()) * 1e3);
        if (reset) {
            record.samples[prefix + "op_peak_rss_mb"].push_back(current_peak_rss_mb());
        }
        sim_ms.push_back(result.wall_seconds * 1e3);
        traced.push_back(trace_this ? 1.0 : 0.0);
        rounds += static_cast<double>(result.rounds);
        imperfect_rounds += static_cast<double>(result.rounds - result.perfect_rounds);
        const std::string bytes = canonical_bytes(result);
        if (call == 0) {
            first = bytes;
        } else if (bytes != first) {
            ++mismatched_calls;
        }
    }
    record.numbers[prefix + "loop_seconds"] = seconds_between(start, Clock::now());
    record.numbers[prefix + "rounds"] = rounds;
    record.numbers[prefix + "imperfect_rounds"] = imperfect_rounds;
    record.numbers[prefix + "mismatched_calls"] = mismatched_calls;
    record.strings[prefix + "canonical"] = first;

    const nb::CodebookCache::Stats cache = nb::CodebookCache::instance().stats();
    record.numbers[prefix + "cache.builds"] = static_cast<double>(cache.builds);
    record.numbers[prefix + "cache.hits"] = static_cast<double>(cache.hits);
    record.numbers[prefix + "cache.disk_loads"] = static_cast<double>(cache.disk_loads);
}

/// The same spec at threads = 1: the reference the output check compares
/// with, and (traced runs) the 1-thread rate thread_pool.scaling_eff needs.
void single_thread_reference(nb::ScenarioSpec spec, std::size_t calls, Record& record,
                             const std::string& prefix) {
    spec.threads = 1;
    for (std::size_t call = 0; call < calls; ++call) {
        const auto start = Clock::now();
        const nb::ScenarioResult result = nb::run_scenario(spec);
        record.samples[prefix + "single_thread_op_ms"].push_back(
            seconds_between(start, Clock::now()) * 1e3);
        if (call == 0) {
            record.strings[prefix + "reference_canonical"] = canonical_bytes(result);
        }
    }
}

/// Layer probes over one spec: each public call the user path makes, timed
/// on its own. Counts come from alloc_hooks and Codebook::stats().
void layer_probes(const nb::ScenarioSpec& spec, Tracer& tracer, Record& record) {
    std::optional<nb::Graph> built;
    std::vector<std::optional<nb::Bitstring>> messages;
    auto first = Clock::now();
    for (std::size_t rep = 0; more_repetitions(rep, first); ++rep) {
        built.reset();
        {
            ScopedSpan span(tracer, "graph.build", -1, rep);
            built.emplace(spec.topology.build());
        }
        ScopedSpan span(tracer, "scenarios.workload_build", -1, rep);
        messages = spec.workload.build(*built);
    }
    const nb::Graph& graph = *built;
    const nb::SimulationParams params = spec.sim_params();

    // codebook.build: the constructor on its own, bypassing the cache (cold).
    std::optional<nb::Codebook> codebook;
    first = Clock::now();
    for (std::size_t rep = 0; more_repetitions(rep, first); ++rep) {
        codebook.reset();
        ScopedSpan span(tracer, "codebook.build", -1, rep);
        codebook.emplace(graph, params);
    }

    // codebook.round: fresh nonces, so neither the round cache nor a
    // same-nonce donor applies.
    std::shared_ptr<const nb::Codebook::Round> round;
    const nb::Codebook::Stats before = codebook->stats();
    auto& round_allocs = record.samples["codebook.round_allocs"];
    first = Clock::now();
    for (std::size_t rep = 0; more_repetitions(rep, first); ++rep) {
        round.reset();
        const std::uint64_t allocs = nb::alloc_hooks::count();
        ScopedSpan span(tracer, "codebook.round", -1, rep);
        round = codebook->round(messages, 1'000'000 + rep);
        round_allocs.push_back(static_cast<double>(nb::alloc_hooks::count() - allocs));
    }
    const nb::Codebook::Stats after = codebook->stats();
    record.numbers["codebook.round_builds"] =
        static_cast<double>(after.round_builds - before.round_builds);
    record.numbers["codebook.codeword_builds"] =
        static_cast<double>(after.codeword_builds - before.codeword_builds);
    record.numbers["codebook.payload_encodes"] =
        static_cast<double>(after.payload_encodes - before.payload_encodes);

    // beep: superimposition alone vs superimposition + channel noise, all
    // nodes, both phases' schedules, on this thread.
    {
        const nb::BatchParams channel{params.channel_model(), false};
        const nb::BatchEngine phase1(graph, channel, round->rng.derive(0x70683161u));
        const nb::BatchEngine phase2(graph, channel, round->rng.derive(0x70683262u));
        const std::uint64_t nodes = graph.node_count();
        nb::Bitstring out;
        std::uint64_t ones = 0;
        first = Clock::now();
        for (std::size_t rep = 0; more_repetitions(rep, first); ++rep) {
            {
                ScopedSpan span(tracer, "beep.superimpose", -1, rep, 2 * nodes);
                for (nb::NodeId v = 0; v < nodes; ++v) {
                    phase1.superimpose_into(v, round->codewords, out);
                    ones += out.count();
                    phase2.superimpose_into(v, round->combined_schedules, out);
                    ones += out.count();
                }
            }
            {
                ScopedSpan span(tracer, "beep.hear", -1, rep, 2 * nodes);
                for (nb::NodeId v = 0; v < nodes; ++v) {
                    phase1.hear_into(v, round->codewords, out);
                    ones += out.count();
                    phase2.hear_into(v, round->combined_schedules, out);
                    ones += out.count();
                }
            }
        }
        // Recorded so the compiler cannot drop the probed calls' results.
        record.numbers["beep.ones_heard"] = static_cast<double>(ones);
    }
    round.reset();
    codebook.reset();

    // transport: the zero-copy batch on a warm TransportBatch, once over a
    // repeated cached (messages, nonce) pair (decode only, no round build)
    // and once over fresh nonces (the full pipelined round).
    // Batches as long as the spec's run_scenario calls, so transport.round_ms
    // compares with the user path's per-round time like for like.
    const std::size_t batch_rounds = spec.rounds;
    const nb::BeepTransport transport(graph, params);
    nb::TransportBatch batch;
    const auto run_batch = [&](const std::string& name, std::uint64_t first_nonce,
                               bool repeat_nonce, const std::string& allocs_key) {
        auto& allocs = record.samples[allocs_key];
        const auto specs_for = [&](std::size_t block) {
            std::vector<nb::RoundSpec> specs;
            for (std::size_t i = 0; i < batch_rounds; ++i) {
                const std::uint64_t nonce =
                    repeat_nonce ? first_nonce : first_nonce + block * batch_rounds + i;
                specs.push_back(nb::RoundSpec{&messages, nonce, nullptr});
            }
            if (repeat_nonce) {
                transport.codebook().round(messages, first_nonce);  // prime the round cache
            }
            return specs;
        };
        transport.simulate_rounds_into(specs_for(0), batch);  // warm-up: sizes the arenas
        const auto start = Clock::now();
        for (std::size_t rep = 0; more_repetitions(rep, start); ++rep) {
            const std::vector<nb::RoundSpec> specs = specs_for(rep + 1);
            const std::uint64_t before_allocs = nb::alloc_hooks::count();
            {
                ScopedSpan span(tracer, name, -1, rep, batch_rounds);
                transport.simulate_rounds_into(specs, batch);
            }
            allocs.push_back(static_cast<double>(nb::alloc_hooks::count() - before_allocs) /
                             static_cast<double>(batch_rounds));
        }
    };
    run_batch("transport.decode", 3'000'000, true, "transport.decode_allocs");
    run_batch("transport.round", 4'000'000, false, "transport.round_allocs");
}

// -------------------------------------------------------------- serve-mix --

/// The nb-spec/v1 body of one served job (the nb_load shape: n=256, d=4,
/// 4-bit messages, 8 rounds). The topology seed is fixed per run so the
/// server's codebook cache sees repeats; the message seed cycles.
std::string job_spec_json(std::uint64_t seed, std::size_t variant) {
    std::ostringstream out;
    nb::JsonWriter json(out, /*indent=*/0);
    json.begin_object();
    json.kv("schema", "nb-spec/v1");
    json.kv("sweep", "serve-mix");
    json.key("scenarios").begin_array().begin_object();
    json.kv("name", "serve-mix-job");
    json.kv("rounds", static_cast<std::uint64_t>(kServeRounds));
    json.key("topology").begin_object();
    json.kv("family", "random_regular");
    json.kv("n", std::uint64_t{256});
    json.kv("degree", std::uint64_t{4});
    json.kv("seed", derive_seed(seed, 1));
    json.end_object();
    json.key("channel").begin_object();
    json.kv("kind", "iid");
    json.kv("epsilon", 0.1);
    json.end_object();
    json.key("workload").begin_object();
    json.kv("message_bits", std::uint64_t{4});
    json.kv("seed", derive_seed(seed, 10 + variant));
    json.end_object();
    json.end_object().end_array();
    json.end_object();
    return out.str();
}

std::string submit_line(const std::string& spec_json, const std::string& store_as) {
    std::string line = R"({"op":"submit","deadline_seconds":60,)";
    if (!store_as.empty()) {
        line += R"("store_as":")" + store_as + R"(",)";
    }
    return line + R"("spec":)" + spec_json + "}";
}

/// The served job as the ScenarioSpec its one-scenario sweep expands to.
nb::ScenarioSpec serve_job_scenario(std::uint64_t seed, std::size_t threads) {
    nb::ScenarioSpec spec =
        nb::sweep_spec_from_value(nb::JsonValue::parse(job_spec_json(seed, 0)), "probe")
            .expand()
            .front();
    spec.threads = threads;
    return spec;
}

/// The artifact nb_serve returns for `spec_json`, computed in-process.
std::string reference_artifact(const std::string& spec_json) {
    const nb::SweepSpec spec =
        nb::sweep_spec_from_value(nb::JsonValue::parse(spec_json), "reference");
    nb::SweepOptions options;
    options.workers = 1;
    const nb::SweepResult result = nb::run_sweep(spec, options);
    std::ostringstream artifact;
    nb::JsonWriter json(artifact, /*indent=*/2);
    nb::sweep_results_json(json, result);
    return artifact.str();
}

bool response_ok(const std::optional<nb::JsonValue>& response) {
    if (!response.has_value()) {
        return false;
    }
    const nb::JsonValue* ok = response->find("ok");
    return ok != nullptr && ok->is_bool() && ok->as_bool();
}

std::string string_field(const nb::JsonValue& value, const char* key) {
    const nb::JsonValue* field = value.find(key);
    return field != nullptr && field->is_string() ? field->as_string() : std::string();
}

/// A server on a fresh store directory under `root`, drained and joined
/// (and its directory removed) when the guard goes out of scope.
class ServerGuard {
public:
    explicit ServerGuard(const std::filesystem::path& root) {
        std::filesystem::remove_all(root);
        std::filesystem::create_directories(root);
        root_ = root;
        nb::serve::ServerConfig config;
        config.socket_path = (root / "s.sock").string();
        config.store_dir = (root / "store").string();
        server_.emplace(config);
    }
    ~ServerGuard() {
        if (started_) {
            server_->request_drain();
            server_->wait();
        }
        server_.reset();
        std::error_code ignored;
        std::filesystem::remove_all(root_, ignored);
    }
    ServerGuard(const ServerGuard&) = delete;
    ServerGuard& operator=(const ServerGuard&) = delete;

    void start() {
        server_->start();
        started_ = true;
    }
    const std::string& socket() const { return server_->config().socket_path; }

private:
    std::filesystem::path root_;
    std::optional<nb::serve::Server> server_;
    bool started_ = false;
};

struct ServeTally {
    std::mutex mutex;
    std::vector<double> latency_ms;   ///< submit -> done, completed submits
    std::vector<double> stored;       ///< 1 when that submit carried store_as
    std::vector<double> traced;       ///< 1 when that submit was traced
    std::vector<std::string> first_artifact = std::vector<std::string>(kServeSeeds);
    std::vector<double> done_per_variant = std::vector<double>(kServeSeeds);
    double submits = 0;
    double done = 0;
    double errors = 0;
    double sheds = 0;
    double transport_failures = 0;
    double artifact_mismatches = 0;   ///< vs the spec's first artifact, or a bad get
};

void serve_client(const std::string& socket, const std::vector<std::string>& specs,
                  std::size_t client, Clock::time_point deadline, Tracer& tracer,
                  ServeTally& tally) {
    nb::serve::Client connection;
    if (!connection.connect_wait(socket, 5.0)) {
        std::lock_guard<std::mutex> lock(tally.mutex);
        ++tally.submits;
        ++tally.transport_failures;
        return;
    }
    for (std::size_t i = 0; i == 0 || Clock::now() < deadline; ++i) {
        const std::size_t variant = (client + i) % specs.size();
        // Stored and traced alternate independently: (i mod 4) walks all
        // four combinations.
        const bool store = i % 2 == 1;
        const bool trace_this = tracer.enabled() && (i / 2) % 2 == 0;
        const std::uint64_t request = client * 1'000'000 + i;
        const std::string name =
            store ? "c" + std::to_string(client) + "-" + std::to_string(i) : std::string();
        const std::string line = submit_line(specs[variant], name);

        const std::int64_t job = trace_this ? tracer.begin("serve.job", -1, request) : -1;
        const auto start = Clock::now();
        const std::int64_t submit_span =
            trace_this ? tracer.begin("serve.submit", job, request) : -1;
        const auto response = connection.request(line);
        tracer.end(submit_span);
        const double ms = seconds_between(start, Clock::now()) * 1e3;

        std::string artifact;
        bool ok = response_ok(response);
        bool mismatch = false;
        if (ok) {
            artifact = string_field(*response, "artifact");
            if (store) {
                const std::int64_t get_span =
                    trace_this ? tracer.begin("serve.get", job, request) : -1;
                const auto got = connection.request(R"({"op":"get","name":")" + name + "\"}");
                tracer.end(get_span);
                mismatch = !response_ok(got) || string_field(*got, "bytes") != artifact;
            }
        }
        tracer.end(job);

        if (!response.has_value()) {
            {
                std::lock_guard<std::mutex> lock(tally.mutex);
                ++tally.submits;
                ++tally.transport_failures;
            }
            if (!connection.connect(socket)) {
                return;
            }
            continue;
        }
        std::lock_guard<std::mutex> lock(tally.mutex);
        ++tally.submits;
        if (!ok) {
            (string_field(*response, "status") == "rejected" ? tally.sheds : tally.errors) += 1;
            continue;
        }
        ++tally.done;
        ++tally.done_per_variant[variant];
        tally.latency_ms.push_back(ms);
        tally.stored.push_back(store ? 1.0 : 0.0);
        tally.traced.push_back(trace_this ? 1.0 : 0.0);
        std::string& first = tally.first_artifact[variant];
        if (first.empty()) {
            first = artifact;
        } else if (artifact != first) {
            mismatch = true;
        }
        if (mismatch) {
            ++tally.artifact_mismatches;
        }
    }
}

/// One closed-loop serve session on a fresh server with a cold cache:
/// kServeClients clients for `seconds`, then the stats op (and, traced,
/// kPings pings), then drain. Results go to `record` under `prefix`.
void serve_loop(const std::filesystem::path& work, std::uint64_t seed, double seconds,
                Tracer& tracer, Record& record, const std::string& prefix) {
    std::vector<std::string> specs;
    for (std::size_t variant = 0; variant < kServeSeeds; ++variant) {
        specs.push_back(job_spec_json(seed, variant));
    }
    nb::CodebookCache::instance().clear();
    ServerGuard server(work / "serve");
    server.start();

    ServeTally tally;
    const auto start = Clock::now();
    const auto deadline = after(start, seconds);
    {
        std::vector<std::thread> clients;
        for (std::size_t client = 0; client < kServeClients; ++client) {
            clients.emplace_back(serve_client, std::cref(server.socket()), std::cref(specs),
                                 client, deadline, std::ref(tracer), std::ref(tally));
        }
        for (auto& thread : clients) {
            thread.join();
        }
    }
    record.numbers[prefix + "loop_seconds"] = seconds_between(start, Clock::now());

    nb::serve::Client control;
    if (!control.connect_wait(server.socket(), 5.0)) {
        throw std::runtime_error("serve: control connection failed");
    }
    const auto stats = control.request(R"({"op":"stats"})");
    if (!response_ok(stats)) {
        throw std::runtime_error("serve: stats op failed");
    }
    const auto stat = [&](const char* group, const char* key) {
        const nb::JsonValue* object = stats->find(group);
        const nb::JsonValue* value = object != nullptr ? object->find(key) : nullptr;
        if (value == nullptr) {
            throw std::runtime_error(std::string("serve: stats op lacks ") + group + "." + key);
        }
        record.numbers[prefix + group + "." + key] = static_cast<double>(value->as_uint64());
    };
    for (const char* key : {"completed", "failed", "shed_overloaded", "shed_draining",
                            "retries"}) {
        stat("server", key);
    }
    for (const char* key : {"hits", "builds", "disk_loads"}) {
        stat("cache", key);
    }
    if (tracer.enabled()) {
        auto& ping_ms = record.samples["serve.ping_ms"];
        for (std::size_t i = 0; i < kPings; ++i) {
            const auto ping_start = Clock::now();
            ScopedSpan span(tracer, "serve.ping", -1, i);
            if (!response_ok(control.request(R"({"op":"ping"})"))) {
                throw std::runtime_error("serve: ping failed");
            }
            ping_ms.push_back(seconds_between(ping_start, Clock::now()) * 1e3);
        }
    }
    control.close();

    // The output check: every artifact equals the first one of its spec
    // (checked per submit above), and each first one equals the in-process
    // reference; a wrong first one makes every artifact of its spec wrong.
    double reference_mismatches = 0;
    for (std::size_t variant = 0; variant < kServeSeeds; ++variant) {
        const std::string& first = tally.first_artifact[variant];
        if (!first.empty() && first != reference_artifact(specs[variant])) {
            reference_mismatches += tally.done_per_variant[variant];
        }
    }
    record.numbers[prefix + "submits"] = tally.submits;
    record.numbers[prefix + "done"] = tally.done;
    record.numbers[prefix + "errors"] = tally.errors;
    record.numbers[prefix + "sheds"] = tally.sheds;
    record.numbers[prefix + "transport_failures"] = tally.transport_failures;
    record.numbers[prefix + "artifact_mismatches"] = tally.artifact_mismatches;
    record.numbers[prefix + "reference_mismatches"] = reference_mismatches;
    record.numbers[prefix + "rounds_per_job"] = static_cast<double>(kServeRounds);
    record.samples[prefix + "op_ms"] = tally.latency_ms;
    record.samples[prefix + "op_stored"] = tally.stored;
    record.samples[prefix + "op_traced"] = tally.traced;
}

/// serve-mix set-up: Server::start to the first "done", on a cold cache and
/// a fresh store.
void measure_serve_setup(const std::filesystem::path& work, std::uint64_t seed,
                         Tracer& tracer, Record& record) {
    const std::string line = submit_line(job_spec_json(seed, 0), "");
    const auto first = Clock::now();
    for (std::size_t rep = 0; more_repetitions(rep, first); ++rep) {
        nb::CodebookCache::instance().clear();
        ServerGuard server(work / "serve-setup");
        ScopedSpan setup(tracer, "setup", -1, rep);
        const auto start = Clock::now();
        {
            ScopedSpan span(tracer, "serve.start", setup.id(), rep);
            server.start();
        }
        nb::serve::Client client;
        if (!client.connect_wait(server.socket(), 5.0)) {
            throw std::runtime_error("serve setup: connect failed");
        }
        {
            ScopedSpan span(tracer, "serve.first_done", setup.id(), rep);
            if (!response_ok(client.request(line))) {
                throw std::runtime_error("serve setup: first submit failed");
            }
        }
        record.samples["setup_s"].push_back(seconds_between(start, Clock::now()));
        client.close();
    }
}

/// Layer probes for the serve path, on the serve-mix job shape: the
/// in-process sweep a job runs, and the store put/get a stored job adds.
void serve_layer_probes(const std::filesystem::path& work, std::uint64_t seed,
                        Tracer& tracer, Record& record) {
    const std::string spec_json = job_spec_json(seed, 0);
    const nb::SweepSpec spec =
        nb::sweep_spec_from_value(nb::JsonValue::parse(spec_json), "probe");
    nb::SweepOptions options;
    options.workers = 1;
    std::string artifact;
    const auto first = Clock::now();
    for (std::size_t rep = 0; more_repetitions(rep, first); ++rep) {
        ScopedSpan span(tracer, "sweep.run", -1, rep);
        const nb::SweepResult result = nb::run_sweep(spec, options);
        std::ostringstream out;
        nb::JsonWriter json(out, /*indent=*/2);
        nb::sweep_results_json(json, result);
        artifact = out.str();
    }
    const std::filesystem::path root = work / "store-probe";
    std::filesystem::remove_all(root);
    {
        nb::ArtifactStore store(root.string());
        const auto start = Clock::now();
        for (std::size_t rep = 0; more_repetitions(rep, start); ++rep) {
            {
                ScopedSpan span(tracer, "store.put", -1, rep);
                store.put("probe-" + std::to_string(rep), artifact);
            }
            ScopedSpan span(tracer, "store.get", -1, rep);
            if (!store.get("probe-" + std::to_string(rep)).has_value()) {
                throw std::runtime_error("store probe: get after put missed");
            }
        }
    }
    std::filesystem::remove_all(root);
    record.numbers["store.artifact_bytes"] = static_cast<double>(artifact.size());
}

// ------------------------------------------------------------------- main --

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
};

Options parse_options(int argc, char** argv) {
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            throw std::invalid_argument("missing value for " + arg);
        }
        const std::string value = argv[++i];
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::stoull(value);
        } else if (arg == "--seconds") {
            options.seconds = std::stod(value);
        } else if (arg == "--trace") {
            options.trace = value == "1";
        } else if (arg == "--out") {
            options.out = value;
        } else {
            throw std::invalid_argument("unknown option " + arg);
        }
    }
    if (options.workload.empty() || options.out.empty() || !(options.seconds > 0.0)) {
        throw std::invalid_argument(
            "usage: nb_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out PATH");
    }
    return options;
}

int run(const Options& options) {
    const std::size_t nproc = online_cpus();
    const std::size_t threads = std::min<std::size_t>(4, nproc);
    Tracer tracer(options.trace);
    Record record;
    record.strings["workload"] = options.workload;
    record.strings["kernel"] =
        nb::simd::kernel_name(nb::simd::resolve_kernel(nb::simd::Kernel::auto_best));
    record.strings["build_type"] = NB_PERFBENCH_BUILD_TYPE;
    record.numbers["seed"] = static_cast<double>(options.seed);
    record.numbers["nproc"] = static_cast<double>(nproc);
    record.numbers["hardware_concurrency"] =
        static_cast<double>(std::thread::hardware_concurrency());

    const std::filesystem::path work =
        std::filesystem::path(options.out).parent_path() / ("work-" + std::to_string(getpid()));
    std::filesystem::create_directories(work);

    // Traced runs measure every layer: a simulation workload adds a short
    // serve session on the serve-mix job shape, and serve-mix adds a short
    // run_scenario loop and the simulation layer probes on its job spec.
    if (options.workload == "serve-mix") {
        record.strings["kind"] = "serve";
        record.numbers["threads"] = static_cast<double>(nb::serve::ServerConfig{}.job_workers);
        measure_serve_setup(work, options.seed, tracer, record);
        serve_loop(work, options.seed, options.seconds, tracer, record, "");
        record.numbers["peak_rss_mb"] = peak_rss_mb();
        if (options.trace) {
            const nb::ScenarioSpec job = serve_job_scenario(options.seed, threads);
            record.numbers["scenario_probe.threads"] = static_cast<double>(threads);
            record.numbers["scenario_probe.rounds_per_call"] = static_cast<double>(job.rounds);
            timed_scenario_loop(job, kScenarioProbeSeconds, tracer, record, "scenario_probe.");
            single_thread_reference(job, 10, record, "scenario_probe.");
            layer_probes(job, tracer, record);
        }
    } else {
        record.strings["kind"] = "simulation";
        record.numbers["threads"] = static_cast<double>(threads);
        const nb::ScenarioSpec spec = simulation_spec(options.workload, options.seed, threads);
        record.numbers["rounds_per_call"] = static_cast<double>(spec.rounds);
        measure_setup(spec, tracer, record);
        timed_scenario_loop(spec, options.seconds, tracer, record, "");
        single_thread_reference(spec, options.trace ? 3 : 1, record, "");
        record.numbers["peak_rss_mb"] = peak_rss_mb();
        if (options.trace) {
            layer_probes(spec, tracer, record);
            serve_loop(work, options.seed, kServeProbeSeconds, tracer, record, "serve_probe.");
        }
    }
    if (options.trace) {
        serve_layer_probes(work, options.seed, tracer, record);
    }
    std::filesystem::remove_all(work);

    std::ofstream out(options.out);
    nb::JsonWriter json(out, /*indent=*/0);
    json.begin_object();
    record.write(json);
    json.key("spans");
    tracer.write(json);
    json.end_object();
    out << '\n';
    out.flush();
    if (!out.good()) {
        throw std::runtime_error("cannot write " + options.out);
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_options(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "nb_perfbench: " << e.what() << '\n';
        return 2;
    }
}
