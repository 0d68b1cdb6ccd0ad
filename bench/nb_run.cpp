// nb_run — the unified scenario runner CLI.
//
// Executes named ScenarioSpecs from the registry (default: all shipped
// specs), prints one consistent table, and writes BENCH_scenarios.json in
// the nb-scenarios/v1 schema (the same serializer the tests pin). Every
// "what if the channel / topology / faults were X" question is a spec here,
// not a new binary — and every family of such questions is a sweep.
//
//   nb_run                    run all shipped scenarios
//   nb_run ge-burst e6-n256   run the named scenarios only
//   nb_run --list             list shipped scenario names and exit
//   nb_run --json PATH        write the JSON artifact to PATH
//                             (default BENCH_scenarios.json, or
//                             BENCH_sweep.json with --sweep)
//   nb_run --sweep            run the scenarios (all shipped, or the named
//                             ones) as a parallel sweep, crossed with the
//                             --seeds / --eps axes, and write the
//                             nb-sweep/v1 artifact (byte-identical for any
//                             --workers value)
//   nb_run --spec FILE        load the sweep from an nb-spec/v1 JSON file
//                             instead of the registry (implies --sweep; the
//                             file defines its own axes)
//   nb_run --workers N        sweep worker threads (0 = hardware)
//   nb_run --seeds 1,2,3      workload-seed axis (default 1,2,3)
//   nb_run --eps 0.05,0.1     optional iid noise-rate axis
//   nb_run --max-retries N    extra attempts per job after a transient or
//                             timeout failure (default 0)
//   nb_run --timeout SECONDS  watchdog deadline (0 = none): per job with
//                             --sweep, whole-run for plain scenario runs
//   nb_run --journal PATH     checkpoint journal path (default: the --json
//                             path with .json replaced by .journal.jsonl)
//   nb_run --resume           replay completed jobs from the journal before
//                             running the rest (byte-identical artifact)
//   nb_run --codebook-dir DIR warm-start directory: mmap-load serialized
//                             codebooks (nb-codebook/v1) on cache misses and
//                             persist new builds there, so a repeated run
//                             skips every dictionary construction
//   nb_run --codebook-stats F write the process-wide codebook cache counters
//                             (builds, hits, disk loads/saves, hit rate) to F
//                             as nb-codebook-stats/v1 after the run
//
// Robustness contract: bad input of any kind — unknown flags, malformed
// spec files, out-of-range values — produces a one-line diagnostic on
// stderr and exit code 2, never a crash or a stack trace. A sweep whose
// jobs permanently fail (after retries) still writes the artifact and the
// failure table, and exits 1.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cancel.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "scenarios/registry.h"
#include "scenarios/scenario.h"
#include "scenarios/spec_json.h"
#include "scenarios/sweep.h"
#include "sim/codebook_cache.h"

namespace {

/// nb-codebook-stats/v1: the cache counter snapshot CI's warm-start smoke
/// job asserts on (a warm second run must show builds == 0). Best-effort on
/// top of the run's own exit code — a stats write failure is its own error.
bool write_codebook_stats(const std::string& path) {
    const nb::CodebookCache::Stats cache = nb::CodebookCache::instance().stats();
    return nb::bench::write_json_file(path, [&](nb::JsonWriter& json) {
        json.begin_object();
        json.kv("schema", "nb-codebook-stats/v1");
        json.key("cache").begin_object();
        json.kv("builds", cache.builds);
        json.kv("hits", cache.hits);
        json.kv("disk_loads", cache.disk_loads);
        json.kv("disk_saves", cache.disk_saves);
        json.kv("evictions", cache.evictions + cache.evictions_capacity);
        json.kv("bytes_resident", static_cast<std::uint64_t>(cache.bytes_resident));
        json.kv("hit_rate", cache.hit_rate());
        json.end_object();
        json.end_object();
    });
}

/// Parse "a,b,c" with the given per-item parser; exits with a usage error on
/// malformed input (this is a CLI boundary, not library validation).
template <typename T, typename Parse>
std::vector<T> parse_list(const std::string& arg, const char* flag, Parse parse) {
    std::vector<T> values;
    std::size_t start = 0;
    while (start <= arg.size()) {
        const std::size_t comma = arg.find(',', start);
        const std::string item =
            arg.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
        char* end = nullptr;
        values.push_back(parse(item.c_str(), &end));
        if (item.empty() || end == nullptr || *end != '\0') {
            std::cerr << "error: " << flag << " expects a comma-separated list, got '"
                      << arg << "'\n";
            std::exit(2);
        }
        if (comma == std::string::npos) {
            break;
        }
        start = comma + 1;
    }
    return values;
}

/// BENCH_sweep.json -> BENCH_sweep.journal.jsonl (checkpoint rides next to
/// the artifact it protects); paths without a .json suffix get the journal
/// suffix appended.
std::string default_journal_path(const std::string& json_path) {
    const std::string suffix = ".json";
    if (json_path.size() > suffix.size() &&
        json_path.compare(json_path.size() - suffix.size(), suffix.size(), suffix) == 0) {
        return json_path.substr(0, json_path.size() - suffix.size()) + ".journal.jsonl";
    }
    return json_path + ".journal.jsonl";
}

int run_sweep_mode(nb::SweepSpec sweep, const std::string& json_path,
                   const nb::SweepOptions& options) {
    using namespace nb;

    bench::header("nb_run --sweep", "parallel scenario sweep",
                  "one SweepSpec expands to scenario jobs executed across workers; "
                  "aggregation is keyed by job index, so the artifact is "
                  "byte-identical for any worker count, and concurrent jobs share "
                  "codebook builds through the process-wide cache");

    const std::string active_failpoints = failpoint::active_summary();
    if (!active_failpoints.empty()) {
        std::cout << "failpoints armed: " << active_failpoints << "\n\n";
    }

    const SweepResult result = run_sweep(sweep, options);

    Table table({"job", "transport", "channel", "n", "rounds", "perfect", "p1 FN", "p1 FP",
                 "p2 err"});
    for (std::size_t i = 0; i < result.results.size(); ++i) {
        const auto& r = result.results[i];
        if (result.job_records[i].error.has_value()) {
            const JobError& error = *result.job_records[i].error;
            table.add_row({r.name, "FAILED: " + error.kind, error.site, "-", "-", "-", "-",
                           "-", "-"});
            continue;
        }
        table.add_row({r.name, r.transport, r.channel, Table::num(r.node_count),
                       Table::num(r.rounds), Table::num(r.perfect_rounds),
                       Table::num(r.phase1_false_negatives),
                       Table::num(r.phase1_false_positives), Table::num(r.phase2_errors)});
    }
    table.print(std::cout, "sweep results (" + std::to_string(result.jobs) + " jobs, " +
                               std::to_string(result.workers) + " workers)");

    std::cout << "codebook cache: " << result.cache.builds << " builds, "
              << result.cache.hits << " hits (" << result.cache.coloring_builds
              << " coloring builds, " << result.cache.coloring_hits
              << " coloring hits) across " << result.jobs << " jobs; wall "
              << result.wall_seconds << " s\n";
    if (result.resumed_jobs > 0) {
        std::cout << "resumed " << result.resumed_jobs << " of " << result.jobs
                  << " jobs from " << options.journal_path << '\n';
    }
    std::size_t retried = 0;
    for (const auto& record : result.job_records) {
        if (!record.resumed && record.attempts > 1 && !record.error.has_value()) {
            ++retried;
        }
    }
    if (retried > 0) {
        std::cout << retried << " jobs recovered by retry\n";
    }
    std::cout << '\n';

    if (result.failed_jobs > 0) {
        Table failures({"job", "kind", "site", "attempts", "error"});
        for (std::size_t i = 0; i < result.job_records.size(); ++i) {
            const auto& record = result.job_records[i];
            if (record.error.has_value()) {
                failures.add_row({result.results[i].name, record.error->kind,
                                  record.error->site, Table::num(record.attempts),
                                  record.error->what});
            }
        }
        failures.print(std::cout, "permanently failed jobs (" +
                                      std::to_string(result.failed_jobs) + " of " +
                                      std::to_string(result.jobs) + ")");
    }

    // The artifact is written even when jobs failed — partial results plus
    // explicit error entries beat losing the completed work — but the exit
    // code still reports the failure.
    const bool wrote = nb::bench::write_json_file(json_path, [&](JsonWriter& json) {
        sweep_results_json(json, result);
    });
    if (!wrote) {
        return 1;
    }
    return result.failed_jobs > 0 ? 1 : 0;
}

int run_main(int argc, char** argv) {
    using namespace nb;

    std::string json_path;
    std::string spec_path;
    std::string codebook_dir;
    std::string codebook_stats_path;
    std::vector<std::string> names;
    bool list_only = false;
    bool sweep_mode = false;
    const char* sweep_only_flag = nullptr;  // first axis/worker flag seen
    const char* axis_flag = nullptr;        // first --seeds/--eps seen (vs --spec)
    SweepOptions sweep_options;
    bool journal_overridden = false;
    std::size_t max_retries_flag = 0;
    bool max_retries_set = false;
    std::vector<std::uint64_t> seeds = {1, 2, 3};
    std::vector<double> epsilons;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto flag_value = [&](const char* flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "error: " << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        auto flag_number = [&](const char* flag) -> std::size_t {
            const std::string value = flag_value(flag);
            char* end = nullptr;
            const auto parsed =
                static_cast<std::size_t>(std::strtoull(value.c_str(), &end, 10));
            if (value.empty() || end == nullptr || *end != '\0') {
                std::cerr << "error: " << flag << " expects a number, got '" << value
                          << "'\n";
                std::exit(2);
            }
            return parsed;
        };
        if (arg == "--list") {
            list_only = true;
        } else if (arg == "--json") {
            json_path = flag_value("--json");
        } else if (arg == "--sweep") {
            sweep_mode = true;
        } else if (arg == "--spec") {
            spec_path = flag_value("--spec");
            sweep_mode = true;
        } else if (arg == "--workers") {
            sweep_only_flag = "--workers";
            sweep_options.workers = flag_number("--workers");
        } else if (arg == "--seeds") {
            sweep_only_flag = "--seeds";
            axis_flag = "--seeds";
            seeds = parse_list<std::uint64_t>(
                flag_value("--seeds"), "--seeds",
                [](const char* s, char** end) { return std::strtoull(s, end, 10); });
        } else if (arg == "--eps") {
            sweep_only_flag = "--eps";
            axis_flag = "--eps";
            epsilons = parse_list<double>(
                flag_value("--eps"), "--eps",
                [](const char* s, char** end) { return std::strtod(s, end); });
        } else if (arg == "--max-retries") {
            sweep_only_flag = "--max-retries";
            // Applied to the spec after it is assembled: retries are a
            // property of the sweep, and the flag overrides a spec file's
            // own max_retries when both are given.
            max_retries_flag = flag_number("--max-retries");
            max_retries_set = true;
        } else if (arg == "--timeout") {
            // Valid in both modes: the sweep engine arms each job's watchdog
            // with it, and a plain scenario run goes through
            // run_scenario_with_timeout — the same CancelToken path.
            const std::string value = flag_value("--timeout");
            char* end = nullptr;
            sweep_options.job_timeout_seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || end == nullptr || *end != '\0' ||
                sweep_options.job_timeout_seconds < 0.0) {
                std::cerr << "error: --timeout expects a non-negative number of seconds, "
                             "got '"
                          << value << "'\n";
                return 2;
            }
        } else if (arg == "--journal") {
            sweep_only_flag = "--journal";
            sweep_options.journal_path = flag_value("--journal");
            journal_overridden = true;
        } else if (arg == "--resume") {
            sweep_only_flag = "--resume";
            sweep_options.resume = true;
        } else if (arg == "--codebook-dir") {
            // Valid in both modes: an execution knob — results are
            // bit-identical with or without it (the format pins the
            // builder's fingerprint), only the build cost moves.
            codebook_dir = flag_value("--codebook-dir");
        } else if (arg == "--codebook-stats") {
            codebook_stats_path = flag_value("--codebook-stats");
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: nb_run [--list] [--json PATH] [--sweep] [--spec FILE]\n"
                   "              [--workers N] [--seeds 1,2,3] [--eps 0.05,0.1]\n"
                   "              [--max-retries N] [--timeout SECONDS] [--journal PATH]\n"
                   "              [--resume] [--codebook-dir DIR] [--codebook-stats FILE]\n"
                   "              [scenario ...]\n";
            return 0;
        } else if (!arg.empty() && arg.front() == '-') {
            std::cerr << "error: unknown option " << arg << " (try --help)\n";
            return 2;
        } else {
            names.push_back(arg);
        }
    }
    if (json_path.empty()) {
        json_path = sweep_mode ? "BENCH_sweep.json" : "BENCH_scenarios.json";
    }
    if (sweep_only_flag != nullptr && !sweep_mode) {
        // Silently ignoring an axis flag would hand back results for the
        // wrong configuration with exit code 0.
        std::cerr << "error: " << sweep_only_flag << " requires --sweep\n";
        return 2;
    }
    if (!spec_path.empty() && axis_flag != nullptr) {
        std::cerr << "error: " << axis_flag
                  << " cannot be combined with --spec (the spec file defines its own "
                     "axes)\n";
        return 2;
    }
    if (!spec_path.empty() && !names.empty()) {
        std::cerr << "error: named scenarios cannot be combined with --spec\n";
        return 2;
    }

    if (!codebook_dir.empty()) {
        CodebookCache::instance().set_directory(codebook_dir);
    }

    if (list_only) {
        for (const auto& spec : scenarios::shipped_scenarios()) {
            std::cout << spec.name << "  —  " << spec.description << '\n';
        }
        for (const auto& spec : scenarios::demo_scenarios()) {
            std::cout << spec.name << "  —  " << spec.description << '\n';
        }
        return 0;
    }

    std::vector<ScenarioSpec> specs;
    if (spec_path.empty()) {
        if (names.empty()) {
            specs = scenarios::shipped_scenarios();
        } else {
            for (const auto& name : names) {
                const ScenarioSpec* spec = scenarios::find_scenario(name);
                if (spec == nullptr) {
                    std::cerr << "error: unknown scenario '" << name << "' (see --list)\n";
                    return 2;
                }
                specs.push_back(*spec);
            }
        }
    }

    if (sweep_mode) {
        SweepSpec sweep;
        if (!spec_path.empty()) {
            sweep = load_sweep_spec(spec_path);
        } else {
            sweep = scenarios::shipped_sweep(std::move(seeds));
            if (!names.empty()) {
                sweep.name = "named-x-seeds";
                sweep.bases = specs;
            }
            sweep.axes.epsilons = std::move(epsilons);
        }
        if (max_retries_set) {
            sweep.max_retries = max_retries_flag;
        }
        if (!journal_overridden) {
            // Checkpointing is on by default: a killed sweep resumes with
            // --resume, and a completed run leaves the journal beside its
            // artifact as the record of per-job attempts.
            sweep_options.journal_path = default_journal_path(json_path);
        }
        const int status = run_sweep_mode(std::move(sweep), json_path, sweep_options);
        if (!codebook_stats_path.empty() && !write_codebook_stats(codebook_stats_path)) {
            return 1;
        }
        return status;
    }

    bench::header("nb_run", "unified scenario runner",
                  "declarative scenarios (topology x channel x faults x workload) "
                  "through one execution path and one JSON schema");

    std::vector<ScenarioResult> results;
    results.reserve(specs.size());
    Table table({"scenario", "transport", "channel", "n", "Delta", "rounds", "perfect",
                 "beeps/round", "p1 FN", "p1 FP", "p2 err", "rounds/s"});
    for (const auto& spec : specs) {
        ScenarioResult result;
        try {
            result = run_scenario_with_timeout(spec, sweep_options.job_timeout_seconds);
        } catch (const cancelled_error&) {
            // Same taxonomy as the sweep's per-job watchdog, surfaced as one
            // line: a hung or over-budget scenario is a failed run (exit 1),
            // not a crash and not an indefinite hang.
            std::cerr << "error: scenario '" << spec.name << "' exceeded the --timeout "
                      << "deadline of " << sweep_options.job_timeout_seconds << " s\n";
            return 1;
        }
        table.add_row({result.name, result.transport, result.channel,
                       Table::num(result.node_count), Table::num(result.max_degree),
                       Table::num(result.rounds), Table::num(result.perfect_rounds),
                       Table::num(result.beep_rounds_per_round),
                       Table::num(result.phase1_false_negatives),
                       Table::num(result.phase1_false_positives),
                       Table::num(result.phase2_errors),
                       Table::num(result.rounds_per_second, 1)});
        results.push_back(std::move(result));
    }
    table.print(std::cout, "scenario results");

    // Unlike the benches (which exit 0 unconditionally so unattended
    // experiment runs never wedge), the JSON artifact is this tool's
    // contract: a missing or truncated file must fail the CI job.
    const bool wrote = bench::write_json_file(json_path, [&](JsonWriter& json) {
        scenario_results_json(json, results);
    });
    if (!codebook_stats_path.empty() && !write_codebook_stats(codebook_stats_path)) {
        return 1;
    }
    return wrote ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    // The whole-tool error boundary (the "never crashes on bad input"
    // contract): precondition violations — malformed spec files, bad flag
    // values, semantic errors in an assembled sweep — are usage errors
    // (one line, exit 2); anything else is an internal failure (exit 1).
    // No input reaches the user as a crash or an unhandled exception.
    try {
        return run_main(argc, argv);
    } catch (const nb::precondition_error& error) {
        std::cerr << "error: " << error.what() << '\n';
        return 2;
    } catch (const std::exception& error) {
        std::cerr << "internal error: " << error.what() << '\n';
        return 1;
    }
}
