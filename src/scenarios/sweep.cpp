#include "scenarios/sweep.h"

#include <chrono>
#include <cstring>
#include <exception>
#include <unordered_map>
#include <unordered_set>

#include "common/cancel.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "scenarios/journal.h"

namespace nb {

std::size_t SweepSpec::job_count() const noexcept {
    auto axis = [](std::size_t size) { return size == 0 ? 1 : size; };
    return bases.size() * axis(axes.topologies.size()) * axis(axes.node_counts.size()) *
           axis(axes.channels.size()) * axis(axes.epsilons.size()) * axis(axes.seeds.size());
}

std::vector<ScenarioSpec> SweepSpec::expand() const {
    // Each loop runs once with "keep the base value" when its axis is empty;
    // the index is meaningful only when the axis is non-empty.
    auto extent = [](std::size_t size) { return size == 0 ? std::size_t{1} : size; };

    std::vector<ScenarioSpec> jobs;
    jobs.reserve(job_count());
    for (const auto& base : bases) {
        for (std::size_t t = 0; t < extent(axes.topologies.size()); ++t) {
            for (std::size_t n = 0; n < extent(axes.node_counts.size()); ++n) {
                for (std::size_t c = 0; c < extent(axes.channels.size()); ++c) {
                    for (std::size_t e = 0; e < extent(axes.epsilons.size()); ++e) {
                        for (std::size_t s = 0; s < extent(axes.seeds.size()); ++s) {
                            ScenarioSpec job = base;
                            if (!axes.topologies.empty()) {
                                job.topology = axes.topologies[t];
                                job.name += "/top=" + job.topology.describe();
                            }
                            if (!axes.node_counts.empty()) {
                                job.topology.n = axes.node_counts[n];
                                job.name += "/n=" + std::to_string(axes.node_counts[n]);
                            }
                            if (!axes.channels.empty()) {
                                job.channel = axes.channels[c];
                                job.name += "/ch=" + job.channel.describe();
                            }
                            if (!axes.epsilons.empty()) {
                                job.channel = ChannelModel::iid(axes.epsilons[e]);
                                job.decoder_epsilon = -1.0;  // derive from the channel
                                // format_double: axis names share the JSON
                                // serializer's locale-independent form.
                                job.name += "/eps=" + format_double(axes.epsilons[e]);
                            }
                            if (!axes.seeds.empty()) {
                                job.workload.seed = axes.seeds[s];
                                job.name += "/seed=" + std::to_string(axes.seeds[s]);
                            }
                            jobs.push_back(std::move(job));
                        }
                    }
                }
            }
        }
    }
    return jobs;
}

namespace {

// Fired before a job's first real work on every attempt — the coarse "this
// worker died" site the resilience tests and the CI fault-injection run
// arm. Placed before run_scenario so an injected throw perturbs no cache
// state: a retried job performs exactly the cache traffic of a clean one.
NB_FAILPOINT_DEFINE(fp_sweep_job, "sweep.job");

/// The spec-level checks (everything except per-job validation), split out
/// so run_sweep can validate the jobs it expands instead of expanding the
/// whole cartesian product a second time inside SweepSpec::validate().
void validate_spec_level(const SweepSpec& spec) {
    require(!spec.bases.empty(), "SweepSpec: at least one base spec required");
    std::unordered_set<std::string> names;
    for (const auto& base : spec.bases) {
        require(names.insert(base.name).second,
                "SweepSpec: base names must be unique (axis suffixes cannot "
                "disambiguate identical bases)");
    }
    require(spec.axes.channels.empty() || spec.axes.epsilons.empty(),
            "SweepSpec: the channels and epsilons axes both drive the channel "
            "model — use one or the other");
    if (!spec.axes.node_counts.empty()) {
        for (const auto& base : spec.bases) {
            const TopologySpec::Family family = spec.axes.topologies.empty()
                                                    ? base.topology.family
                                                    : spec.axes.topologies.front().family;
            require(family != TopologySpec::Family::grid,
                    "SweepSpec: the n axis cannot drive grid topologies "
                    "(grids are sized by rows x cols)");
        }
        for (const auto& topology : spec.axes.topologies) {
            require(topology.family != TopologySpec::Family::grid,
                    "SweepSpec: the n axis cannot drive grid topologies "
                    "(grids are sized by rows x cols)");
        }
    }
}

/// Digest of every field Graph construction reads from a TopologySpec —
/// jobs with equal digests build identical graphs, so the analytic cache
/// pass builds each distinct graph once instead of once per job.
std::uint64_t topology_digest(const TopologySpec& topology) {
    std::uint64_t h = 0x746f706f5f646967ULL;
    auto mix = [&h](std::uint64_t value) { h = mix64(h ^ value); };
    auto mix_double = [&mix](double value) {
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof value);
        std::memcpy(&bits, &value, sizeof bits);
        mix(bits);
    };
    mix(static_cast<std::uint64_t>(topology.family));
    mix(topology.n);
    mix(topology.degree);
    mix_double(topology.edge_probability);
    mix_double(topology.radius);
    mix(topology.rows);
    mix(topology.cols);
    mix(topology.seed);
    return h;
}

/// The analytic cold-start cache pass: replay the job list's cache traffic
/// against empty key sets. One acquire per beep job (BeepTransport takes
/// its codebook from the cache once, at construction), one coloring per
/// tdma job; a never-seen key is a build, a repeat is a hit —
/// exactly what a clean run on an empty cache with no eviction pressure
/// performs, and a pure function of the job list.
SweepCacheAnalysis analyze_cache_cold(const std::vector<ScenarioSpec>& jobs) {
    SweepCacheAnalysis analysis;
    std::unordered_map<std::uint64_t, Graph> graphs;
    std::unordered_set<std::uint64_t> codebook_keys;
    std::unordered_set<std::uint64_t> colored_graphs;
    for (const auto& job : jobs) {
        const std::uint64_t td = topology_digest(job.topology);
        auto it = graphs.find(td);
        if (it == graphs.end()) {
            it = graphs.emplace(td, job.topology.build()).first;
        }
        const Graph& graph = it->second;
        if (job.transport == TransportKind::beep) {
            const std::uint64_t key = CodebookCache::key_digest(graph, job.sim_params());
            ++(codebook_keys.insert(key).second ? analysis.builds : analysis.hits);
        } else {
            const std::uint64_t digest = CodebookCache::graph_digest(graph);
            ++(colored_graphs.insert(digest).second ? analysis.coloring_builds
                                                    : analysis.coloring_hits);
        }
    }
    return analysis;
}

/// Whole-sweep identity: the name plus every job's fingerprint, in order.
/// Any edit that could change any job's numbers — or add, drop, or reorder
/// jobs — changes this, which is what gates journal replay wholesale.
std::uint64_t sweep_fingerprint(const std::string& name,
                                const std::vector<std::uint64_t>& job_fingerprints) {
    std::uint64_t h = 0x6e622d73777065ULL;  // "nb-swpe"
    auto mix = [&h](std::uint64_t value) { h = mix64(h ^ value); };
    mix(name.size());
    for (const char ch : name) {
        mix(static_cast<unsigned char>(ch));
    }
    mix(job_fingerprints.size());
    for (const std::uint64_t f : job_fingerprints) {
        mix(f);
    }
    return h;
}

/// One job under its own error boundary: retry loop, watchdog token,
/// classification, journal append on success. Never throws — a permanent
/// failure lands in `record.error` and the sweep keeps going.
void run_one_job(const ScenarioSpec& job, std::size_t index, std::uint64_t job_fp,
                 std::size_t max_retries, double timeout_seconds,
                 const CancelToken* external_cancel, SweepJournal& journal,
                 ScenarioResult& out, SweepJobRecord& record) {
    const auto start = std::chrono::steady_clock::now();
    const std::size_t max_attempts = max_retries + 1;
    for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
        record.attempts = attempt;
        CancelToken token;
        token.set_parent(external_cancel);
        if (timeout_seconds > 0.0) {
            token.set_timeout(std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::duration<double>(timeout_seconds)));
        }
        // Install the watchdog for this attempt: round-boundary polls in the
        // transports (and chunk claims in any token-aware pool work) see it
        // through the thread-local and unwind with cancelled_error. The
        // parent link makes an outer owner's cancel (nb_serve's deadline or
        // drain) visible through the same polls.
        CancelScope scope(&token);
        try {
            fp_sweep_job.check();
            out = run_scenario(job);
            record.error.reset();
            record.wall_seconds = std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() - start)
                                      .count();
            journal.append(JournalRecord{index, job_fp, attempt, out});
            return;
        } catch (...) {
            record.error = classify_job_error(std::current_exception());
            if (!record.error->retryable()) {
                break;  // a bug or bad spec: re-running it is not resilience
            }
            if (external_cancel != nullptr && external_cancel->cancelled()) {
                break;  // the owner is gone: retries would just re-cancel
            }
        }
    }
    record.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    out = ScenarioResult{};
    out.name = job.name;  // the failed slot still names its job in the artifact
}

}  // namespace

JobError classify_job_error(std::exception_ptr error) {
    try {
        std::rethrow_exception(error);
    } catch (const precondition_error& e) {
        return JobError{"fatal", "", e.what()};
    } catch (const invariant_error& e) {
        return JobError{"fatal", "", e.what()};
    } catch (const cancelled_error& e) {
        return JobError{"timeout", "", e.what()};
    } catch (const failpoint::injected_fault& e) {
        return JobError{"transient", e.site(), e.what()};
    } catch (const std::bad_alloc& e) {
        return JobError{"transient", "", e.what()};
    } catch (const std::exception& e) {
        return JobError{"transient", "", e.what()};
    } catch (...) {
        return JobError{"transient", "", "unknown exception"};
    }
}

void SweepSpec::validate() const {
    validate_spec_level(*this);
    for (const auto& job : expand()) {
        job.validate();
    }
}

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& options) {
    validate_spec_level(spec);
    std::vector<ScenarioSpec> jobs = spec.expand();
    for (const auto& job : jobs) {
        job.validate();
    }
    for (auto& job : jobs) {
        job.threads = options.threads_per_job;
    }

    std::vector<std::uint64_t> job_fingerprints;
    job_fingerprints.reserve(jobs.size());
    for (const auto& job : jobs) {
        job_fingerprints.push_back(scenario_spec_fingerprint(job));
    }

    SweepResult result;
    result.name = spec.name;
    result.jobs = jobs.size();
    result.fingerprint = sweep_fingerprint(spec.name, job_fingerprints);
    result.cache_cold = analyze_cache_cold(jobs);
    result.results.resize(jobs.size());
    result.job_records.resize(jobs.size());

    // Resume: replay journal records whose sweep AND job fingerprints match
    // the freshly expanded spec. A header mismatch (different spec, torn
    // header, missing file) discards the journal wholesale and the sweep
    // starts clean.
    bool journal_matches = false;
    if (options.resume && !options.journal_path.empty()) {
        const JournalContents contents = read_journal(options.journal_path);
        journal_matches = contents.header_ok && contents.fingerprint == result.fingerprint &&
                          contents.jobs == jobs.size();
        if (journal_matches) {
            for (const auto& record : contents.records) {
                if (record.job < jobs.size() &&
                    record.fingerprint == job_fingerprints[record.job] &&
                    !result.job_records[record.job].resumed) {
                    result.results[record.job] = record.result;
                    auto& job_record = result.job_records[record.job];
                    job_record.attempts = record.attempts;
                    job_record.resumed = true;
                    ++result.resumed_jobs;
                }
            }
        }
    }

    SweepJournal journal;
    if (!options.journal_path.empty()) {
        // A matched resume appends after the surviving records; anything
        // else starts a fresh journal (truncating stale or foreign content).
        journal.open(options.journal_path, spec.name, result.fingerprint, jobs.size(),
                     /*append=*/journal_matches);
    }

    std::vector<std::size_t> pending;
    pending.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!result.job_records[i].resumed) {
            pending.push_back(i);
        }
    }

    CodebookCache& cache = CodebookCache::instance();
    const CodebookCache::Stats before = cache.stats();

    ThreadPool pool(ThreadPool::worker_count_for(options.workers, pending.size()));
    result.workers = pool.worker_count();
    const auto start = std::chrono::steady_clock::now();
    // Per-job result slots keyed by job index: no ordering between jobs, and
    // the merged output is independent of which worker ran what. run_one_job
    // never throws, so one failing job cannot take the sweep down with it.
    pool.parallel_for(pending.size(), [&](std::size_t, std::size_t i) {
        const std::size_t job = pending[i];
        run_one_job(jobs[job], job, job_fingerprints[job], spec.max_retries,
                    options.job_timeout_seconds, options.cancel, journal,
                    result.results[job], result.job_records[job]);
    });
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    journal.close();

    for (const auto& record : result.job_records) {
        if (record.error.has_value()) {
            ++result.failed_jobs;
        }
    }

    const CodebookCache::Stats after = cache.stats();
    result.cache.hits = after.hits - before.hits;
    result.cache.builds = after.builds - before.builds;
    result.cache.evictions = after.evictions - before.evictions;
    result.cache.evictions_capacity = after.evictions_capacity - before.evictions_capacity;
    result.cache.oversize_uncached = after.oversize_uncached - before.oversize_uncached;
    result.cache.bytes_resident = after.bytes_resident;  // snapshot, not a delta
    result.cache.coloring_hits = after.coloring_hits - before.coloring_hits;
    result.cache.coloring_builds = after.coloring_builds - before.coloring_builds;
    result.cache.coloring_evictions =
        after.coloring_evictions - before.coloring_evictions;
    return result;
}

void sweep_results_json(JsonWriter& json, const SweepResult& result) {
    json.begin_object();
    json.kv("schema", "nb-sweep/v1");
    json.kv("sweep", result.name);
    json.kv("jobs", result.jobs);
    // The analytic cold-start counters, not the measured deltas: measured
    // values depend on what resume skipped, what retries repeated, and (under
    // eviction pressure) job completion order — all things the byte-identity
    // contract must be immune to. The analytic block is a pure function of
    // the job list. The measured delta stays available in SweepResult.cache
    // for the console report and the cache-sharing tests.
    json.key("codebook_cache");
    json.begin_object();
    json.kv("hits", result.cache_cold.hits);
    json.kv("builds", result.cache_cold.builds);
    json.kv("coloring_hits", result.cache_cold.coloring_hits);
    json.kv("coloring_builds", result.cache_cold.coloring_builds);
    json.end_object();
    json.key("results").begin_array();
    for (std::size_t i = 0; i < result.results.size(); ++i) {
        const SweepJobRecord* record =
            i < result.job_records.size() ? &result.job_records[i] : nullptr;
        if (record != nullptr && record->error.has_value()) {
            // A permanently failed job: name + classification, no numbers.
            // kind and site are deterministic; the exception text (which may
            // embed addresses or counts) is kept out of the canonical bytes.
            json.begin_object();
            json.kv("name", result.results[i].name);
            json.key("error");
            json.begin_object();
            json.kv("kind", record->error->kind);
            json.kv("site", record->error->site);
            json.end_object();
            json.end_object();
            continue;
        }
        scenario_result_json(json, result.results[i], /*include_timing=*/false);
    }
    json.end_array();
    json.end_object();
}

}  // namespace nb
