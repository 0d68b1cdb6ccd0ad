// Scenario sweeps: ScenarioSpec templates × axes, expanded to a
// deterministic job list and executed in parallel with deterministic
// aggregation and per-job failure isolation (see DESIGN.md sections 7, 9).
//
// PR 3 made a single "what if" question a ScenarioSpec; the questions worth
// asking come in families — the same experiment across seeds, channel
// models, topologies, noise rates, and network sizes. A SweepSpec is that
// family as data: expand() produces one ScenarioSpec per point of the
// cartesian product (bases × each non-empty axis) in a fixed nested order,
// run_sweep() executes the jobs on a ThreadPool whose workers claim jobs
// from a shared atomic cursor (work stealing in the only sense that matters
// for independent jobs: an idle worker takes the next unclaimed job, so
// stragglers never serialize the sweep), and results land in per-job slots
// merged in job-index order — the aggregate is a pure function of the spec,
// byte-identical for any worker count.
//
// Failure isolation (PR 7): each job runs under its own error boundary, so
// one throwing job no longer unwinds the sweep. Failures are classified —
// transient (injected faults, allocation failure, unknown exceptions),
// timeout (the per-job watchdog deadline), fatal (precondition/invariant
// violations) — and non-fatal ones retry up to SweepSpec::max_retries.
// Because run_scenario is a pure function of its spec, a retry re-executes
// bit-identically: a sweep with injected transient faults that eventually
// succeeds is byte-identical to a clean run (property-tested). Completed
// jobs can be journaled (one fsync'd JSONL record each; scenarios/journal.h)
// and replayed by a resumed sweep, with the same byte-identity guarantee.
//
// Jobs run with threads_per_job transport workers (default 1): sweep
// parallelism comes from running jobs concurrently, not from nesting pools
// inside pools. Concurrent jobs that agree on codebook build parameters
// share one build through the process-wide CodebookCache; run_sweep reports
// the measured cache-counter delta so benches and tests can pin "strictly
// fewer builds than jobs", and computes the *analytic* cold-start counters
// (a pure function of the job list) for the canonical artifact — measured
// deltas would differ under resume or retries even though every result byte
// is the same.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/json.h"
#include "scenarios/scenario.h"
#include "sim/codebook_cache.h"

namespace nb {

/// The sweep axes. An empty axis keeps the base spec's value; a non-empty
/// one overrides it with each listed value in turn. Nesting order (outermost
/// first): base, topology, n, channel, epsilon, seed.
struct SweepAxes {
    /// Replaces the whole TopologySpec.
    std::vector<TopologySpec> topologies;

    /// Overrides topology.n (the graph families that ignore n — grid — are
    /// rejected by validate(): a silent no-op axis would mislabel results).
    std::vector<std::size_t> node_counts;

    /// Replaces the ChannelModel (decoder_epsilon is kept from the base).
    std::vector<ChannelModel> channels;

    /// Noise-rate axis: replaces the channel with iid(eps) and resets
    /// decoder_epsilon to "derive from the channel" — the E11 sweep shape.
    /// Mutually exclusive with `channels` (both drive the same field;
    /// validate() rejects the combination rather than silently letting one
    /// overwrite the other under the other's label).
    std::vector<double> epsilons;

    /// Overrides workload.seed (fresh per-node messages per seed).
    std::vector<std::uint64_t> seeds;
};

struct SweepSpec {
    std::string name;                  ///< JSON "sweep" field
    std::vector<ScenarioSpec> bases;   ///< the spec templates (names unique)
    SweepAxes axes;

    /// Extra attempts a job gets after a transient or timeout failure (0 =
    /// fail on the first error). Fatal failures (precondition/invariant
    /// violations) never retry — re-running a bug is not resilience.
    std::size_t max_retries = 0;

    /// bases.size() × the product of the non-empty axis lengths.
    std::size_t job_count() const noexcept;

    /// The job list: one fully-resolved ScenarioSpec per sweep point, in the
    /// fixed nested order, each named base.name plus one "/axis=value"
    /// suffix per non-empty axis.
    std::vector<ScenarioSpec> expand() const;

    /// Validates the spec and every expanded job; throws precondition_error.
    void validate() const;
};

struct SweepOptions {
    std::size_t workers = 0;          ///< sweep workers (0 = hardware concurrency)
    std::size_t threads_per_job = 1;  ///< transport threads inside each job

    /// Watchdog deadline per job attempt, in seconds (0 = none). Enforced
    /// cooperatively: the job's CancelToken passes its deadline and the next
    /// round-boundary poll unwinds with cancelled_error — classified as a
    /// timeout, retryable.
    double job_timeout_seconds = 0.0;

    /// Checkpoint journal path (empty = no journal). One fsync'd record per
    /// completed job; see scenarios/journal.h.
    std::string journal_path;

    /// Replay completed jobs from journal_path before running the rest. A
    /// journal whose sweep fingerprint does not match the expanded spec is
    /// ignored wholesale; individual records are additionally matched by
    /// their per-job fingerprints.
    bool resume = false;

    /// External cancel/deadline token (null = none; not owned, must outlive
    /// the run_sweep call). Every per-attempt watchdog token links it as a
    /// parent, so an outer owner — nb_serve's per-job deadline, its drain
    /// hard-cancel — stops all of a sweep's jobs at their next poll even
    /// though they run on pool workers with their own tokens. Cancellation
    /// through this token classifies as "timeout", like the watchdog.
    const CancelToken* cancel = nullptr;
};

/// Why a job permanently failed (after exhausting its retry budget, or
/// immediately for fatal errors).
struct JobError {
    std::string kind;  ///< "transient" | "timeout" | "fatal"
    std::string site;  ///< failpoint site for injected faults, else ""
    std::string what;  ///< the exception message

    /// Fatal errors (precondition/invariant violations) never retry —
    /// re-running a bug is not resilience. Everything else is worth another
    /// attempt: transients may heal, timeouts may have been load.
    bool retryable() const noexcept { return kind != "fatal"; }
};

/// The one error classifier for job-shaped work, shared by the sweep
/// engine's per-job boundary and nb_serve's executor boundary so the two
/// report the same taxonomy: precondition/invariant violations are "fatal",
/// cancelled_error (watchdog deadline or drain cancel) is "timeout", and
/// injected faults (with their site), bad_alloc, and any other exception are
/// "transient". `error` must be non-null; the classified JobError carries
/// the exception message.
JobError classify_job_error(std::exception_ptr error);

/// Per-job execution detail. Deliberately *outside* the canonical
/// nb-sweep/v1 bytes (like the worker count and wall clock): attempt counts
/// and wall times depend on scheduling and injected faults, and the
/// artifact must be byte-identical across all of that.
struct SweepJobRecord {
    std::size_t attempts = 0;      ///< attempts actually made (resumed: journaled value)
    double wall_seconds = 0.0;     ///< this run's time on the job (resumed: 0)
    bool resumed = false;          ///< result replayed from the journal
    std::optional<JobError> error; ///< set iff the job permanently failed
};

/// Analytic cold-start cache counters: what a clean run on an empty cache
/// performs, as a pure function of the job list (distinct codebook keys /
/// distinct colored graphs). These — not the measured deltas — go into the
/// canonical artifact, so resume (which skips cache work) and retries
/// (which repeat it) cannot change the bytes.
struct SweepCacheAnalysis {
    std::uint64_t builds = 0;
    std::uint64_t hits = 0;
    std::uint64_t coloring_builds = 0;
    std::uint64_t coloring_hits = 0;
};

struct SweepResult {
    std::string name;
    std::size_t jobs = 0;
    std::size_t workers = 0;          ///< resolved sweep worker count
    std::uint64_t fingerprint = 0;    ///< whole-sweep fingerprint (journal header key)
    CodebookCache::Stats cache;       ///< measured cache-counter delta over this run
    SweepCacheAnalysis cache_cold;    ///< analytic cold-start counters (canonical)
    std::vector<ScenarioResult> results;      ///< one per job, in expand() order
    std::vector<SweepJobRecord> job_records;  ///< parallel to results
    std::size_t failed_jobs = 0;      ///< jobs with a permanent JobError
    std::size_t resumed_jobs = 0;     ///< jobs replayed from the journal
    double wall_seconds = 0.0;        ///< whole-sweep wall clock
};

/// Execute every job of the sweep. Deterministic aggregation: results are
/// keyed by job index, so everything except wall_seconds, attempt counts,
/// and the measured cache delta is a pure function of the spec. A job that
/// throws is isolated, classified, and retried per spec.max_retries; the
/// sweep always runs to completion and reports failures in job_records
/// (spec-level validation errors still throw precondition_error up front).
SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& options = {});

/// Serialize in the nb-sweep/v1 schema: {"schema", "sweep", "jobs",
/// "codebook_cache": {hits, builds, coloring_*}, "results": [...]}.
/// Timing fields, attempt counts, and the worker count are deliberately
/// omitted, and the cache block is the analytic cold-start one — so the
/// artifact is byte-identical for any worker count, with or without
/// injected transient faults, retries, or resume (the determinism suite
/// pins this; see DESIGN.md sections 7 and 9). A permanently failed job
/// serializes as {"name", "error": {kind, site}} in its result slot.
void sweep_results_json(JsonWriter& json, const SweepResult& result);

}  // namespace nb
