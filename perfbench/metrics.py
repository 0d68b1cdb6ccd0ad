"""Metric arithmetic for the repository benchmark.

nb_perfbench writes raw samples, counts and spans; everything derived from
them is computed here, so that perfbench/test_metrics.py can test it without
a build. run.py is the only caller.
"""

import hashlib
import math
import statistics

# Rank-based percentile rule: the p-th percentile of n samples is the
# ceil(p*n)-th smallest; the samples beyond it are the n - ceil(p*n) larger
# ones. A tail percentile is reported only when at least this many lie
# beyond it.
MIN_SAMPLES_BEYOND = 10

# Which end-to-end metric each per-layer metric should move, and on which
# workload (README.md explains the predictions).
LAYER_TARGETS = {
    "graph.build_ms": "setup_s on every workload",
    "scenarios.workload_build_ms": "setup_s on every workload",
    "codebook.build_ms": "setup_s on regular-2k",
    "codebook.round_ms": "rounds_per_s on ring-64k; no change predicted on regular-2k",
    "codebook.round_allocs": "rounds_per_s on ring-64k",
    "codebook.codewords_per_round": "rounds_per_s on ring-64k",
    "codebook.encodes_per_round": "rounds_per_s on ring-64k",
    "beep.superimpose_ms": "rounds_per_s on regular-2k and dense-1k; little on ring-64k",
    "beep.hear_ms": "rounds_per_s on regular-2k and dense-1k; little on ring-64k",
    "beep.noise_ms": "rounds_per_s on regular-2k and dense-1k; little on ring-64k",
    "transport.decode_ms": "rounds_per_s on regular-2k (two_hop scan) and dense-1k (bitslice)",
    "transport.decode_allocs": "rounds_per_s on regular-2k and dense-1k",
    "transport.round_ms": "rounds_per_s on every simulation workload",
    "transport.round_allocs": "rounds_per_s on ring-64k",
    "transport.overlap": "rounds_per_s on every simulation workload (> 1: build hidden)",
    "transport.convert_ms": "rounds_per_s on ring-64k",
    "thread_pool.scaling_eff": "rounds_per_s on ring-64k",
    "codebook_cache.builds": "jobs_per_s on serve-mix",
    "codebook_cache.hits": "jobs_per_s on serve-mix",
    "codebook_cache.hit_rate": "jobs_per_s on serve-mix",
    "sweep.run_ms": "jobs_per_s on serve-mix",
    "store.put_ms": "job_p50_ms on serve-mix (stored submits)",
    "store.get_ms": "job_p50_ms on serve-mix (stored submits)",
    "serve.ping_ms": "job_p95_ms on serve-mix",
    "serve.queue_wait_ms": "job_p95_ms on serve-mix",
    "serve.completed": "failed_frac on serve-mix",
    "serve.failed": "failed_frac on serve-mix",
    "serve.shed": "failed_frac on serve-mix",
    "serve.retries": "failed_frac on serve-mix",
    "trace.overhead": "none: the cost of tracing itself",
}


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values, p):
    """The ceil(p*n)-th smallest of `values` (rank-based, no interpolation)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the p-th percentile's rank."""
    return n - max(1, math.ceil(p * n)) if n > 0 else 0


def tail_supported(n, p):
    return samples_beyond(n, p) >= MIN_SAMPLES_BEYOND


def failed_frac(failures, attempts):
    if attempts <= 0:
        raise ValueError("failed_frac needs at least one attempt")
    if failures < 0 or failures > attempts:
        raise ValueError("failures must lie in [0, attempts]")
    return failures / attempts


def self_times(spans):
    """Per span, its duration minus the part of it its children cover.

    `spans` are dicts with start_ns, end_ns and parent (an index into the
    list, -1 for a root). Children may overlap each other (concurrent work);
    their union is what is subtracted, clipped to the parent's interval.
    """
    children = {}
    for index, span in enumerate(spans):
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(index)
    result = []
    for index, span in enumerate(spans):
        start, end = span["start_ns"], span["end_ns"]
        intervals = sorted(
            (max(start, spans[c]["start_ns"]), min(end, spans[c]["end_ns"]))
            for c in children.get(index, ())
        )
        covered = 0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


def self_time_by_name(spans):
    """{span name: [self time in ms, ...]} over every span."""
    by_name = {}
    for span, own in zip(spans, self_times(spans)):
        by_name.setdefault(span["name"], []).append(own / 1e6)
    return by_name


def noise_ms(hear_ms, superimpose_ms):
    """Channel-noise cost: hear = superimpose + noise over the same nodes."""
    return hear_ms - superimpose_ms


def overlap(codebook_round_ms, decode_ms, round_ms):
    """Serial build + decode over the pipelined round; above 1 the pipeline hides work."""
    return (codebook_round_ms + decode_ms) / round_ms


def queue_wait_samples(latency_ms, stored, sweep_ms, put_ms, ping_ms):
    """Per completed submit: latency minus sweep, store put (stored only) and wire."""
    return [
        latency - sweep_ms - (put_ms if is_stored else 0.0) - ping_ms
        for latency, is_stored in zip(latency_ms, stored)
    ]


def trace_overhead(op_ms, traced):
    """untraced / traced rate - 1, from alternating traced and untraced operations."""
    traced_ms = [ms for ms, flag in zip(op_ms, traced) if flag]
    untraced_ms = [ms for ms, flag in zip(op_ms, traced) if not flag]
    return statistics.fmean(traced_ms) / statistics.fmean(untraced_ms) - 1.0


def scaling_efficiency(op_ms, single_thread_op_ms, threads):
    """Rate at `threads` over threads x the 1-thread rate, for the same spec."""
    return (median(single_thread_op_ms) / median(op_ms)) / threads


def hit_rate(hits, builds, disk_loads=0):
    lookups = hits + builds + disk_loads
    return hits / lookups if lookups else 0.0


# --------------------------------------------------------------- end to end --


def digest(text):
    """The digest the output check compares: sha256 of the canonical bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def end_to_end(record, check_failed):
    """{metric: (value, unit, samples)} for one untraced run record.

    `check_failed` is the failed-operation count check_failures() found.
    """
    seconds = record["loop_seconds"]
    latencies = record["op_ms"]
    failures = failure_counts(record, check_failed)
    if record["kind"] == "serve":
        jobs = record["done"]
        rounds = jobs * record["rounds_per_job"]
    else:
        jobs = len(latencies)
        rounds = record["rounds"]
    return {
        "rounds_per_s": (rounds / seconds, "rounds/s", int(rounds)),
        "jobs_per_s": (jobs / seconds, "jobs/s", int(jobs)),
        "job_p50_ms": (median(latencies), "ms", len(latencies)),
        "job_p95_ms": (percentile(latencies, 0.95), "ms", len(latencies)),
        "setup_s": (median(record["setup_s"]), "s", len(record["setup_s"])),
        "peak_rss_mb": peak_rss(record),
        "failed_frac": (failed_frac(*failures), "ratio", int(failures[1])),
    }


def peak_rss(record):
    """(MB, "MB", samples): the resident high-water mark.

    Simulation workloads: the median over run_scenario calls of the
    high-water mark reached during the call (VmHWM is reset before each
    call), because the process-wide peak depends on which malloc arenas the
    pipeline's threads happened to grow. serve-mix, and any run where the
    reset is unavailable: the process-wide peak.
    """
    per_call = record.get("op_peak_rss_mb")
    if record["kind"] == "simulation" and per_call:
        return median(per_call), "MB", len(per_call)
    return record["peak_rss_mb"], "MB", 1


def failure_counts(record, check_failed):
    """(failures, attempts) behind failed_frac.

    Simulation workloads: rounds with delivery mismatches, plus every round of
    a call whose output check failed, over rounds simulated. serve-mix:
    errors, sheds, transport failures and artifact mismatches over submits.
    """
    if record["kind"] == "serve":
        return check_failed, record["submits"]
    rounds = record["rounds"]
    failures = record["imperfect_rounds"] + record["rounds_per_call"] * check_failed
    return min(failures, rounds), rounds


def check_failures(record, recorded_digest=None):
    """(failed operations, attempted operations) of the output check.

    Simulation workloads: calls whose canonical result bytes differ from the
    first call's, and every call when the first differs from the threads=1
    reference or from the recorded digest. serve-mix: submits that errored,
    were shed or failed in transport, and artifacts that differ from the
    in-process reference.
    """
    if record["kind"] == "serve":
        failures = (record["errors"] + record["sheds"] + record["transport_failures"]
                    + record["artifact_mismatches"] + record["reference_mismatches"])
        return int(min(failures, record["submits"])), int(record["submits"])
    calls = len(record["op_ms"])
    failed = int(record["mismatched_calls"])
    reference_ok = record["canonical"] == record["reference_canonical"]
    if recorded_digest is not None:
        reference_ok = reference_ok and digest(record["canonical"]) == recorded_digest
    if not reference_ok:
        failed = calls
    return failed, calls


# ---------------------------------------------------------------- per layer --


def per_layer(record):
    """{metric: (value, unit, samples)} for one traced run record."""
    spans = record["spans"]
    own_ms = [own / 1e6 for own in self_times(spans)]

    def span_median(name, per_item=False):
        """Median self time of the spans called `name`, per work item if asked."""
        values = [ms / span["items"] if per_item else ms
                  for span, ms in zip(spans, own_ms) if span["name"] == name]
        if not values:
            raise KeyError("no '%s' spans in the trace" % name)
        return median(values), len(values)

    serve = "" if record["kind"] == "serve" else "serve_probe."
    scenario = "scenario_probe." if record["kind"] == "serve" else ""
    threads = record[scenario + "threads"]
    rounds_per_call = record[scenario + "rounds_per_call"]
    out = {}

    def put(name, value, unit, samples):
        out[name] = (value, unit, samples)

    for metric, span in (("graph.build_ms", "graph.build"),
                         ("scenarios.workload_build_ms", "scenarios.workload_build"),
                         ("codebook.build_ms", "codebook.build"),
                         ("codebook.round_ms", "codebook.round"),
                         ("beep.superimpose_ms", "beep.superimpose"),
                         ("beep.hear_ms", "beep.hear"),
                         ("sweep.run_ms", "sweep.run"),
                         ("store.put_ms", "store.put"),
                         ("store.get_ms", "store.get"),
                         ("serve.ping_ms", "serve.ping")):
        value, samples = span_median(span)
        put(metric, value, "ms", samples)
    for metric, span in (("transport.decode_ms", "transport.decode"),
                         ("transport.round_ms", "transport.round")):
        value, samples = span_median(span, per_item=True)
        put(metric, value, "ms", samples)

    builds = record["codebook.round_builds"]
    put("codebook.round_allocs", median(record["codebook.round_allocs"]), "count",
        len(record["codebook.round_allocs"]))
    put("codebook.codewords_per_round", record["codebook.codeword_builds"] / builds, "count",
        int(builds))
    put("codebook.encodes_per_round", record["codebook.payload_encodes"] / builds, "count",
        int(builds))
    put("beep.noise_ms", noise_ms(out["beep.hear_ms"][0], out["beep.superimpose_ms"][0]), "ms",
        out["beep.hear_ms"][2])
    put("transport.decode_allocs", median(record["transport.decode_allocs"]), "count",
        len(record["transport.decode_allocs"]))
    put("transport.round_allocs", median(record["transport.round_allocs"]), "count",
        len(record["transport.round_allocs"]))
    put("transport.overlap",
        overlap(out["codebook.round_ms"][0], out["transport.decode_ms"][0],
                out["transport.round_ms"][0]), "ratio", out["transport.round_ms"][2])
    sim_per_round = [ms / rounds_per_call for ms in record[scenario + "sim_ms"]]
    put("transport.convert_ms", median(sim_per_round) - out["transport.round_ms"][0], "ms",
        len(sim_per_round))
    put("thread_pool.scaling_eff",
        scaling_efficiency(record[scenario + "op_ms"],
                           record[scenario + "single_thread_op_ms"], threads),
        "ratio", len(record[scenario + "single_thread_op_ms"]))

    cache = serve + "cache." if record["kind"] == "serve" else scenario + "cache."
    hits, cache_builds = record[cache + "hits"], record[cache + "builds"]
    put("codebook_cache.builds", cache_builds, "count", 1)
    put("codebook_cache.hits", hits, "count", 1)
    put("codebook_cache.hit_rate", hit_rate(hits, cache_builds, record[cache + "disk_loads"]),
        "ratio", int(hits + cache_builds))

    waits = queue_wait_samples(record[serve + "op_ms"], record[serve + "op_stored"],
                               out["sweep.run_ms"][0], out["store.put_ms"][0],
                               out["serve.ping_ms"][0])
    put("serve.queue_wait_ms", median(waits), "ms", len(waits))
    put("serve.completed", record[serve + "server.completed"], "count", 1)
    put("serve.failed", record[serve + "server.failed"], "count", 1)
    put("serve.shed", record[serve + "server.shed_overloaded"]
        + record[serve + "server.shed_draining"], "count", 1)
    put("serve.retries", record[serve + "server.retries"], "count", 1)

    put("trace.overhead", trace_overhead(record["op_ms"], record["op_traced"]), "ratio",
        len(record["op_ms"]))
    return {name: out[name] for name in LAYER_TARGETS}
