#!/usr/bin/env python3
"""Perf-smoke gate: compare a fresh BENCH_transport.json against the checked-in
baseline and fail on a batched-throughput regression.

CI runners and developer machines differ wildly in raw speed, so absolute
rounds/s are never compared. Instead both runs are normalized by their own
scalar n=256 batched throughput (the least SIMD- and memory-sensitive
configuration), and the regression threshold applies to the normalized
values. That catches the regressions this gate exists for — a slowdown
specific to the batched path, to large n, or to one kernel table — while
staying stable across machine generations. A perfectly uniform slowdown of
every configuration is invisible to this check by construction; that is the
price of a machine-portable gate (the absolute numbers are still archived
as artifacts for human eyes).

Configurations present in only one of the two files (e.g. no AVX-512 on the
runner) are skipped with a note. Steady-state allocation counts are an exact
gate: the zero-copy contract does not degrade gracefully.

A second, self-contained mode gates the transport's thread-scaling claim:
`--scaling BENCH_scaling.json` checks that batched throughput at 4 threads
is at least --scaling-speedup (default 2.0) times the 1-thread rate. That
ratio only means anything when the machine can actually run 4 workers, so
the gate applies the threshold when the recorded hardware_concurrency is
>= 4 and otherwise just sanity-checks that every rate is positive —
same-machine self-comparison, so no baseline file and no normalization
anchor needed.

A third self-contained mode gates the serialized-codebook claim:
`--codebook BENCH_codebook.json` checks that at n >= 4096 the mmap load is
at least --codebook-speedup (default 5.0) times faster than a fresh build,
that every mode stayed fingerprint-identical to fresh, and that the bench's
simulated restart recorded zero builds. Like --scaling this is a same-machine
self-comparison (a ratio of two timings from one run), so it needs no
baseline and no normalization anchor.

Usage: check_perf_regression.py CURRENT BASELINE [--threshold 0.30]
       check_perf_regression.py --scaling BENCH_scaling.json [--scaling-speedup 2.0]
       check_perf_regression.py --codebook BENCH_codebook.json [--codebook-speedup 5.0]
Exit status 0 = pass, 1 = regression or malformed input.
"""

import argparse
import json
import sys


def load_doc(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_results(doc, path):
    results = {}
    for row in doc.get("results", []):
        key = (row["n"], row["kernel"])
        results[key] = row
    if not results:
        raise ValueError(f"{path}: no results")
    return results


def cache_pressure_failures(doc):
    """Exact gate on the codebook cache block (absent in old baselines):
    byte-capacity evictions or oversize fallbacks mean the shipped workloads
    outgrew the cache budget — every affected transport construction pays a
    full rebuild, which the throughput rows only partially expose."""
    cache = doc.get("codebook_cache")
    if cache is None:
        return []
    failures = []
    for counter in ("evictions_capacity", "oversize_uncached"):
        value = cache.get(counter, 0)
        if value != 0:
            failures.append(f"codebook_cache.{counter}={value} (cache pressure; "
                            f"expected 0)")
    return failures


def reference_rate(results, path):
    # The normalization anchor. Every run includes the scalar table, and
    # n=256 fits comfortably in cache everywhere.
    row = results.get((256, "scalar"))
    if row is None:
        raise ValueError(f"{path}: missing the scalar n=256 anchor row")
    rate = float(row["batched_rounds_per_s"])
    if rate <= 0:
        raise ValueError(f"{path}: non-positive anchor throughput {rate}")
    return rate


def check_thread_scaling(path, min_speedup):
    """The BENCH_scaling.json gate: 4-thread batched throughput >= min_speedup
    times the 1-thread rate, enforced only where 4 workers can actually run
    in parallel."""
    doc = load_doc(path)
    rates = {}
    for row in doc.get("results", []):
        rate = float(row["batched_rounds_per_s"])
        if rate <= 0:
            print(f"check_perf_regression: {path}: non-positive rate at "
                  f"threads={row['threads']}", file=sys.stderr)
            return 1
        rates[int(row["threads"])] = rate
    for threads in (1, 4):
        if threads not in rates:
            print(f"check_perf_regression: {path}: missing threads={threads} row",
                  file=sys.stderr)
            return 1

    cores = int(doc.get("hardware_concurrency", 0))
    speedup = rates[4] / rates[1]
    for threads in sorted(rates):
        print(f"  threads={threads} batched {rates[threads]:10.2f} rounds/s "
              f"({rates[threads] / rates[1]:.2f}x vs 1 thread)")
    if cores < 4:
        print(f"check_perf_regression: hardware_concurrency={cores} < 4; "
              f"scaling threshold not applicable, rates sane")
        return 0
    if speedup < min_speedup:
        print(f"check_perf_regression: 1->4 thread speedup {speedup:.2f}x "
              f"below required {min_speedup:.2f}x", file=sys.stderr)
        return 1
    print(f"check_perf_regression: 1->4 thread speedup {speedup:.2f}x "
          f"(required {min_speedup:.2f}x)")
    return 0


def check_codebook(path, min_speedup):
    """The BENCH_codebook.json gate: correctness is exact (every build mode
    fingerprint-identical to fresh, warm restart rebuilt nothing), and the
    mmap-load speedup threshold applies at n >= 4096, where the dictionary
    construction being skipped is large enough to dominate timing noise."""
    doc = load_doc(path)
    results = doc.get("results", [])
    if not results:
        print(f"check_perf_regression: {path}: no results", file=sys.stderr)
        return 1
    failures = []
    gated = 0
    for row in results:
        n = int(row["n"])
        fresh = float(row["fresh_ms"])
        mmap_load = float(row["mmap_load_ms"])
        if fresh <= 0 or mmap_load <= 0:
            failures.append(f"n={n}: non-positive timing (fresh={fresh}, "
                            f"mmap={mmap_load})")
            continue
        if not row.get("identical", False):
            failures.append(f"n={n}: a build mode diverged from the fresh "
                            f"fingerprint")
        speedup = fresh / mmap_load
        gate = ""
        if n >= 4096:
            gated += 1
            if speedup < min_speedup:
                gate = " REGRESSION"
                failures.append(f"n={n}: mmap load speedup {speedup:.1f}x below "
                                f"required {min_speedup:.1f}x")
        print(f"  n={n:5d} fresh {fresh:9.2f} ms  mmap {mmap_load:8.3f} ms  "
              f"({speedup:7.1f}x){gate}")
    cache = doc.get("cache", {})
    if cache.get("builds", -1) != 0:
        failures.append(f"cache.builds={cache.get('builds')} after simulated "
                        f"restart (expected 0 — warm start rebuilt)")
    if cache.get("disk_loads", 0) < 1:
        failures.append("cache.disk_loads=0 after simulated restart (warm path "
                        "never exercised)")
    if gated == 0:
        failures.append("no n >= 4096 row to gate on")
    if failures:
        print(f"\ncheck_perf_regression: {len(failures)} failure(s):",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"check_perf_regression: codebook mmap speedup >= {min_speedup:.1f}x, "
          f"all modes fingerprint-identical, warm restart built nothing")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", nargs="?",
                        help="BENCH_transport.json from this build")
    parser.add_argument("baseline", nargs="?", help="checked-in baseline JSON")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional drop in normalized batched "
                             "rounds/s (default 0.30)")
    parser.add_argument("--scaling", metavar="BENCH_scaling.json",
                        help="gate transport thread scaling instead of the "
                             "transport baseline comparison")
    parser.add_argument("--scaling-speedup", type=float, default=2.0,
                        help="required 1->4 thread throughput ratio when the "
                             "machine has >= 4 cores (default 2.0)")
    parser.add_argument("--codebook", metavar="BENCH_codebook.json",
                        help="gate serialized-codebook load speedup and "
                             "fingerprint identity instead of the transport "
                             "baseline comparison")
    parser.add_argument("--codebook-speedup", type=float, default=5.0,
                        help="required fresh-build / mmap-load ratio at "
                             "n >= 4096 (default 5.0)")
    args = parser.parse_args()

    if args.scaling is not None:
        try:
            return check_thread_scaling(args.scaling, args.scaling_speedup)
        except (OSError, KeyError, ValueError) as err:
            print(f"check_perf_regression: {err}", file=sys.stderr)
            return 1
    if args.codebook is not None:
        try:
            return check_codebook(args.codebook, args.codebook_speedup)
        except (OSError, KeyError, ValueError) as err:
            print(f"check_perf_regression: {err}", file=sys.stderr)
            return 1
    if args.current is None or args.baseline is None:
        parser.error("CURRENT and BASELINE are required without --scaling "
                     "or --codebook")

    try:
        current_doc = load_doc(args.current)
        current = load_results(current_doc, args.current)
        baseline = load_results(load_doc(args.baseline), args.baseline)
        cur_ref = reference_rate(current, args.current)
        base_ref = reference_rate(baseline, args.baseline)
    except (OSError, KeyError, ValueError) as err:
        print(f"check_perf_regression: {err}", file=sys.stderr)
        return 1

    failures = cache_pressure_failures(current_doc)
    compared = 0
    for key in sorted(baseline):
        if key not in current:
            print(f"  skip n={key[0]} kernel={key[1]}: not measured on this machine")
            continue
        n, kernel = key
        base_row, cur_row = baseline[key], current[key]

        cur_allocs = cur_row.get("steady_state_allocs")
        if cur_allocs != base_row.get("steady_state_allocs", 0):
            failures.append(f"n={n} kernel={kernel}: steady_state_allocs="
                            f"{cur_allocs} (baseline "
                            f"{base_row.get('steady_state_allocs', 0)})")

        base_norm = float(base_row["batched_rounds_per_s"]) / base_ref
        cur_norm = float(cur_row["batched_rounds_per_s"]) / cur_ref
        compared += 1
        ratio = cur_norm / base_norm
        status = "ok"
        if ratio < 1.0 - args.threshold:
            status = "REGRESSION"
            failures.append(f"n={n} kernel={kernel}: normalized batched "
                            f"throughput {cur_norm:.3f} vs baseline "
                            f"{base_norm:.3f} ({ratio:.2f}x)")
        print(f"  n={n:5d} kernel={kernel:7s} normalized {cur_norm:6.3f} "
              f"(baseline {base_norm:6.3f}, {ratio:5.2f}x) {status}")

    if compared == 0:
        print("check_perf_regression: no overlapping configurations",
              file=sys.stderr)
        return 1
    if failures:
        print(f"\ncheck_perf_regression: {len(failures)} failure(s):",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"check_perf_regression: {compared} configurations within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
