#!/usr/bin/env python3
"""The repository benchmark: one command per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/nb_perfbench (Release)
under .bench_build/, runs it for one workload, checks the outputs, prints
every metric with its unit and sample count, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Exits 1 when the build,
the run or an output check fails. README.md describes workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import metrics

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("ring-64k", "regular-2k", "dense-1k", "serve-mix")
# The end-to-end metrics the result line carries (failed_frac is printed and
# recorded, but it is 0 on a healthy serve-mix run, so it is not a bounded
# benchmark metric).
END_TO_END = ("rounds_per_s", "jobs_per_s", "job_p50_ms", "job_p95_ms", "setup_s",
              "peak_rss_mb")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no library sources next to perfbench/ (run from a repository checkout)")
    build_dir = BUILD / "perfbench"
    log = BUILD / "perfbench-build.log"
    BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                fail("build failed; see " + str(log))
    return build_dir / "nb_perfbench"


def source_identity():
    """(git commit or "unknown", sha256 over the library sources and build files)."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            commit = result.stdout.strip()
    files = [ROOT / "CMakeLists.txt"] + sorted(
        p for p in (ROOT / "src").rglob("*") if p.is_file())
    tree = hashlib.sha256()
    for path in files:
        tree.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return commit, tree.hexdigest()


def recorded_digest(workload, seed):
    """The digest recorded for the default seed, or None at any other seed."""
    reference = json.loads((HERE / "reference_digests.json").read_text())
    if seed != reference["seed"]:
        return None
    return reference["sha256"].get(workload)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    runs = BUILD / "perfbench-runs"
    runs.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    raw_path = runs / (stem + ".raw.json")
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", str(raw_path.relative_to(ROOT))]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("nb_perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    if result.returncode != 0:
        fail("nb_perfbench exited with %d" % result.returncode)
    record = json.loads(raw_path.read_text())

    expected = recorded_digest(args.workload, args.seed)
    failed, attempted = metrics.check_failures(record, expected)
    correct = failed == 0
    notes = []
    if record["kind"] == "simulation":
        notes.append("output digest %s (threads=1 reference %s%s)" % (
            metrics.digest(record["canonical"])[:16],
            "matches" if record["canonical"] == record["reference_canonical"] else "DIFFERS",
            "" if expected is None else ", recorded digest " + (
                "matches" if metrics.digest(record["canonical"]) == expected else "DIFFERS")))
    else:
        notes.append("artifacts checked against the in-process run_sweep reference: "
                     "%d mismatched" % (record["artifact_mismatches"]
                                        + record["reference_mismatches"]))
        if args.trace == 0 and not metrics.tail_supported(len(record["op_ms"]), 0.95):
            correct = False
            notes.append("job_p95_ms has fewer than %d samples beyond it"
                         % metrics.MIN_SAMPLES_BEYOND)

    commit, tree = source_identity()
    run_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": int(record["nproc"]),
        "hardware_concurrency": int(record["hardware_concurrency"]),
        "threads": int(record["threads"]), "kernel": record["kernel"],
        "build_type": record["build_type"], "git_commit": commit, "source_sha256": tree,
    }
    print("record: " + " ".join("%s=%s" % item for item in run_record.items()))
    for note in notes:
        print("check: " + note)

    if args.trace == 0:
        values = metrics.end_to_end(record, failed)
        for name, (value, unit, samples) in values.items():
            extra = ""
            if name == "job_p95_ms":
                extra = ", %d beyond" % metrics.samples_beyond(samples, 0.95)
            print("%-12s %14.6g %-9s (n=%d%s)" % (name, value, unit, samples, extra))
        reported = END_TO_END
    else:
        values = metrics.per_layer(record)
        for name, (value, unit, samples) in values.items():
            print("%-29s %14.6g %-6s (n=%d) -> %s" % (name, value, unit, samples,
                                                      metrics.LAYER_TARGETS[name]))
        print("self time by span (ms): name  count  total  median")
        for name, own in sorted(metrics.self_time_by_name(record["spans"]).items()):
            print("  %-26s %6d %12.3f %10.4f" % (name, len(own), sum(own),
                                                 metrics.median(own)))
        reported = tuple(metrics.LAYER_TARGETS)

    run_record["samples"] = {name: samples for name, (_, _, samples) in values.items()}
    run_record["values"] = {name: value for name, (value, _, _) in values.items()}
    run_record["correct"] = correct
    (runs / (stem + ".json")).write_text(json.dumps(run_record, indent=2) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]}
                    for name in reported},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
