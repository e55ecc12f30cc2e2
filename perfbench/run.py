#!/usr/bin/env python3
"""Build and run the gencache benchmark (perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-digests SEEDS [--workload NAME]

The first form builds perfbench/ (which builds the library from src/)
into $CARGO_TARGET_DIR or .bench_build, runs one workload as a closed
loop for S seconds, prints every metric by name and unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (spans are written next to the build). Every run
records its provenance; the build is always RelWithDebInfo without a
sanitizer, and a binary that turns out unoptimized or sanitized anyway
is refused.

--self-test checks that the correctness gate counts a perturbed
digest as a failure. --record-digests re-records the per-result
digests in perfbench/digests/ for seeds 0..SEEDS-1; do that only when
a change is meant to alter results.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["spec_sweep", "interactive_pressure", "live_runtime",
             "fleet_shared"]
RUN_TIMEOUT_S = 170

# Workload-specific figures: printed, but not part of the JSON line,
# because BENCHMARK.json's end-to-end metrics must be non-zero on
# every workload.
NAMED_UNITS = {
    "cells_per_s": "1/s",
    "guest_minst_per_s": "Minst/s",
    "fleet_events_per_s": "1/s",
    "fleet_threaded_events_per_s": "1/s",
    "failed_frac": "ratio",
}


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure and build perfbench (RelWithDebInfo, no sanitizer);
    returns the build directory and the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no gencache sources under " + ROOT + "; run from a checkout")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    build_dir = os.path.join(base, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, configure)
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=850,
                                  check=False)
        except subprocess.TimeoutExpired:
            fail("build step timed out: " + " ".join(step), 1)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step), 1)
    return build_dir, os.path.join(build_dir, "perfbench")


def run_binary(binary, args):
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("perfbench did not finish within %d s" % RUN_TIMEOUT_S, 1)
    if done.returncode != 0:
        fail("perfbench exited with %d" % done.returncode, 1)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no report", 1)
    return json.loads(lines[-1])


def digests_path(workload):
    return os.path.join(HERE, "digests", workload + ".txt")


def source_sha256():
    """Content hash of the sources the binary is built from."""
    digest = hashlib.sha256()
    tops = [os.path.join(ROOT, "src"), HERE, os.path.join(ROOT,
                                                          "CMakeLists.txt")]
    files = []
    for top in tops:
        if os.path.isfile(top):
            files.append(top)
            continue
        for directory, _, names in os.walk(top):
            files.extend(os.path.join(directory, n) for n in names
                         if n.endswith((".cc", ".h", ".txt", ".py")))
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10, check=False)
    except OSError:
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(report, seed):
    return {
        "host_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": report["build"]["compiler"],
        "build_type": report["build"]["build_type"],
        "cxx_flags": report["build"]["cxx_flags"],
        "optimized": report["build"]["optimized"],
        "sanitizers": report["build"]["sanitizers"],
        "simd": report["build"]["simd"],
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    e2e = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in contract["per_layer"]}
    return e2e, layers


def measure(args):
    e2e_units, layer_units = load_contract()
    build_dir, binary = build()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = os.path.join(build_dir, "spans-" + tag + ".json")
    report = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--digests", digests_path(args.workload), "--spans", spans])

    build_info = report["build"]
    if not build_info["optimized"] or build_info["sanitizers"]:
        fail("refusing to report a %s build (optimized=%s, sanitizers=%r):"
             " it is not a measurement" % (build_info["build_type"],
                                           build_info["optimized"],
                                           build_info["sanitizers"]), 3)

    source = report["layers"] if args.trace else report["e2e"]
    units = layer_units if args.trace else e2e_units
    if set(source) != set(units):
        fail("metric names differ from BENCHMARK.json: %s" %
             sorted(set(source) ^ set(units)), 4)

    attempted, failed = report["attempted"], report["failed"]
    named = dict(report["named"])
    named["failed_frac"] = failed / attempted if attempted else 1.0
    meta = provenance(report, args.seed)
    print("perfbench %s seed=%d seconds=%s trace=%d: %d rounds, %d passes,"
          " digests %s" % (args.workload, args.seed, args.seconds,
                           args.trace, report["rounds"], report["passes"],
                           "checked" if report["digests_checked"]
                           else "not recorded for this seed"))
    print("provenance: " + json.dumps(meta, sort_keys=True))
    for name, value in report["e2e"].items():
        print("  %-34s %.6g %s" % (name, value, e2e_units[name]))
    for name, value in named.items():
        print("  %-34s %.6g %s" % (name, value, NAMED_UNITS[name]))
    if args.trace:
        print("per-layer (traced run; codecache.*_ns and *_calls come from"
              " the per-call CacheManager path, which bypasses"
              " BatchedReplay's hot-slot sidecar):")
        for name, value in report["layers"].items():
            print("  %-34s %.6g %s" % (name, value, layer_units[name]))
    for failure in report["failures"]:
        print("  FAILED: " + failure)

    with open(os.path.join(build_dir, "results-" + tag + ".json"),
              "w") as handle:
        json.dump({"provenance": meta, "report": report, "named": named},
                  handle, indent=1, sort_keys=True)

    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in source.items()},
    }
    print(json.dumps(result))


def record(args):
    _, binary = build()
    names = [args.workload] if args.workload else WORKLOADS
    for workload in names:
        lines = []
        for seed in range(args.record_digests):
            report = run_binary(binary, [
                "--workload", workload, "--seed", str(seed),
                "--seconds", "0", "--trace", "0", "--record"])
            if report["failed"]:
                fail("%s seed %d fails its invariants: %s" %
                     (workload, seed, report["failures"]), 1)
            lines.append("%d %s\n" % (seed, report["record"]))
        os.makedirs(os.path.dirname(digests_path(workload)), exist_ok=True)
        with open(digests_path(workload), "w") as handle:
            handle.writelines(lines)
        print("recorded %s: seeds 0..%d" % (workload,
                                            args.record_digests - 1))


def self_test(args):
    """A perturbed digest must count as a failed result."""
    _, binary = build()
    common = ["--workload", "live_runtime", "--seed", "0", "--seconds", "0",
              "--trace", "0", "--digests", digests_path("live_runtime")]
    clean = run_binary(binary, common)
    perturbed = run_binary(binary, common + ["--perturb-digest", "0"])
    checks = [
        ("digests are recorded for seed 0", clean["digests_checked"]),
        ("the unperturbed run has no failures", clean["failed"] == 0),
        ("the perturbed digest is counted as a failure",
         perturbed["failed"] >= 1),
        ("only the perturbed result fails",
         len(set(perturbed["failures"])) == 1),
        ("attempts are unchanged by the perturbation",
         perturbed["attempted"] == clean["attempted"]),
    ]
    for what, ok in checks:
        print("%s: %s" % ("ok" if ok else "FAILED", what))
    sys.exit(0 if all(ok for _, ok in checks) else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", type=int, metavar="SEEDS")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.self_test:
        self_test(args)
    elif args.record_digests:
        record(args)
    elif args.workload:
        measure(args)
    else:
        parser.error("--workload is required")


if __name__ == "__main__":
    main()
