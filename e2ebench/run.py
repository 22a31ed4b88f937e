#!/usr/bin/env python3
"""End-to-end benchmark of the SYCL-MLIR reproduction.

Builds the in-process benchmark (e2ebench.cpp) from the enclosing source tree,
runs one workload and prints one JSON result line as the last line of
stdout:

    python3 e2ebench/run.py --workload paper-gpu --seed 1 --seconds 10 --trace 0

With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics: the binary's own, plus those this script
derives from the Chrome trace of the traced run (per-pass time and the
wall-time rollup by layer). A human-readable report goes to stderr.

Other modes:
    --report               every workload, untraced and traced, as tables
    --record-fingerprint   rewrite e2ebench/fingerprint.tsv (simulated cost
                           of every program x flow x target)
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import rollup  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
FINGERPRINT = os.path.join(HERE, "fingerprint.tsv")
WORKLOADS = ("paper-gpu", "paper-cpu", "compile-mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def reject_knobs():
    """Every SMLIR_* variable changes what is measured; refuse them."""
    knobs = sorted(k for k in os.environ if k.startswith("SMLIR_"))
    if knobs:
        fail("refusing to run with " + ", ".join(knobs) + " set")


def build(targets=("e2ebench",)):
    """Configures and builds the benchmark; quiet unless it fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
              *targets]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def run_binary(args):
    """Runs the benchmark binary; returns (result line, stderr text)."""
    try:
        proc = subprocess.run([BINARY, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"e2ebench timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"e2ebench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        fail("e2ebench printed no result")
    return json.loads(lines[-1]), proc.stderr


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measure(workload, seed, seconds, trace):
    """One run of one workload: (result, its stderr, rollup report)."""
    os.makedirs(RUN_DIR, exist_ok=True)
    trace_file = os.path.join(RUN_DIR, f"trace-{workload}.json")
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--scratch", RUN_DIR, "--trace-file", trace_file]
    if os.path.exists(FINGERPRINT):
        args += ["--fingerprint", FINGERPRINT]
    result, log = run_binary(args)
    report = ""
    if trace:
        overhead = result["metrics"]["trace.overhead_ms"]["value"]
        metrics, report = rollup.analyse(trace_file, overhead)
        for name, (value, unit) in metrics.items():
            result["metrics"][name] = {"value": value, "unit": unit}
    return result, log, report


def check_metrics(result, trace):
    names = declared_metrics(trace)
    if names is None:
        return
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("result lacks declared metrics: " + ", ".join(missing))
    result["metrics"] = {n: result["metrics"][n] for n in names}


def record_fingerprint():
    rows = []
    for workload in ("paper-gpu", "paper-cpu"):
        out = os.path.join(RUN_DIR, f"fingerprint-{workload}.tsv")
        os.makedirs(RUN_DIR, exist_ok=True)
        run_binary(["--workload", workload, "--seed", "1", "--seconds", "0",
                    "--trace", "0", "--scratch", RUN_DIR,
                    "--write-fingerprint", out])
        with open(out) as f:
            rows += f.read().splitlines()
    header = ("# program\tflow\ttarget\tmakespan\tlaunches\tcoalesced\t"
              "uncoalesced\tlocal\tprivate\tarith\tmath\tbarriers\tsteps\t"
              "simtime")
    with open(FINGERPRINT, "w") as f:
        f.write(header + "\n" + "\n".join(rows) + "\n")
    print(f"wrote {len(rows)} rows to {FINGERPRINT}")


def report_all(seed, seconds):
    for workload in WORKLOADS:
        for trace in (False, True):
            result, log, report = measure(workload, seed, seconds, trace)
            check_metrics(result, trace)
            mode = "traced" if trace else "untraced"
            print(f"=== {workload} ({mode}, seed {seed}) correct="
                  f"{result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            if not trace:
                print("\n".join(line for line in log.splitlines()
                                if line.startswith(("host:", "  ", "sim moved",
                                                     workload))))
            for name, m in result["metrics"].items():
                print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
            if report:
                print(report)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--record-fingerprint", action="store_true")
    opts = parser.parse_args()

    reject_knobs()
    build()
    if opts.record_fingerprint:
        record_fingerprint()
        return
    if opts.report:
        report_all(opts.seed, opts.seconds)
        return
    if not opts.workload:
        parser.error("--workload is required")

    result, log, report = measure(opts.workload, opts.seed, opts.seconds,
                                  opts.trace == 1)
    sys.stderr.write(log)
    if report:
        sys.stderr.write(report + "\n")
    check_metrics(result, opts.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
