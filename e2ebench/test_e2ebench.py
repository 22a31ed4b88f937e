#!/usr/bin/env python3
"""The end-to-end benchmark's own tests.

    python3 e2ebench/test_e2ebench.py

Builds the benchmark and the paper-figure binaries from the enclosing source
tree (as run.py does) and checks:
  * the percentile rule (ten samples beyond a reported percentile);
  * a forced validation failure is counted in failed / failed_frac;
  * a fixed seed reproduces the compile-mix request sequence exactly;
  * inherited SMLIR_* knobs are rejected;
  * per-program speedups on paper-gpu equal what fig2_single_kernel,
    fig3_polybench and tab1_stencils print, to printed precision;
  * exact counters (exec.steps, transform.ops_out, sim.*) repeat across
    seeds, and the tier counts match the targets' kernel forms.
Takes about two minutes on a 4-core host.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
import run  # noqa: E402

FIGURES = ("fig2_single_kernel", "fig3_polybench", "tab1_stencils")


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SMLIR_")}
    env.update(extra)
    return env


def bench(*args, env=None):
    return subprocess.run([run.BINARY, *args], capture_output=True,
                          text=True, env=env or clean_env(), timeout=300)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class E2EBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(("e2ebench",) + FIGURES)
        os.makedirs(run.RUN_DIR, exist_ok=True)

    def test_percentile_rule(self):
        proc = bench("--self-test")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_forced_verify_failure_counts(self):
        proc = bench("--workload", "paper-cpu", "--seed", "3", "--seconds",
                      "0", "--trace", "0", "--scratch", run.RUN_DIR,
                      "--force-verify-fail", "VecAdd (float32)")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = result_of(proc)
        # One pass: the program fails under each of its three flows.
        self.assertEqual(res["attempted"], 107)
        self.assertEqual(res["failed"], 3)
        self.assertFalse(res["correct"])
        frac = re.search(r"failed_frac\s+(\S+)", proc.stderr)
        self.assertAlmostEqual(float(frac.group(1)), 3 / 107, places=4)

    def test_seed_reproduces_request_sequence(self):
        def dump(seed):
            proc = bench("--workload", "compile-mix", "--seed", str(seed),
                          "--dump-requests", "200")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            return proc.stdout
        first = dump(7)
        self.assertEqual(first, dump(7))
        self.assertNotEqual(first, dump(8))
        keys = [int(k) for line in first.splitlines()
                for k in line.split(":")[1].split()]
        self.assertTrue(all(0 <= k < 228 for k in keys))
        self.assertEqual(len(first.splitlines()), 4)  # one line per client

    def test_rejects_smlir_knobs(self):
        for knob in ("SMLIR_EXEC_TIER", "SMLIR_DEFAULT_TARGET",
                     "SMLIR_CACHE_DIR", "SMLIR_BC_FUSION",
                     "SMLIR_SCHEDULER_THREADS"):
            proc = bench("--self-test", env=clean_env(**{knob: "1"}))
            self.assertEqual(proc.returncode, 2, knob)
            self.assertIn(knob, proc.stderr)
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", "paper-cpu", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], capture_output=True, text=True,
                env=clean_env(**{knob: "1"}))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")

    def test_speedups_match_paper_figures(self):
        printed = {}
        for fig in FIGURES:
            out = subprocess.run(
                [os.path.join(run.BUILD_DIR, "smlir", "bench", fig)],
                capture_output=True, text=True, env=clean_env(),
                check=True).stdout
            for line in out.splitlines():
                m = re.match(r"(.+?)\s+(failed|\d+\.\d\dx)\s+(\d+\.\d\dx)\s+"
                             r"(yes|NO)$", line)
                if m:
                    printed[m.group(1)] = (m.group(2), m.group(3))
        self.assertEqual(len(printed), 38)

        with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as tmp:
            rows_path = os.path.join(tmp, "rows.tsv")
            proc = bench("--workload", "paper-gpu", "--seed", "5",
                          "--seconds", "0", "--trace", "0", "--scratch",
                          tmp, "--write-fingerprint", rows_path)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            makespan = {}
            with open(rows_path) as f:
                for line in f:
                    cols = line.rstrip("\n").split("\t")
                    makespan[(cols[0], cols[1])] = float(cols[3])

        for name, (acpp, syclmlir) in printed.items():
            base = makespan[(name, "dpcpp")]
            self.assertEqual(f"{base / makespan[(name, 'syclmlir')]:.2f}x",
                             syclmlir, name)
            if acpp == "failed":
                self.assertNotIn((name, "acpp"), makespan, name)
            else:
                self.assertEqual(f"{base / makespan[(name, 'acpp')]:.2f}x",
                                 acpp, name)

    def test_exact_counters_repeat_and_tiers(self):
        exact = ("exec.steps", "transform.ops_out", "sim.makespan.dpcpp",
                 "sim.makespan.syclmlir", "sim.makespan.acpp",
                 "sim.global_uncoalesced", "sim.private_accesses",
                 "sim.arith_ops", "sim.speedup_geomean")
        runs = {}
        for workload, seed in (("paper-cpu", 1), ("paper-cpu", 2),
                               ("paper-gpu", 1)):
            result, _, _ = run.measure(workload, seed, 1, trace=True)
            self.assertTrue(result["correct"])
            runs[(workload, seed)] = {k: v["value"] for k, v
                                      in result["metrics"].items()}
        a, b = runs[("paper-cpu", 1)], runs[("paper-cpu", 2)]
        for name in exact:
            self.assertEqual(a[name], b[name], name)
        self.assertEqual(a["exec.launches.interpreter"], 0)
        self.assertGreater(a["exec.launches.bytecode"], 0)
        gpu = runs[("paper-gpu", 1)]
        self.assertEqual(gpu["exec.launches.bytecode"], 0)
        self.assertGreater(gpu["exec.launches.interpreter"], 0)
        self.assertEqual(gpu["core.compile.miss"], 107)
        parts = sum(gpu[f"rollup.{layer}_ms"]
                    for layer in run.rollup.LAYERS + ("other",))
        self.assertAlmostEqual(parts, gpu["rollup.total_ms"],
                               delta=1e-6 * gpu["rollup.total_ms"] + 1e-3)


if __name__ == "__main__":
    unittest.main()
