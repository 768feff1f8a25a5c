#!/usr/bin/env python3
"""Self-tests of the benchmark, at a tiny problem size (n = 12).

Usage, from the repository root:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format, that every metric it
names is printed with its unit on every workload, that a corrupted
digest and a perturbed replica both fail the run, that the benchmark's
pre-generated inputs reproduce ncg_experiment's CSV rows, and that the
command fails without printing a result outside a full checkout.
Takes a few seconds once the build is done.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
SCRATCH = os.path.join(".perfbench", "selftest")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(workload, trace=0, seed=7, extra=(), cwd=None):
    """Runs the benchmark command at tiny size; returns (code, stdout lines)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
           "--size", "tiny"] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=cwd or ROOT, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    return json.loads(lines[-1])


class Contract(unittest.TestCase):
    def test_benchmark_json_format(self):
        b = load_bench()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        names = [m["name"] for m in b["workloads"] + b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))
        self.assertEqual(sorted(w["name"] for w in b["workloads"]),
                         ["gnp-dense", "tree-full", "tree-local"])


class Metrics(unittest.TestCase):
    def check_printed(self, trace, listed):
        for w in load_bench()["workloads"]:
            code, lines = run(w["name"], trace=trace)
            self.assertEqual(code, 0, "\n".join(lines))
            r = result_of(lines)
            self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(r["correct"])
            self.assertGreaterEqual(r["attempted"], 1)
            self.assertEqual(r["failed"], 0)
            self.assertEqual(set(r["metrics"]), {m["name"] for m in listed})
            for m in listed:
                self.assertEqual(r["metrics"][m["name"]]["unit"], m["unit"])
                pattern = re.compile(r"^\s+%s\s+\S+\s+%s$" % (re.escape(m["name"]),
                                                             re.escape(m["unit"])))
                self.assertTrue(any(pattern.match(l) for l in lines[:-1]),
                                "%s not printed with its unit" % m["name"])

    def test_end_to_end_metrics_printed(self):
        self.check_printed(0, load_bench()["end_to_end"])

    def test_per_layer_metrics_printed(self):
        self.check_printed(1, load_bench()["per_layer"])


class Checks(unittest.TestCase):
    def test_digest_mismatch_fails(self):
        os.makedirs(SCRATCH, exist_ok=True)
        good = os.path.join(SCRATCH, "digests.json")
        if os.path.exists(good):
            os.remove(good)
        code, _ = run("tree-local", extra=["--write-digests", good])
        self.assertEqual(code, 0)
        code, lines = run("tree-local", extra=["--digests", good])
        self.assertEqual(code, 0)
        self.assertTrue(any("digests: checking 4 rows" in l for l in lines))
        with open(good) as f:
            d = json.load(f)
        rows = d["tree-local"]["rows"]
        first = sorted(rows)[0]
        rows[first] = "0" * 32
        bad = os.path.join(SCRATCH, "digests-corrupt.json")
        with open(bad, "w") as f:
            json.dump(d, f)
        code, lines = run("tree-local", extra=["--digests", bad])
        self.assertEqual(code, 1)
        r = result_of(lines)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)

    def test_perturbed_replica_fails(self):
        code, lines = run("tree-local", trace=1, extra=["--reverse-replica"])
        self.assertEqual(code, 1)
        self.assertTrue(any("trace fence FAILED" in l for l in lines))
        self.assertFalse(result_of(lines)["correct"])

    def test_inputs_reproduce_ncg_experiment(self):
        subprocess.run(["dune", "build", "--root", ".", "./bin/ncg_experiment.exe"],
                       check=True, env=dict(os.environ, DUNE_CACHE="disabled"))
        code, lines = run("gnp-dense", seed=11)
        self.assertEqual(code, 0)
        ours = [l.split()[-1] for l in lines if l.startswith("  row ")]
        proc = subprocess.run(
            [os.path.join("_build", "default", "bin", "ncg_experiment.exe"),
             "--class", "gnp", "-n", "12", "-p", "0.3", "--alphas", "0.1,1",
             "--ks", "2,1000", "--trials", "1", "--seed", "11", "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
        theirs = [hashlib.md5(row.encode()).hexdigest()
                  for row in proc.stdout.splitlines()[1:]]
        self.assertEqual(ours, theirs)

    def test_fails_outside_a_checkout(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
        code, lines = run("tree-local", cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(l.startswith("{") for l in lines))
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(verbosity=2)
