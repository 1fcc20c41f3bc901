#!/usr/bin/env python3
"""The benchmark's own test: a quick run of every workload.

    python3 perfbench/test_quick.py

Runs each workload with --quick, untraced and traced, from the root of
the checkout, and checks that:
  - the last line is the result object, with every end-to-end metric of
    BENCHMARK.json untraced and every per-layer metric traced;
  - no operation failed (error_rate == 0);
  - the table names every end-to-end figure of the workload;
  - every per-layer metric is measured by at least one workload;
  - on zoo-compile the pass spans plus compiler.self_ms account for the
    compile span, and the traced run wrote a Chrome trace.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The end-to-end figures each workload prints in its table under its own
# names (besides the metrics of BENCHMARK.json).
NAMED = {
    "zoo-compile": ["compile_ms", "sim_us"],
    "native-infer": ["native_ms_p50", "native_ms_p90", "sim_us"],
    "serve-online": ["artifact_load_ms", "serve_sim_wall_ms", "serve_p50_us",
                     "serve_p99_us", "serve_max_rps", "fleet_slo_pct",
                     "sim_us"],
}
COMMON = ["setup_s", "peak_rss_mb", "error_rate"]
PASS_METRICS = [
    "graph.lower_ms", "te.simplify_ms", "transform.horizontal_ms",
    "transform.vertical_ms", "transform.partition_ms",
    "transform.sync_elim_ms", "transform.megakernel_ms", "sched.schedule_ms",
    "kernel.build_ms", "kernel.pipeline_ms", "kernel.reuse_ms",
    "codegen.emit_ms", "compiler.verify_ms", "compiler.self_ms",
]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    run_dir = ROOT / lines[0].split("run dir ")[1]
    return lines, json.loads(lines[-1]), run_dir


class QuickRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json") as f:
            cls.spec = json.load(f)
        cls.measured = set()

    def check(self, workload):
        spec = self.spec
        for trace, wanted in ((0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            lines, result, run_dir = run(workload, trace)
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], "\n".join(lines))
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 1)
            self.assertEqual(list(result["metrics"]),
                             [m["name"] for m in wanted])
            for m in wanted:
                self.assertEqual(result["metrics"][m["name"]]["unit"],
                                 m["unit"])
            table = {line.split()[0] for line in lines[1:-1] if line.strip()}
            for name in NAMED[workload] + COMMON:
                self.assertIn(name, table)
            if trace == 0:
                for m in wanted:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
                continue
            with open(run_dir / "layers.json") as f:
                layers = json.load(f)
            self.measured.update(layers)
            self.assertTrue((run_dir / "trace.json").exists())
            if workload == "zoo-compile":
                parts = sum(layers[name] for name in PASS_METRICS)
                self.assertAlmostEqual(parts, layers["compiler.compile_ms"],
                                       delta=1e-6 * parts)

    def test_1_zoo_compile(self):
        self.check("zoo-compile")

    def test_2_native_infer(self):
        self.check("native-infer")

    def test_3_serve_online(self):
        self.check("serve-online")

    def test_4_every_layer_metric_is_measured(self):
        missing = [m["name"] for m in self.spec["per_layer"]
                   if m["name"] not in self.measured]
        self.assertEqual(missing, [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
