#!/usr/bin/env python3
"""Tiny-scale smoke test of the benchmark harness: every end-to-end metric,
every per-layer metric of each workload and every span is emitted.

    python3 perfbench/smoke_test.py        # from the repository root, about 5 minutes
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODELS = ["TransE", "TransH", "TransD", "DistMult", "ComplEx", "TuckER", "KG-BERT", "StAR",
          "TransAE", "RSME", "MKGformer"]
CONFIGS = ["img", "b500", "b500l"]
SPANS = {
    "construct": ["pass", "synth", "core.schema_mapping.places", "core.schema_mapping.brands",
                  "core.label_matcher.brands", "core.label_matcher.places",
                  "core.concept_extractor.extract", "core.concept_extractor.markets",
                  "core.quality_control.facets", "core.quality_control.filter",
                  "core.kg_builder.build"]
                 + [f"benchmark.{s}.{k}" for k in CONFIGS
                    for s in ("stages", "refine", "filter_heads", "sample", "split", "build")]
                 + [f"kge.data.{k}" for k in CONFIGS],
    "learn": ["pass", "kge.data.img", "tasks.data"]
             + [f"kge.{s}.{m}" for m in MODELS for s in ("train", "eval")]
             + [f"tasks.{t}." for t in ("catpred", "ner", "summ", "ie", "salience")],
}


def run(workload, trace):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", "42", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                       cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    assert r.returncode == 0, f"{workload} exited with {r.returncode}"
    return json.loads(r.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            self.bench = json.load(fh)
        with open(os.path.join(HERE, "layers.json")) as fh:
            self.layers = json.load(fh)

    def test_layer_map_matches_benchmark_json(self):
        self.assertEqual(sorted(m["name"] for m in self.bench["per_layer"]), sorted(self.layers))
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        workloads = {w["name"] for w in self.bench["workloads"]}
        for name, layer in self.layers.items():
            for target in layer["moves"]:
                w, metric = target.split(":")
                self.assertIn(w, workloads, name)
                self.assertIn(metric, e2e, name)

    def check_workload(self, workload):
        out = run(workload, 0)
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertEqual(sorted(out["metrics"]), sorted(m["name"] for m in self.bench["end_to_end"]))
        for name, m in out["metrics"].items():
            self.assertGreater(m["value"], 0, name)

        out = run(workload, 1)
        self.assertTrue(out["correct"])
        self.assertEqual(sorted(out["metrics"]), sorted(self.layers))
        for name, layer in self.layers.items():
            # Times and rates of the layers the workload runs; GC time and
            # tracing overhead may read 0 on tiny inputs.
            if layer["workload"] in (workload, "both") and layer["unit"] in ("s", "1/s") \
                    and name not in ("trace.overhead_s", "jvm.gc_s"):
                self.assertGreater(out["metrics"][name]["value"], 0, name)

        with open(os.path.join(ROOT, ".bench_build", "traces", f"{workload}-tiny-seed42.json")) as fh:
            spans = json.load(fh)["spans"]
        names = [s["name"] for s in spans]
        for want in SPANS[workload]:
            self.assertTrue(any(n == want or (want.endswith(".") and n.startswith(want))
                                for n in names), want)
        for s in spans:
            self.assertLessEqual(s["start_s"], s["end_s"])
            self.assertGreaterEqual(s["self_s"], -1e-6)

    def test_construct(self):
        self.check_workload("construct")

    def test_learn(self):
        self.check_workload("learn")


if __name__ == "__main__":
    unittest.main()
