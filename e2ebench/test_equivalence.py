"""Keeps the bench-side traced assembly equal to the program's own.

For every workload config, at two seeds, the traced driver must reach the
program's result: psn_bench_trace --verify compares its traced copy of
run_occupancy_experiment with the real one (detections per detector, the
metrics snapshot, the check summary and the trace), and the traced
scorecard, check verdict or serve::Session output must equal what psn_cli
prints for the same input. The per-layer numbers then describe the program
the end-to-end numbers measure.

Run from the repo root (builds like run.py does):

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SEEDS = (1, 7)


class TracedAssemblyEquivalence(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()

    def check_workload(self, workload):
        for seed in SEEDS:
            with self.subTest(workload=workload, seed=seed):
                inputs = bench.prepare_inputs(workload, seed)
                self.addCleanup(bench.remove_inputs, inputs)
                cli = bench.invoke(bench.cli_argv(workload, seed),
                                   inputs.get("stream"))
                problem, facts = bench.check_output(workload, cli, inputs)
                self.assertEqual(problem, "")
                out, problem = bench.traced_invocation(
                    workload, seed, inputs, (cli.stdout, facts))
                self.assertEqual(problem, "")
                self.assertTrue(out["spans"])

    def test_hall_broadcast(self):
        self.check_workload("hall-broadcast")

    def test_city_unicast(self):
        self.check_workload("city-unicast")

    def test_check_hall(self):
        self.check_workload("check-hall")

    def test_serve_stream(self):
        self.check_workload("serve-stream")

    def test_workloads_are_covered(self):
        self.assertEqual(
            {name for name in dir(self) if name.startswith("test_")} -
            {"test_workloads_are_covered"},
            {"test_" + w.replace("-", "_") for w in bench.WORKLOADS})


if __name__ == "__main__":
    unittest.main()
