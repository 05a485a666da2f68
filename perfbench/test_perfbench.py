"""Self-tests of the benchmark.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import hashlib
import io
import json
import os
import unittest
from unittest import mock

import hostclock
import run
from inputs import invariants, product_table, relabel
from spans import summarize


class SelfTime(unittest.TestCase):
    def test_nested_and_recursive_spans(self):
        spans = [
            ["a", 0.0, 10.0, -1],
            ["b", 1.0, 4.0, 0],
            ["b", 2.0, 3.0, 1],  # b calls itself
            ["c", 5.0, 9.0, 0],
            ["a", 11.0, 12.0, -1],
        ]
        got = summarize(spans)
        self.assertEqual(got["a"], {"calls": 2, "self_s": 3.0 + 1.0})
        self.assertEqual(got["b"], {"calls": 2, "self_s": 2.0 + 1.0})
        self.assertEqual(got["c"], {"calls": 1, "self_s": 4.0})
        self.assertEqual(sum(v["self_s"] for v in got.values()), 10.0 + 1.0)


class HostClockScaling(unittest.TestCase):
    def test_slow_slices_count_for_less_work(self):
        nominal = hostclock.PROBE_NOMINAL_S
        self.assertAlmostEqual(hostclock.normalised(3.0, [nominal] * 4), 3.0)
        self.assertAlmostEqual(hostclock.normalised(3.0, [2 * nominal] * 4), 1.5)
        # half the time at full speed, half at half speed: 0.75 of the work
        self.assertAlmostEqual(hostclock.normalised(2.0, [nominal, 2 * nominal]), 1.5)

    def test_timing_records_raw_and_normalised(self):
        into = {}
        with hostclock.HostClock().timing(into, "t"):
            sum(range(200000))
        self.assertGreater(into["t_raw"], 0)
        self.assertGreater(into["t"], 0)


class Inputs(unittest.TestCase):
    def test_relabel_keeps_invariants_and_moves_identity(self):
        table = product_table("g128")
        moved = relabel(table, 7)
        ident = next(e for e in range(128) if moved[e][e] == e)
        self.assertNotEqual(ident, 0)
        self.assertEqual(moved, relabel(table, 7))
        expect = invariants(128, lambda a, b: table[a][b])
        self.assertEqual(invariants(128, lambda a, b: moved[a][b], ident), expect)


class Gate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(run.GOLDEN_PATH, encoding="utf-8") as fh:
            cls.golden = json.load(fh)
        cls.bench = run.Run(seed=0)
        cls.d8 = cls.bench.worker("compute", "D8", cls.bench.fresh("cache"), traced=True)

    @classmethod
    def tearDownClass(cls):
        cls.bench.close()

    def test_golden_gate_accepts_the_real_report(self):
        op = run.Sample("D8")
        op.observed = self.d8["sha"]
        run.gate([op], self.golden["compute-mix"])
        self.assertIsNone(op.error)

    def test_golden_gate_rejects_a_corrupted_report(self):
        path = self.d8["out"]
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        bad = self.bench.fresh("bad")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write(text.replace('"max_measure": "16"', '"max_measure": "17"'))
        self.assertIsNotNone(run.readme_facts(bad))
        self.assertIsNone(run.readme_facts(path))
        op = run.Sample("D8")
        with open(bad, "rb") as fh:
            op.observed = hashlib.sha256(fh.read()).hexdigest()
        run.gate([op], self.golden["compute-mix"])
        self.assertIn("differs from golden", op.error)

    def test_tracing_patches_by_name_imports(self):
        spans = self.d8["trace"]["spans"]
        names = {s[0] for s in spans}
        self.assertIn("cli.main", names)
        # cd_lattice calls centralizer through its own module's binding
        inside = [s for s in spans if s[0] == "subgroups.centralizer" and spans[s[3]][0] == "cdlattice.cd_lattice"]
        self.assertTrue(inside)

    def test_fail_ratio_counts_an_op_that_raises(self):
        def fake_ops(workload, r):
            missing = "cayley:" + os.path.join(r.tmp, "missing.cayley")
            return [(run.build_op, "C2", "C2"), (run.build_op, "missing", missing)]

        golden = {"fake": {"C2": {"order": 2, "center": 2, "element_orders": {"1": 1, "2": 1}}}}
        with mock.patch.object(run, "workload_ops", fake_ops), contextlib.redirect_stdout(io.StringIO()):
            result = run.run_workload("fake", 0, 0, False, golden)
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertFalse(result["correct"])


class BenchmarkJson(unittest.TestCase):
    def test_metric_names_match_the_code(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]], run.per_layer_metrics()
        )
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
