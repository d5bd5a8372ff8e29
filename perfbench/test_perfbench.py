"""Tests of the benchmark itself (standard library only):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def spans_of(rows, names, tags=()):
    """Spans from (name index, parent, start, end, tag, value) rows."""
    cols = list(zip(*rows))
    return tracing.Spans(names=list(names), tags=list(tags), name=list(cols[0]),
                         parent=list(cols[1]), start=list(cols[2]),
                         end=list(cols[3]), tag=list(cols[4]),
                         value=list(cols[5]))


NONE = tracing.NO_TAG
NAN = math.nan


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0,10] > a [1,4] > c [2,3];  root > b [5,9]
        spans = spans_of([(0, -1, 0.0, 10.0, NONE, NAN),
                          (1, 0, 1.0, 4.0, NONE, NAN),
                          (2, 1, 2.0, 3.0, NONE, NAN),
                          (1, 0, 5.0, 9.0, NONE, NAN)], ["root", "a", "c"])
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 1.0, 4.0])
        totals = tracing.LayerTotals()
        totals.add(spans)
        self.assertEqual(totals.self_s, {"root": 3.0, "a": 6.0, "c": 1.0})
        self.assertEqual(totals.calls, {"root": 1, "a": 2, "c": 1})

    def test_check_spans_take_their_place_from_suite_checks(self):
        names = ["checks.suite_checks", "checks.check_x", "projector.mat_mul"]
        spans = spans_of([(0, -1, 0.0, 5.0, 0, NAN),
                          (1, 0, 1.0, 3.5, 1, NAN),
                          (2, 1, 1.5, 2.0, NONE, NAN)], names,
                         tags=["q3-T", "projector-control"])
        totals = tracing.LayerTotals()
        totals.add(spans)
        metrics = totals.metrics()
        self.assertEqual(metrics["checks.projector-control.q3-T.s"], 2.5)
        self.assertEqual(metrics["projector.mat_mul.calls"], 1)

    def test_ratios_come_from_values_and_calls(self):
        names = ["skew.stable_right_divisors", "skew.is_stable_divisor",
                 "cache.load_record", "cache.save_record"]
        rows = [(0, -1, 0.0, 1.0, NONE, 2.0)]
        rows += [(1, 0, 0.1, 0.2, NONE, NAN)] * 150
        rows += [(2, -1, 2.0, 2.1, NONE, 1.0)] * 3 + [(3, -1, 3.0, 3.1, NONE, NAN)]
        totals = tracing.LayerTotals()
        totals.add(spans_of(rows, names))
        metrics = totals.metrics()
        self.assertAlmostEqual(metrics["skew.divisor_hit_ratio"], 2 / 150)
        self.assertAlmostEqual(metrics["cache.hit_ratio"], 3 / 4)

    def test_written_spans_read_back(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("m.inner", lambda x: x + 1,
                            observe=lambda args, res: float(res))
        outer = tracer.wrap("m.outer", lambda x: inner(x) * 2,
                            observe=lambda args, res: "tag")
        self.assertEqual(outer(1), 4)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.bin")
            tracer.write(path)
            spans = tracing.read_spans(path)
        self.assertEqual(spans.names, ["m.inner", "m.outer"])
        self.assertEqual(spans.parent, [-1, 0])  # outer opened first
        self.assertEqual(spans.value[1], 2.0)
        self.assertEqual(spans.tags[spans.tag[0]], "tag")


class TailRule(unittest.TestCase):
    def test_at_least_ten_beyond_and_highest(self):
        for n in range(11, 2000):
            p = run.tail_percentile(n)
            self.assertGreaterEqual(n - math.ceil(p * n / 100), 10, n)
            if p < 99:
                self.assertLess(n - math.ceil((p + 1) * n / 100), 10, n)

    def test_examples(self):
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(250), 96)
        self.assertEqual(run.tail_percentile(1000), 99)
        samples = list(range(1, 101))
        random.Random(1).shuffle(samples)
        self.assertEqual(run.tail(samples), (90, 90))

    def test_too_few_samples_give_the_maximum(self):
        for n in (1, 2, 10):
            self.assertIsNone(run.tail_percentile(n))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100))


class Rebinding(unittest.TestCase):
    def setUp(self):
        self.names = ["fakepkg", "fakepkg.a", "fakepkg.b"]
        pkg, a, b = (types.ModuleType(n) for n in self.names)

        def y(v):
            return v * 3
        a.y = y
        b.y = a.y          # from .a import y
        b.alias = a.y      # from .a import y as alias
        pkg.y = a.y        # re-export in __init__
        b.calls_y = lambda v: b.y(v)
        for name, mod in zip(self.names, (pkg, a, b)):
            sys.modules[name] = mod
        self.a, self.b, self.pkg = a, b, pkg

    def tearDown(self):
        for name in self.names:
            sys.modules.pop(name, None)

    def test_every_alias_is_rebound(self):
        tracer = tracing.Tracer()
        replaced = tracing.rebind(tracer, "fakepkg", [("a", "y", None)])
        self.assertEqual(replaced, 4)
        wrapper = self.a.y
        self.assertIs(self.b.y, wrapper)
        self.assertIs(self.b.alias, wrapper)
        self.assertIs(self.pkg.y, wrapper)
        self.assertEqual(self.b.calls_y(2), 6)
        self.assertEqual(self.b.alias(1), 3)
        self.assertEqual(list(tracer.name), [0, 0])
        self.assertEqual(tracer.names, ["a.y"])


class Outputs(unittest.TestCase):
    """These run the real command from the checkout's src/."""

    def setUp(self):
        self.work = Path(tempfile.mkdtemp())
        self.goldens = json.loads(run.GOLDENS.read_text())["digests"]
        self.inv = workloads.CLI_POOLS["iwasawa-filtration"][0]

    def tearDown(self):
        shutil.rmtree(self.work)

    def test_wrong_golden_digest_counts_as_failed(self):
        right = run.Runner(self.work, self.goldens, False, run.child_env())
        self.assertEqual(right.run_pass([self.inv]).failed, 0)
        wrong = dict(self.goldens)
        wrong[self.inv.key] = "0" * 64
        runner = run.Runner(self.work, wrong, False, run.child_env())
        result = runner.run_pass([self.inv, self.inv])
        self.assertEqual((result.failed, result.attempted), (2, 2))

    def test_traced_run_prints_the_same_and_records_spans(self):
        runner = run.Runner(self.work, self.goldens, True, run.child_env())
        result = runner.run_pass([self.inv])
        self.assertEqual(result.failed, 0)
        metrics = result.layers.metrics()
        self.assertGreater(metrics["iwasawa.filtration.self_s"], 0.0)
        self.assertGreater(metrics["cli.import_s"], 0.0)

    def test_library_aliases_are_rebound(self):
        code = (
            "import drinfeld, drinfeld.cli, drinfeld.checks as c, "
            "drinfeld.projector as p, tracing\n"
            "orig = p.ordinary_projector\n"
            "tracing.rebind(tracing.Tracer(), 'drinfeld', "
            "tracing.library_targets())\n"
            "assert c.ordinary_projector is p.ordinary_projector\n"
            "assert drinfeld.ordinary_projector is p.ordinary_projector\n"
            "assert p.ordinary_projector.__wrapped__ is orig\n")
        env = run.child_env()
        env["PYTHONPATH"] += os.pathsep + str(run.HERE)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class Definition(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_metric_names_and_units_match_the_code(self):
        per_layer = [(m["name"], m["unit"]) for m in self.bench["per_layer"]]
        self.assertEqual(per_layer, [(n, run.unit_of(n))
                                     for n in tracing.per_layer_names()])
        e2e = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END_UNITS)

    def test_workloads_match_the_code(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(workloads.WORKLOADS))

    def test_every_possible_invocation_has_a_golden(self):
        goldens = json.loads(run.GOLDENS.read_text())["digests"]
        keys = [inv.key for inv in workloads.all_invocations()]
        self.assertEqual(len(keys), len(set(keys)))
        self.assertEqual(sorted(keys), sorted(goldens))


if __name__ == "__main__":
    unittest.main()
