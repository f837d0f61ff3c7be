"""Self-tests of the benchmark itself (not part of the repository's suite).

    python3 perfbench/selftest.py

Checks that the output checks reject tampered outputs, that the tracer's
self-time arithmetic is right on a synthetic nested call, that the wrappers
leave results bit-identical to untraced calls, and that BENCHMARK.json
names exactly the metrics run.py reports.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from program import ROOT, import_primpair  # noqa: E402

import_primpair()
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402
from primpair import cli, ffield, ntheory, survey  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSelfTime(unittest.TestCase):
    def test_nested_call(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        def leaf():
            clock.now += 1.0

        def inner():
            clock.now += 2.0
            t_leaf()
            clock.now += 3.0

        def outer():
            clock.now += 10.0
            t_inner()
            t_leaf()
            t_inner()

        t_leaf = tracer.wrap("leaf", leaf)
        t_inner = tracer.wrap("inner", inner, span=True)
        t_outer = tracer.root(7, tracer.wrap("outer", outer, span=True))
        t_outer()

        s = tracer.stats
        self.assertEqual((s["leaf"].calls, s["leaf"].self_s), (3, 3.0))
        self.assertEqual((s["inner"].calls, s["inner"].self_s, s["inner"].total_s),
                         (2, 10.0, 12.0))
        self.assertEqual((s["outer"].self_s, s["outer"].total_s), (10.0, 23.0))
        self.assertEqual(s[tracing.ROOT_NAME].self_s, 0.0)
        self.assertEqual(tracer.self_total(), 23.0)
        self.assertEqual(tracer.durations_ms("inner"), [6000.0, 6000.0])
        by_id = {sid: (parent, op, name) for sid, parent, op, name, _, _ in tracer.spans}
        outer_id = next(k for k, v in by_id.items() if v[2] == "outer")
        self.assertEqual({v[0] for v in by_id.values() if v[2] == "inner"}, {outer_id})
        self.assertEqual({v[1] for v in by_id.values()}, {7})

    def test_recursion_counts_total_once(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        def countdown(n):
            clock.now += 1.0
            if n:
                t_countdown(n - 1)

        t_countdown = tracer.wrap("countdown", countdown)
        t_countdown(3)
        stat = tracer.stats["countdown"]
        self.assertEqual((stat.calls, stat.self_s, stat.total_s), (4, 4.0, 4.0))

    def test_percentile(self):
        self.assertEqual(tracing.percentile(list(range(1, 101)), 99), 99)
        self.assertEqual(tracing.percentile([5.0], 99), 5.0)
        self.assertEqual(tracing.percentile([], 99), 0.0)


class TestChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ref = w.load_reference()
        cls.tmp = tempfile.TemporaryDirectory()
        cls.cache = str(Path(cls.tmp.name) / "cache.txt")
        cls.op = w.survey_op(20, cls.cache, cls.ref)
        cls.out = cls.op.call()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def tampered(self, old, new):
        self.assertIn(old, self.out.stdout)
        return self.out._replace(stdout=self.out.stdout.replace(old, new, 1))

    def test_reference_output_passes(self):
        self.assertGreater(self.op.check(self.out), 0)

    def test_flipped_status_fails(self):
        bad = self.tampered('"ProvenBySufficient"', '"ProvenBySieve"')
        with self.assertRaises(w.CheckFailed):
            self.op.check(bad)

    def test_extra_paper_diff_entry_fails(self):
        payload = json.loads(self.out.stdout)
        payload["paper_diff"]["exceptions_extra"] = [2]
        bad = self.out._replace(stdout=json.dumps(payload, sort_keys=True, indent=2))
        with self.assertRaises(w.CheckFailed):
            self.op.check(bad)

    def test_changed_bytes_fail_digest(self):
        with self.assertRaisesRegex(w.CheckFailed, "digest"):
            self.op.check(self.out._replace(stdout=self.out.stdout + " "))

    def test_exit_code_checked(self):
        with self.assertRaises(w.CheckFailed):
            self.op.check(self.out._replace(rc=1))

    def test_cache_path_normalized(self):
        other = self.out.stdout.replace(json.dumps(self.cache), json.dumps("/elsewhere"))
        self.assertEqual(w.normalized_digest(other, "/elsewhere"),
                         w.normalized_digest(self.out.stdout, self.cache))

    def test_failed_lab_and_witness_outputs(self):
        lab = w.lab_op(5, 3, "weil", 0, self.ref)
        out = w.CliResult(0, json.dumps({"passed": False, "report": {"samples": []}}))
        with self.assertRaises(w.CheckFailed):
            lab.check(out)
        wit = w.witness_cli_op(2, 1, 23, self.ref)
        out = w.CliResult(0, json.dumps({"results": [{"status": "NotFoundWithinBudget"}]}))
        with self.assertRaises(w.CheckFailed):
            wit.check(out)

    def test_membership_failures_only_on_unreached_pairs(self):
        # run seed 8 draws a degree-2 polynomial over GF(4^5) that reaches
        # only 8 of the 16 trace pairs; those 8 are genuine failures
        op = w.build("witness", 8, Path(self.tmp.name))[2]
        rep = op.call()
        self.assertEqual(len(rep.failures), 8)
        self.assertEqual(op.check(rep), rep.pairs_checked)
        f = rep.failures[0][0]
        ctx = ffield.make_field(2, 10, seed=0)
        a, b = sorted(w.reached_trace_pairs(ctx, f, 2))[0]
        bad = dataclasses.replace(rep, failures=((f, ctx.from_index(a), ctx.from_index(b)),))
        with self.assertRaisesRegex(w.CheckFailed, "reachable"):
            op.check(bad)

    def test_changed_t7_record_fails(self):
        p = self.ref["t7_order"][0]
        rec = survey.classify(p, 7)
        changed = rec.__class__(rec.p, rec.t, rec.n, rec.status, rec.bound,
                                rec.sieve, reason="changed")
        self.assertEqual(w.record_digest(rec), self.ref["t7_records"][str(p)])
        self.assertNotEqual(w.record_digest(changed), self.ref["t7_records"][str(p)])


class TestWrappersAreTransparent(unittest.TestCase):
    CLI = [
        ["--cache", "", "survey", "--t", "20", "--paper-diff"],
        ["--seed", "3", "--cache", "", "witness", "--q", "2", "--t", "7"],
        ["--seed", "1", "--cache", "", "charsum-lab", "--q", "2", "--m", "5",
         "--suite", "expansion", "--samples", "3"],
    ]

    def results(self):
        out = [w.run_cli(argv) for argv in self.CLI]
        out.append(survey.classify(13, 7))
        out.append(repr(survey.verify_membership_sample(2, 5, 2, 2, seed=4)))
        ctx = ffield.make_field(3, 4, seed=2)
        out.append([ctx.to_index(ctx.pow(ctx.from_index(i), 5)) for i in range(81)])
        return out

    def test_bit_identical(self):
        originals = (cli.main, ntheory.FactorCache.get, ffield.FieldCtx.mul)
        plain = self.results()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.main, originals[0])
            self.assertIs(survey.factor_prime_power_order, ntheory.factor_prime_power_order)
            traced = self.results()
        finally:
            tracer.uninstall()
        self.assertEqual(plain, traced)
        self.assertEqual((cli.main, ntheory.FactorCache.get, ffield.FieldCtx.mul), originals)
        self.assertGreater(tracer.stats["ffield.mul"].calls, 0)
        self.assertGreater(tracer.stats["cli.main"].calls, 0)


class TestBenchmarkJson(unittest.TestCase):
    def test_metric_names_match(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END_UNITS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         dict(tracing.PER_LAYER_UNITS, trace_overhead="ratio"))
        self.assertEqual([x["name"] for x in spec["workloads"]], list(w.PASSES))
        self.assertEqual(run.WORKLOADS, list(w.PASSES))


if __name__ == "__main__":
    unittest.main()
