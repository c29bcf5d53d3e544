"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

They check that the correctness gate flags a tampered verdict, witness cycle
and cut; that every emitted metric name is declared in BENCHMARK.json and
well formed; and that traced self times fit inside the traced wall time.
"""

from __future__ import annotations

import json
import re
import tempfile
import unittest
from pathlib import Path

import run

run._import_package()

import gate  # noqa: E402
import workloads  # noqa: E402
from hendry.core import Cycle  # noqa: E402
from hendry.cycles import ExtensionVerdict  # noqa: E402
from hendry.structure import ConnectivityCert  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


class Workdir(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory(prefix=".bench-work-", dir=run.ROOT)
        cls.workdir = Path(cls._tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()


class GateFlagsTampering(Workdir):
    def test_tampered_verdict(self):
        job = workloads.table_jobs(self.workdir)[0]
        self.assertTrue(job.check(ExtensionVerdict(True, None)))
        self.assertTrue(job.check(ExtensionVerdict(False, frozenset(range(5)))))

        lemma = workloads._lemma_job(*workloads.LEMMAS[8])   # lemma:3.3 --k 3
        real = lemma.run()
        self.assertEqual(lemma.check(real), [])
        flipped = real.stdout.replace('"verdict": false', '"verdict": true')
        self.assertNotEqual(flipped, real.stdout)
        self.assertTrue(lemma.check(workloads.CliRun(real.code, flipped, "")))
        self.assertTrue(lemma.check(workloads.CliRun(0, real.stdout, "")))

    def test_tampered_cycle(self):
        job = {j.key: j for j in workloads.blowup_jobs(self.workdir)}["s(4) V-{z,v4}"]
        real = job.run()
        self.assertEqual(job.check(real), [])
        g = workloads.families.build_s(4)
        vs = list(real.vertices)
        broken = None
        for i in range(1, len(vs)):
            swapped = list(vs)
            swapped[0], swapped[i] = vs[i], vs[0]
            if gate.cycle_problems(g, swapped):
                broken = swapped
                break
        self.assertTrue(job.check(Cycle(broken)))
        self.assertTrue(job.check(Cycle(vs[:-1])))    # valid or not, wrong vertex set

    def test_tampered_cut(self):
        job = {j.key: j for j in workloads.blowup_jobs(self.workdir)}["kappa s(4)"]
        real = job.run()
        self.assertEqual(job.check(real), [])
        g = workloads.families.build_s(4)
        outside = [v for v in range(g.n) if v not in real.cut]
        swapped = next(real.cut[1:] + (v,) for v in outside
                       if gate.connected_after_removal(g, real.cut[1:] + (v,)))
        self.assertTrue(job.check(ConnectivityCert(real.kappa, swapped, False)))
        self.assertTrue(job.check(ConnectivityCert(3, real.cut[1:], False)))

    def test_failures_are_counted(self):
        job = workloads.table_jobs(self.workdir)[0]
        checker = run.Gate([job])
        for out in (ExtensionVerdict(True, None), ExtensionVerdict(True, None),
                    run.JobError(RuntimeError("boom"))):
            checker.check(0, out)
        self.assertEqual((checker.attempted, checker.failed), (3, 3))
        self.assertEqual(len(checker.problems), 3)


class MetricNames(unittest.TestCase):
    def assert_declared(self, metrics, section):
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        self.assertEqual(set(metrics), set(declared))
        for name, m in metrics.items():
            self.assertRegex(name, NAME)
            self.assertEqual(m["unit"], declared[name])

    def test_end_to_end(self):
        plain = run.Timings([1.0, 1.1], [[0.2, 0.3], [0.4, 0.5]], [[0.2, 0.3], [0.4, 0.5]])
        metrics = run.end_to_end_metrics(plain, [0.05], 20480)
        self.assert_declared(metrics, "end_to_end")

    def test_per_layer(self):
        plain = run.Timings([1.0], [[1.0]], [[1.0]])
        traced = run.Timings([1.1], [[1.1]], [[1.1]])
        metrics = run.layer_metrics(Tracer(), plain, traced)
        self.assert_declared(metrics, "per_layer")


class TracedSelfTimes(Workdir):
    def test_self_times_fit_in_wall_and_cover_every_layer(self):
        tracer = Tracer()
        jobs = [workloads.roundtrip_job(self.workdir)]
        checker = run.Gate(jobs)
        plain, traced = run.run_passes(jobs, 0.0, checker, tracer)
        self.assertEqual((len(plain.walls), len(traced.walls)), (1, 1))
        self.assertEqual((checker.attempted, checker.failed), (2, 0))
        totals = tracer.layer_totals()
        self.assertLessEqual(sum(t["self_s"] for t in totals.values()),
                             traced.walls[0])
        for layer in LAYERS:
            self.assertGreater(totals[layer]["calls"], 0, layer)
            self.assertGreater(totals[layer]["self_s"], 0.0, layer)
        # the wrappers are gone once the pass is over
        import hendry.cycles
        self.assertFalse(hasattr(hendry.cycles.build_cyclable_table, "__wrapped__"))


if __name__ == "__main__":
    unittest.main()
