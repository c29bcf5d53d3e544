"""Benchmark runner: one workload, closed loop, single process and thread.

    python3 bench/run.py --workload table|blowup|census --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from `src/` next to
this directory.  The runner repeats passes over the workload's jobs (each
job starts when the previous one has finished) until the next pass would
overrun `--seconds`, then checks every output against the known answers,
outside the timed region.  The last line of stdout is one JSON object:

    {"correct": bool, "attempted": jobs run, "failed": jobs wrong or raised,
     "metrics": {name: {"value": v, "unit": u}}}

Job and set-up times are scaled to a reference host speed, read off a fixed
computation timed beside them (see hostspeed.py).  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced passes and
reports the per-layer metrics.  A human-readable summary
goes to stderr, and a record of the run (seed, samples, problems and, when
traced, every span) to .bench-results/ under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import hostspeed
from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench-results"
SETUP_SAMPLES = 21
SETUP_TIMEOUT_S = 60

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "job_p50_ms": "ms", "job_p90_ms": "ms"}


def percentile(values, q) -> float:
    """Nearest-rank percentile: a value that was measured, not interpolated."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters: import hendry, prepare the inputs.

    A fresh process is the only place an import costs what a user pays, so
    each sample is a child process that times itself and exits.  Returns the
    samples scaled to the reference host speed, and as measured.
    """
    probe = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(probe, capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        measured, at_reference = map(float, done.stdout.split())
        raw.append(measured)
        scaled.append(at_reference)
    return scaled, raw


class JobError:
    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception(exc)).strip()

    def __repr__(self):
        return self.text


_ELAPSED = re.compile(r'"elapsed_ms": [-0-9.e+]+')


def _fingerprint(out):
    """Equal for outputs that differ only in the reports' own timings."""
    if isinstance(out, list):
        return tuple(_fingerprint(o) for o in out)
    stdout = getattr(out, "stdout", None)
    if stdout is not None:
        return (out.code, _ELAPSED.sub("", stdout))
    return repr(out)


class Gate:
    """Checks each job's outputs against its known answer, outside the timed
    region; an output identical to one already checked is not checked again."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = self.failed = 0
        self.problems: list[tuple[str, str]] = []
        self._seen = [{} for _ in jobs]

    def check(self, i, out):
        job = self.jobs[i]
        self.attempted += 1
        if isinstance(out, JobError):
            found = [f"raised: {out.text.splitlines()[-1]}"]
        else:
            key = _fingerprint(out)
            found = self._seen[i].get(key)
            if found is None:
                try:
                    found = job.check(out)
                except Exception as exc:  # a malformed output is a failure
                    found = [f"check raised {exc!r}"]
                self._seen[i][key] = found
        if found:
            self.failed += 1
            self.problems += [(job.key, p) for p in found]


@dataclass
class Timings:
    """Pass wall times and, per job, one latency per pass: scaled to the
    reference host speed, and as measured."""

    walls: list[float]
    latency: list[list[float]]
    raw: list[list[float]]

    @classmethod
    def empty(cls, jobs) -> "Timings":
        return cls([], [[] for _ in jobs], [[] for _ in jobs])


def run_passes(jobs, seconds: float, gate: Gate, tracer=None):
    """Closed-loop passes until the next one would take the measured time
    past `seconds`; each pass's outputs are checked after the pass.

    A host-speed sample is taken between consecutive jobs and every
    hostspeed.TICK_S inside a job; each job's latency is scaled with the
    median of the samples around and inside it.  With a tracer,
    passes alternate untraced / traced, at least one of each.  Returns the
    (untraced, traced) timings.
    """
    plain, traced = Timings.empty(jobs), Timings.empty(jobs)
    meter = hostspeed.Meter(tracer.pause if tracer is not None else None)
    job_id = 0
    while True:
        tracing = tracer is not None and len(plain.walls) > len(traced.walls)
        into = traced if tracing else plain
        outputs = []
        with tracer.installed() if tracing else contextlib.nullcontext():
            t_pass = time.perf_counter()
            before = hostspeed.sample(3)
            for i, job in enumerate(jobs):
                if tracing:
                    tracer.job = job_id
                job_id += 1
                t0 = time.perf_counter()
                with meter.during():
                    try:
                        out = job.run()
                    except Exception as exc:  # a failed job is counted, not fatal
                        out = JobError(exc)
                elapsed = time.perf_counter() - t0 - meter.spent
                after = hostspeed.sample_after(elapsed)
                into.raw[i].append(elapsed)
                into.latency[i].append(
                    hostspeed.scale(elapsed, [before, after, *meter.samples]))
                before = after
                outputs.append(out)
            into.walls.append(time.perf_counter() - t_pass)
        for i, out in enumerate(outputs):
            gate.check(i, out)
        walls = plain.walls + traced.walls
        if (sum(walls) + statistics.median(walls) > seconds
                and (tracer is None or traced.walls)):
            return plain, traced


def job_medians(latency) -> list[float]:
    """Each job's median latency over the passes."""
    return [statistics.median(samples) for samples in latency]


def end_to_end_metrics(plain: Timings, setup, peak_rss_kb) -> dict:
    """Times are at the reference host speed.  wall_s is the time to finish
    every job, taken as the sum of the jobs' median latencies; the
    percentiles are over the jobs' median latencies."""
    typical = job_medians(plain.latency)
    values = {
        "wall_s": sum(typical),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "job_p50_ms": 1000.0 * percentile(typical, 0.5),
        "job_p90_ms": 1000.0 * percentile(typical, 0.9),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def layer_metrics(tracer, plain: Timings, traced: Timings) -> dict:
    """Per traced pass: self time (as measured) and calls per layer, plus the
    engines' counts.  trace.overhead_s compares job times at the reference
    host speed, like wall_s."""
    n = len(traced.walls)
    totals = tracer.layer_totals()
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (totals[layer]["self_s"] / n, "s")
        out[f"{layer}.calls"] = (totals[layer]["calls"] / n, "count")
    c = tracer.counts
    table_s = totals["cycles.table"]["self_s"]
    out["cycles.table.entries"] = (c["cycles.table.entries"] / n, "count")
    out["cycles.table.entries_per_s"] = (
        c["cycles.table.entries"] / table_s if table_s else 0.0, "1/s")
    out["cycles.table.bytes"] = (c["cycles.table.bytes"] / n, "B")
    out["cycles.search.found"] = (c["cycles.search.found"] / n, "count")
    out["cycles.search.empty"] = (c["cycles.search.empty"] / n, "count")
    out["graph6.bytes"] = (c["graph6.bytes"] / n, "B")
    out["trace.overhead_s"] = (sum(job_medians(traced.latency))
                               - sum(job_medians(plain.latency)), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def _import_package():
    """Import hendry from this checkout's src/, or explain why not."""
    if not (SRC / "hendry" / "__init__.py").is_file():
        raise ImportError(f"no package at {SRC / 'hendry'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hendry
    if Path(hendry.__file__).resolve().parent != (SRC / "hendry").resolve():
        raise ImportError(f"imported hendry from {hendry.__file__}, not {SRC}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("table", "blowup", "census"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        _import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    setup, raw_setup = measure_setup(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as workdir:
        jobs = workloads.prepare(args.workload, args.seed, Path(workdir))
        gate = Gate(jobs)
        plain, traced = run_passes(jobs, args.seconds, gate, tracer)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed = gate.attempted, gate.failed

    if tracer is None:
        metrics = end_to_end_metrics(plain, setup, peak_rss_kb)
    else:
        metrics = layer_metrics(tracer, plain, traced)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "jobs": [job.key for job in jobs],
              "untraced": vars(plain), "traced": vars(traced),
              "setup_samples_s": setup, "raw_setup_samples_s": raw_setup,
              "attempted": attempted, "failed": failed,
              "problems": gate.problems[:200], "metrics": metrics}
    if tracer is not None:
        record["table_bytes"] = "measured: buffer bytes held by each CyclableTable"
        record["span_fields"] = ["name", "layer", "start_s", "end_s", "parent", "job",
                                 "paused_s"]
        record["spans"] = tracer.spans
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))

    summary = [f"{args.workload} seed={args.seed}: {len(plain.walls)} untraced + "
               f"{len(traced.walls)} traced passes of {len(jobs)} jobs; "
               f"failed {failed}/{attempted} (failed_frac {failed / attempted:.4f}); "
               f"percentiles over {len(jobs)} job medians"]
    summary += [f"  {k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    if tracer is not None:
        wall = sum(statistics.fmean(s) for s in traced.raw)
        summary.append(f"  shares of a traced pass's job time {wall:.3f} s: " + ", ".join(
            f"{layer} {100 * metrics[f'{layer}.self_s']['value'] / wall:.1f}%"
            for layer in LAYERS))
    summary += [f"  WRONG {key}: {text}" for key, text in gate.problems[:20]]
    summary.append(f"  record: {path}")
    print("\n".join(summary), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
