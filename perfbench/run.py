#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of bassinv.

Run from the repository root:

    python3 perfbench/run.py --workload wahl-bass --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory): wahl-bass, dense-forms,
nonqh-ladder.  Every job is one in-process ``bassinv.cli.run`` call, single
threaded.  One untimed warm-up pass runs first (and, when both kernel
backends import, runs every job on each and counts any difference in output
as a failure); then whole passes over the job list repeat until --seconds
have passed.  Every output is checked by ``oracles.py``.

--trace 0 prints the end-to-end metrics: setup_s (the time of a fresh
``python -c "import bassinv.cli"``), wall_ref (median pass time),
job_ref_p50 / job_ref_p90 (over every job run of the timed passes) and
peak_rss_mb.  The host's speed drifts by up to 1.7x for minutes at a time,
so times are taken relative to a yardstick timed next to them, which drifts
alike.  Job times are in "ref" units: each job's time over the mean time of
``workloads.reference_work()`` run just before and just after it; a pass is
the sum of its jobs.  setup_s is the median, over paired subprocesses, of
the import's time over that of a bare ``python -c pass`` started just
before it, times BARE_S.  The same figures in raw seconds are printed too.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics BENCHMARK.json names, among them trace.wall_ratio (traced over
untraced median pass time); it writes the spans of the first traced pass to
.bench_build/perfbench/.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Exit code 0 when a result
was printed; 2 when the engine or its fixtures cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracles
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_SAMPLES = 20
# Wall time of a bare interpreter start on the host the bounds were set on
# (2-vCPU Xeon VM): setup_s is given in seconds at that speed.
BARE_S = 0.054
MIN_PASSES = 3

TIMES = ("s", "self_s")
# computed by per_layer() from pass times, not read from a layer's spans
WALL_RATIO = "trace.wall_ratio"


def layer_metrics():
    """The per-layer metrics BENCHMARK.json names, with their units: the
    layers that run on every workload.  The summary printed above the
    result line and the trace file also hold the layers that only
    wahl-bass or the graded inputs reach."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]
            if m["name"] != WALL_RATIO]


class EngineMissing(Exception):
    pass


def import_engine():
    """Import bassinv from this checkout's src/, and nowhere else."""
    if not (SRC / "bassinv" / "__init__.py").is_file():
        raise EngineMissing(f"no bassinv package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bassinv.cli
    from bassinv import kernel
    if SRC not in Path(bassinv.__file__).resolve().parents:
        raise EngineMissing(f"bassinv imported from {bassinv.__file__}")
    return bassinv.cli, kernel


def measure_setup():
    """(bare, import) wall-time pairs of fresh interpreters: ``python -c
    pass`` and, just after it, ``python -c "import bassinv.cli"``.  One
    import runs first to write the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def wall(code):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        return perf_counter() - start

    wall("import bassinv.cli")
    return [(wall("pass"), wall("import bassinv.cli"))
            for _ in range(SETUP_SAMPLES)]


class Bench:
    def __init__(self, cli, kernel, jobs):
        self.cli = cli
        self.kernel = kernel
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _call(self, job):
        try:
            return self.cli.run(list(job.argv)), None
        except Exception as exc:  # any engine error fails the job, not the run
            return None, f"{type(exc).__name__}: {exc}"

    def _record(self, job, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{job.label}: {'; '.join(problems)}")

    def warm_up(self):
        """One untimed pass; on every other importable backend too."""
        active = self.kernel.backend_name()
        others = [b for b in self.kernel.available_backends() if b != active]
        for job in self.jobs:
            out, error = self._call(job)
            problems = [error] if error else oracles.check(job, out, ROOT)
            for other in others:
                with self.kernel.use(other):
                    other_out, other_error = self._call(job)
                if (other_out, other_error) != (out, error):
                    problems.append(f"{other} output differs from {active}")
            self._record(job, problems)

    def run_pass(self, tracer=None):
        """Job times of one pass, and the times of the reference computation
        run before the first job and after each job; oracles run outside
        both."""
        times, refs = [], [reference_s()]
        for index, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = index
            start = perf_counter()
            out, error = self._call(job)
            times.append(perf_counter() - start)
            refs.append(reference_s())
            self._record(job, [error] if error
                         else oracles.check(job, out, ROOT))
        return times, refs


def reference_s():
    start = perf_counter()
    workloads.reference_work()
    return perf_counter() - start


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(bench, seconds):
    setup = measure_setup()
    setup_ratio = statistics.median(imp / bare for bare, imp in setup)
    bench.warm_up()
    passes, jobs, refs, pass_refs, job_refs = [], [], [], [], []
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        times, ref = bench.run_pass()
        # each job over the mean of the reference times around it
        ratios = [t / ((ref[i] + ref[i + 1]) / 2) for i, t in enumerate(times)]
        passes.append(sum(times))
        jobs.extend(times)
        refs.extend(ref)
        pass_refs.append(sum(ratios))
        job_refs.extend(ratios)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_ref": (statistics.median(pass_refs), "ref", len(passes)),
        "job_ref_p50": (percentile(job_refs, 50), "ref", len(jobs)),
        "job_ref_p90": (percentile(job_refs, 90), "ref", len(jobs)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "setup_s": (BARE_S * setup_ratio, "s", len(setup)),
    }
    seconds_view = {
        "wall_s": (statistics.median(passes), "s", len(passes)),
        "job_s_p50": (percentile(jobs, 50), "s", len(jobs)),
        "job_s_p90": (percentile(jobs, 90), "s", len(jobs)),
        "ref_s": (statistics.median(refs), "s", len(refs)),
        "import_s": (statistics.median(imp for _, imp in setup), "s",
                     len(setup)),
        "bare_s": (statistics.median(bare for bare, _ in setup), "s",
                   len(setup)),
    }
    return metrics, {"seconds": seconds_view}


def _counters(summary):
    return {f"{name}.{field}": value
            for name, row in summary.items()
            for field, value in row.items() if field not in TIMES}


def per_layer(bench, seconds, names):
    bench.warm_up()
    tracer = Tracer()
    untraced, traced, summaries = [], [], []
    first_pass_spans = None
    deadline = perf_counter() + seconds
    while len(traced) < MIN_PASSES or perf_counter() < deadline:
        untraced.append(sum(bench.run_pass()[0]))
        first = len(tracer.spans)
        tracer.install()
        try:
            traced.append(sum(bench.run_pass(tracer)[0]))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary(first))
        if first_pass_spans is None:
            first_pass_spans = len(tracer.spans)
        else:
            tracer.drop(first)
    layers = {}
    for name, first_row in summaries[0].items():
        row = dict(first_row)
        for field in TIMES:
            row[field] = statistics.median(s.get(name, {}).get(field, 0.0)
                                           for s in summaries)
        layers[name] = row
    metrics = {}
    for metric, unit in names:
        name, field = metric.rsplit(".", 1)
        value = layers.get(name, {}).get(field, 0)
        samples = len(summaries) if field in TIMES else 1
        metrics[metric] = (value, unit, samples)
    metrics[WALL_RATIO] = (
        statistics.median(traced) / statistics.median(untraced), "ratio",
        len(traced))
    repeat = all(_counters(s) == _counters(summaries[0]) for s in summaries)
    extra = {"layers": layers, "counters_repeat": repeat,
             "spans": tracer.spans[:first_pass_spans]}
    return metrics, extra


def write_trace(args, meta, extra):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {**meta, "layers": extra["layers"],
           "counters_repeat": extra["counters_repeat"],
           "span_fields": ["name", "start", "end", "parent", "job"],
           "spans": extra["spans"]}
    path.write_text(json.dumps(doc))
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)  # job arguments name fixtures relative to the root
    try:
        cli, kernel = import_engine()
        family = (ROOT / workloads.FAMILY_FILE).read_text().strip()
        names = layer_metrics()
    except (EngineMissing, ImportError, OSError) as exc:
        print(f"perfbench: cannot load the engine: {exc}", file=sys.stderr)
        return 2
    jobs = workloads.jobs_for(args.workload, args.seed, family)
    bench = Bench(cli, kernel, jobs)
    if args.trace:
        metrics, extra = per_layer(bench, args.seconds, names)
    else:
        metrics, extra = end_to_end(bench, args.seconds)

    meta = {"workload": args.workload, "seed": args.seed,
            "backend": kernel.backend_name(),
            "backends": kernel.available_backends(),
            "python": platform.python_version(), "jobs_per_pass": len(jobs)}
    print("perfbench " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit:6s} n={samples}")
    for name, (value, unit, samples) in extra.get("seconds", {}).items():
        print(f"  {name:42s} {value:14.6f} {unit:6s} n={samples} "
              f"(raw seconds: drift with the host's speed)")
    print(f"  {'fail_ratio':42s} {bench.failed}/{bench.attempted}")
    for problem in bench.problems[:20]:
        print(f"  FAILED {problem}", file=sys.stderr)
    if args.trace:
        path = write_trace(args, meta, extra)
        print(f"  counters repeat across traced passes: "
              f"{'yes' if extra['counters_repeat'] else 'NO'}")
        print(f"  {'layer':42s} {'calls':>8s} {'s':>10s} {'self_s':>10s}")
        for name, row in sorted(extra["layers"].items(),
                                key=lambda item: -item[1]["self_s"]):
            print(f"  {name:42s} {row['calls']:8d} {row['s']:10.4f} "
                  f"{row['self_s']:10.4f}")
        print(f"  spans of the first traced pass written to {path}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
