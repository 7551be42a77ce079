"""staggrid benchmark: one workload per run, timed end to end or traced by layer.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload long-lines --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Failed operations
and their reasons go to standard error.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One BLAS thread: the alternating-residual dot product then sums in the
# same order in every run, so the same lines fail every time, and the run
# stays within two busy threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from checks import CheckError, KnownFault
from spans import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Inputs are built this many times in a run, and the median build reported.
SETUP_REPEATS = 5
#: Fresh ``import staggrid`` processes timed for ``cli.startup_s``.
STARTUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "odd_to_edges_p50_s": "s",
    "even_to_edges_p50_s": "s",
    "to_centers_p50_s": "s",
    "values_per_s": "values/s",
    "accurate_digits": "digits",
    "peak_rss_mb": "MB",
}


class Record:
    """Times, checks and counts of the operations of one run."""

    def __init__(self) -> None:
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[float]] = {"odd": [], "even": [], "centers": []}
        self.busy_s = 0.0
        self.values = 0
        self.worst_err = 0.0
        self.reasons: dict[str, str] = {}

    def run(self, op, tracer: Tracer | None = None) -> float:
        """Time one operation, check its output, and return its time."""
        if tracer is not None:
            tracer.current_op = self.attempted
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception:          # a crash is counted and reported, not fatal
            dt = perf_counter() - t0
            self._bad(op, "raised " + traceback.format_exc(limit=2).strip())
            self.busy_s += dt
            return dt
        dt = perf_counter() - t0
        self.busy_s += dt
        try:
            err = op.check(out)
        except KnownFault as fault:
            self.failed += 1
            self.reasons[op.name] = f"known fault: {fault}"
        except CheckError as wrong:
            self._bad(op, f"wrong output: {wrong}")
        else:
            self.times[op.kind].append(dt)
            self.values += op.n_values
            self.worst_err = max(self.worst_err, err)
        return dt

    def _bad(self, op, reason: str) -> None:
        self.correct = False
        self.failed += 1
        self.reasons[op.name] = reason

    def run_round(self, ops, tracer: Tracer | None = None) -> float:
        return sum(self.run(op, tracer) for op in ops)

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def import_staggrid():
    """Import staggrid from the checkout's ``src``; returns (module, seconds)."""
    t0 = perf_counter()
    sg = importlib.import_module("staggrid")
    import_s = perf_counter() - t0
    if Path(sg.__file__).resolve().parent != (SRC / "staggrid").resolve():
        raise SystemExit(f"error: imported staggrid from {sg.__file__}, not {SRC}")
    return sg, import_s


def measure(build, seconds: float, rec: Record) -> list[float]:
    """Whole rounds of every operation until ``seconds`` have passed.

    The inputs are built ``SETUP_REPEATS`` times, spread evenly over the run,
    so that the set-up median samples the same machine as the operations.
    Returns the build times.
    """
    builds = []

    def timed_build():
        t0 = perf_counter()
        ops = build()
        builds.append(perf_counter() - t0)
        return ops

    start = perf_counter()
    ops = timed_build()
    while True:
        rec.run_round(ops)
        now = perf_counter()
        if now >= start + seconds:
            return builds
        if len(builds) < SETUP_REPEATS and now >= start + seconds * len(builds) / SETUP_REPEATS:
            ops = None                   # free the last build before the next
            ops = timed_build()


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload: str, setup_s: float, rec: Record) -> dict:
    def p50(kind):
        return statistics.median(rec.times[kind]) if rec.times[kind] else 0.0

    for kind, samples in rec.times.items():
        if not samples:
            rec.correct = False
            rec.reasons[f"{kind} operations"] = "none succeeded"
    digits = 16.0 if rec.worst_err == 0 else min(16.0, -math.log10(rec.worst_err))
    values = {
        "setup_s": setup_s,
        "odd_to_edges_p50_s": p50("odd"),
        "even_to_edges_p50_s": p50("even"),
        "to_centers_p50_s": p50("centers"),
        "values_per_s": rec.values / rec.busy_s,
        "accurate_digits": digits,
        "peak_rss_mb": peak_rss_mb(children=workload == "cli-files"),
    }
    return {k: (values[k], unit) for k, unit in END_TO_END.items()}


def startup_s() -> float:
    """Median wall time of a fresh ``python -c "import staggrid"``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import staggrid"], env=env, check=True,
                       timeout=workloads.CLI_TIMEOUT_S)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def traced(workload: str, ops, cli, seconds: float, rec: Record) -> dict:
    """Per-layer metrics: untraced and traced rounds alternate, same operations."""
    extra = {"cli.startup_s": startup_s(), "cli.process_s": 0.0}
    if cli is not None:
        extra["cli.process_s"] = statistics.median(rec.run(op) for op in ops)
        cli.inprocess = True
    tracer = Tracer()
    plain, wrapped = [], []
    deadline = perf_counter() + seconds
    while True:
        plain.append(rec.run_round(ops))
        tracer.install()
        try:
            wrapped.append(rec.run_round(ops, tracer))
        finally:
            tracer.uninstall()
        if perf_counter() >= deadline:
            break
    values = tracer.layer_metrics(len(wrapped))
    values.update(extra)
    values["trace.overhead_s"] = statistics.median(wrapped) - statistics.median(plain)
    tracer.save(OUT / f"trace-{workload}.npz")
    return {k: (values[k], unit) for k, (unit, _) in PER_LAYER.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "staggrid" / "__init__.py").is_file():
        print(f"error: no staggrid source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    specs = workloads.generate(args.workload, args.seed, workloads.FULL[args.workload])
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        sg, import_s = import_staggrid()
        cli = workloads.CliRunner(SRC, sg) if args.workload == "cli-files" else None

        def build():
            return workloads.build(args.workload, specs, sg, workdir, cli)

        rec = Record()
        if args.trace:
            metrics = traced(args.workload, build(), cli, args.seconds, rec)
        else:
            builds = measure(build, args.seconds, rec)
            metrics = end_to_end(args.workload, import_s + statistics.median(builds), rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, reason in rec.reasons.items():
        print(f"{args.workload} {name}: {reason}", file=sys.stderr)
    print(json.dumps(rec.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
