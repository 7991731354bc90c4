"""Benchmark of hitchinlab: end-to-end pass times and per-layer traces.

Run from the root of a checkout::

    python3 bench/run.py --workload catalog --seed 0 --seconds 10 --trace 0

Each run is one fresh process on one workload (see ``workloads.py``):

* ``--trace 0`` reports medians: ``setup_s`` (import hitchinlab and build the
  workload's inputs), ``cold_pass_s`` (the first pass of a process, what one
  CLI invocation pays) and ``peak_rss_mb`` over this process and
  ``COLD_PROBES`` fresh ones; ``pass_s`` over the passes after this
  process's first, run for ``--seconds``.  Every pass builds fresh program
  state (a new ``Env`` or family), so the program's own caches start cold.
* ``--trace 1`` runs one untraced cold pass, then alternates traced and
  untraced passes for ``--seconds`` and reports per-layer metrics: medians
  over the traced passes of span counts, self times and computed work
  counts (see ``tracer.py``), plus the tracing overhead.

Every pass is checked (see ``workloads.Op``); a failed check makes the run
exit with code 1 after printing its result.  BLAS and OpenMP threads are
pinned to one before numpy is imported.  The last line of standard output
is the JSON result; the line before it records the machine and the samples.
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
import traceback
from pathlib import Path
from time import perf_counter

# numpy is imported only through workloads.py, after this
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_ENV, "1"))

ROOT = Path(__file__).resolve().parent.parent
COLD_PROBES = 2  # fresh processes per run besides this one, for setup and cold samples

END_TO_END = {
    "setup_s": "s",
    "cold_pass_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MiB",
}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--cold-probe",
        action="store_true",
        help="only set up and run one pass; print setup and pass times and the outputs",
    )
    return p.parse_args(argv)


def _setup(args):
    """Import hitchinlab from this checkout and build the workload's inputs."""
    import workloads

    mods = workloads.load_program(ROOT)
    return mods, workloads.Workload(args.workload, args.seed, mods)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cold_probe(args, checker) -> dict | None:
    """Set up and run one pass in a fresh process; its outputs join the checks."""
    from workloads import Op

    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--cold-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    try:
        probe = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        probe = None
    if out.returncode != 0 or probe is None:
        sys.stderr.write(out.stderr)
        checker.attempted += 1
        checker.failures.append(f"cold probe exited {out.returncode}")
        return None
    checker.add([Op(key, tuple(values), ok) for key, values, ok in probe["ops"]])
    return probe


def _machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {v: os.environ.get(v) for v in THREAD_ENV},
        "platform": platform.platform(),
    }


class Checker:
    """Counts operations and failures; a value that changes between passes fails."""

    def __init__(self):
        self.first: dict = {}
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, ops) -> None:
        keys = {op.key for op in ops}
        if self.first:
            missing = sorted(set(self.first) - keys)
            self.attempted += len(missing)
            self.failures += [f"{k}: missing" for k in missing]
        for op in ops:
            self.attempted += 1
            ref = self.first.setdefault(op.key, op.values)
            if not op.ok:
                self.failures.append(f"{op.key}: check failed {op.values}")
            elif ref != op.values:
                self.failures.append(f"{op.key}: changed {ref} -> {op.values}")

    def crashed(self) -> None:
        traceback.print_exc()
        self.attempted += 1
        self.failures.append("pass raised: " + traceback.format_exc().splitlines()[-1])


def _timed_pass(run, checker: Checker) -> tuple[float | None, list]:
    """Seconds one pass took (None if it raised) and its checked operations."""
    t0 = perf_counter()
    try:
        ops = run()
    except Exception:  # a crashing pass is a failed operation, reported below
        checker.crashed()
        return None, []
    dt = perf_counter() - t0
    checker.add(ops)
    return dt, ops


def main(argv=None) -> int:
    args = _args(argv)
    t0 = perf_counter()
    try:
        mods, wl = _setup(args)
    except Exception as exc:  # missing or broken program: no result is printed
        print(f"bench: cannot set up {args.workload!r}: {exc}", file=sys.stderr)
        return 2
    setup_s = perf_counter() - t0
    checker = Checker()
    if args.cold_probe:
        cold, ops = _timed_pass(wl.run_pass, checker)
        if cold is None:
            return 1
        probe = {"setup_s": setup_s, "cold_pass_s": cold, "peak_rss_mb": _peak_rss_mb()}
        probe["ops"] = [[op.key, list(op.values), op.ok] for op in ops]
        print(json.dumps(probe))
        return 0

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    detail["machine"] = _machine()
    cold, _ = _timed_pass(wl.run_pass, checker)
    if args.trace:
        metrics = _traced(args, mods, wl, checker, cold, detail)
    else:
        # probes and warm passes alternate, so each metric's samples span the
        # run and a burst of load on the machine skews fewer of them
        probes, passes, tries = [], [], 0
        while cold is not None and (tries < COLD_PROBES or sum(passes) < args.seconds):
            if tries < COLD_PROBES:
                tries += 1
                probe = _cold_probe(args, checker)
                if probe:
                    probes.append(probe)
            if not passes or sum(passes) < args.seconds:
                dt, _ = _timed_pass(wl.run_pass, checker)
                if dt is None:
                    break
                passes.append(dt)
        samples = {
            "setup_s": [setup_s] + [p["setup_s"] for p in probes],
            "cold_pass_s": [cold or 0.0] + [p["cold_pass_s"] for p in probes],
            "pass_s": passes or [0.0],
            "peak_rss_mb": [_peak_rss_mb()] + [p["peak_rss_mb"] for p in probes],
        }
        detail["samples"] = samples
        metrics = {
            k: {"value": statistics.median(v), "unit": END_TO_END[k]} for k, v in samples.items()
        }

    correct = not checker.failures and checker.attempted > 0
    detail["case_check"] = getattr(getattr(wl, "case_check", None), "active", None)
    detail["fail_frac"] = len(checker.failures) / max(checker.attempted, 1)
    detail["failures"] = checker.failures[:20]
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(checker.attempted, 1),
                "failed": len(checker.failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _traced(args, mods, wl, checker, cold, detail) -> dict:
    import layers
    from tracer import Tracer

    tracer = Tracer()
    traced_run = tracer.wrap("pass", wl.run_pass)
    specs = layers.span_specs(tracer, mods)
    jobs = getattr(getattr(wl, "cfg", None), "jobs", 1)
    plain, traced, per_pass = [], [], []
    while cold is not None and (not traced or sum(plain) + sum(traced) < args.seconds):
        tracer.install(mods, specs, layers.methods(mods), layers.extras(mods))
        try:
            dt, _ = _timed_pass(traced_run, checker)
        finally:
            tracer.uninstall()
        recs, dups = tracer.collect()
        if dt is None:
            break
        traced.append(dt)
        per_pass.append(layers.pass_metrics(recs, dups, jobs))
        if sum(plain) + sum(traced) >= args.seconds:
            break
        dt, _ = _timed_pass(wl.run_pass, checker)
        if dt is None:
            break
        plain.append(dt)
    reference = plain or [cold or 0.0]
    detail["samples"] = {"cold_pass_s": [cold], "pass_s": plain, "traced_pass_s": traced}
    values = dict.fromkeys(layers.PER_LAYER, 0.0)
    for name in per_pass[0] if per_pass else ():
        values[name] = statistics.median(p[name] for p in per_pass)
    if traced:
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(reference)
    values["trace.passes"] = len(traced)
    values["check.fail_frac"] = len(checker.failures) / max(checker.attempted, 1)
    return {k: {"value": v, "unit": layers.PER_LAYER[k][0]} for k, v in values.items()}


if __name__ == "__main__":
    sys.exit(main())
