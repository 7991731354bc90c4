"""The standard runs as golden reports: write them, or check a tree against them.

Run from the repository root::

    python tests/write_golden.py              # write tests/golden/ from this tree
    python tests/write_golden.py --check      # compare this tree with tests/golden/
    python tests/write_golden.py --calibrate  # each run's move from 1 to 2 BLAS threads

The standard set (``RUNS``) is the default ``verify`` at ``--jobs`` 1 and 2,
``--backend torus --grid 33`` and ``--grid 128``, ``--backend chart --grid
45``, the nine ``--mutate`` runs and the default ``sweep``.  Each runs in a
subprocess with OpenMP and OpenBLAS threads pinned to one; its ``--out``
report (``report.jsonl`` or ``sweep.jsonl``) is written under
``tests/golden/`` as ``<run>.jsonl``, and every exit code to
``exit_codes.json``.  Stdout is a formatting of the same rows.

``--check`` prints, per run, ``identical`` (the same report bytes and exit
code) or each changed row with its old and new measured values, their
ratio new/old, and whether the change is within the run's tolerance.  It
exits 1 when an exact field, a row count or an exit code changed, or a
measured value moved beyond its tolerance.  ``tests/test_golden.py`` checks
the cheap subset ``TIER1`` the same way.

A run's tolerances are three times the largest move of each measured value
between one and two BLAS threads, rounded up to two significant figures
(``--calibrate`` prints the moves); a run whose values did not move at all
is compared exactly.  Regenerating a golden file changes a check's data:
CHANGES.md names each moved row with its old and new values, and why.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
MUTATIONS = (
    "defining-trace", "defining-vj", "oneform-div", "oneform-quad", "pullback-gradient",
    "pullback-potential", "transfer-omega", "transfer-rho", "transfer-trace",
)
# run name -> (command line, the report file it writes under --out)
RUNS = {
    "verify": (["verify", "--jobs", "1"], "report.jsonl"),
    "verify-jobs2": (["verify", "--jobs", "2"], "report.jsonl"),
    "torus33": (["verify", "--backend", "torus", "--grid", "33"], "report.jsonl"),
    "torus128": (["verify", "--backend", "torus", "--grid", "128"], "report.jsonl"),
    "chart45": (["verify", "--backend", "chart", "--grid", "45"], "report.jsonl"),
    **{f"mutate-{m}": (["verify", "--mutate", m], "report.jsonl") for m in MUTATIONS},
    "sweep": (["sweep"], "sweep.jsonl"),
}
TIER1 = ("sweep", "verify")  # the runs tests/test_golden.py checks (about 3 s)

# per report file: the fields compared exactly, and the measured ones
EXACT = {
    "report.jsonl": ("identity", "backend", "cases", "budget", "verdict", "expected", "status", "note"),
    "sweep.jsonl": ("identity", "axis", "pair"),
}
MEASURED = {"report.jsonl": ("residual", "ratio"), "sweep.jsonl": ("coarse", "fine", "order")}
# per run: the relative and the absolute tolerance of each measured value,
# three times its largest move from one to two BLAS threads (chart
# basis_holomorphy 1.74e-5 on the default catalog, with or without a
# mutation, and 1.49e-5 at grid 45; the sweep's connection_agreement h row
# 1.92e-4 and 2.81e-4).  A value without one is compared exactly: no value
# of the torus runs moved.
_VERIFY = {"residual": 5.3e-5, "ratio": 5.3e-5}
RELATIVE = {name: _VERIFY for name in RUNS if name.startswith(("verify", "mutate-"))} | {
    "chart45": {"residual": 4.5e-5, "ratio": 4.5e-5},
    "sweep": {"coarse": 5.8e-4, "fine": 5.8e-4},
}
ABSOLUTE = {"sweep": {"order": 8.5e-4}}


def run(name: str, out: Path, threads: int = 1) -> tuple[int, str]:
    """The exit code and the report text of run ``name``, which writes its
    report files under the directory ``out``; BLAS threads pinned to
    ``threads``."""
    argv, report = RUNS[name]
    pinned = str(threads)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS=pinned, OPENBLAS_NUM_THREADS=pinned)
    proc = subprocess.run(
        [sys.executable, "-m", "hitchinlab", *argv, "--out", str(out)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    if not (out / report).exists():
        raise RuntimeError(f"{name} exited {proc.returncode} and wrote no report:\n{proc.stderr}")
    return proc.returncode, (out / report).read_text()


def rows_of(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def _beyond(name: str, old: dict, new: dict) -> list[str]:
    """The fields of a row of run ``name`` that changed beyond tolerance:
    an exact field that differs, or a measured value beyond its tolerance."""
    report = RUNS[name][1]
    rel, absolute = RELATIVE.get(name, {}), ABSOLUTE.get(name, {})
    beyond = [k for k in EXACT[report] if old[k] != new[k]]
    for k in MEASURED[report]:
        if k in rel:
            moved = not math.isclose(new[k], old[k], rel_tol=rel[k], abs_tol=0.0)
        else:
            moved = not abs(new[k] - old[k]) <= absolute.get(k, 0.0)
        beyond += [k] if moved else []
    return beyond


def _changes(name: str, golden: list[dict], rows: list[dict]):
    """``(old, new, beyond)`` per row of run ``name`` that differs from its
    golden row at all, ``beyond`` as `_beyond` gives it."""
    for old, new in zip(golden, rows):
        if old != new:
            yield old, new, _beyond(name, old, new)


def _label(name: str, row: dict) -> str:
    return " ".join(str(row[k]) for k in EXACT[RUNS[name][1]][:2])


def _count(golden: list[dict], rows: list[dict]) -> list[str]:
    return [f"{len(golden)} golden rows, {len(rows)} now"] if len(rows) != len(golden) else []


def moved_rows(name: str, golden: list[dict], rows: list[dict]) -> list[str]:
    """One line per row of run ``name`` that differs from its golden row
    beyond tolerance, with the old and new measured values of the row."""
    lines = _count(golden, rows)
    for old, new, beyond in _changes(name, golden, rows):
        if beyond:
            values = ", ".join(f"{k} {old[k]!r} -> {new[k]!r}" for k in MEASURED[RUNS[name][1]])
            lines.append(f"{_label(name, old)}: {', '.join(beyond)} moved; {values}")
    return lines


def _ratio(old: float, new: float) -> str:
    return f"{new / old:.10g}" if old else "-"


def report(name: str, golden: tuple[int, str], now: tuple[int, str]) -> tuple[list[str], bool]:
    """The ``--check`` lines of run ``name`` and whether it is within
    tolerance: ``identical``, or each changed row with its old and new
    measured values and their ratio, within or beyond tolerance."""
    (old_code, old_text), (code, text) = golden, now
    if (old_code, old_text) == (code, text):
        return [f"{name}: identical"], True
    old_rows, new_rows = rows_of(old_text), rows_of(text)
    lines = [f"exit code {old_code} -> {code}"] if code != old_code else []
    lines += _count(old_rows, new_rows)
    ok = not lines
    lines = [f"{name}: {line}" for line in lines] or [f"{name}: changed"]
    for old, new, beyond in _changes(name, old_rows, new_rows):
        values = ", ".join(
            f"{k} {old[k]!r} -> {new[k]!r} (x{_ratio(old[k], new[k])})" for k in MEASURED[RUNS[name][1]]
        )
        verdict = f"beyond tolerance ({', '.join(beyond)})" if beyond else "within tolerance"
        lines.append(f"  {_label(name, old)}: {verdict}; {values}")
        ok = ok and not beyond
    return lines, ok


def _golden(name: str) -> tuple[int, str]:
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    return codes[name], (GOLDEN / f"{name}.jsonl").read_text()


def write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name in RUNS:
        with tempfile.TemporaryDirectory() as out:
            codes[name], text = run(name, Path(out))
        (GOLDEN / f"{name}.jsonl").write_text(text)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")


def check() -> bool:
    ok = True
    for name in RUNS:
        with tempfile.TemporaryDirectory() as out:
            lines, fine = report(name, _golden(name), run(name, Path(out)))
        print("\n".join(lines), flush=True)
        ok = ok and fine
    print("within tolerance" if ok else "BEYOND TOLERANCE")
    return ok


def calibrate() -> None:
    """Print each run's largest move of each measured value between one
    and two BLAS threads (relative; absolute for a sweep ``order``)."""
    for name in RUNS:
        texts = []
        for threads in (1, 2):
            with tempfile.TemporaryDirectory() as out:
                texts.append(run(name, Path(out), threads)[1])
        one, two = (rows_of(text) for text in texts)
        moves = {}
        for k in MEASURED[RUNS[name][1]]:
            if k in ABSOLUTE.get(name, {}):
                moves[k] = max(abs(b[k] - a[k]) for a, b in zip(one, two))
            else:
                moves[k] = max(
                    abs(b[k] - a[k]) / abs(a[k]) if a[k] else (math.inf if b[k] else 0.0) for a, b in zip(one, two)
                )
        print(name, " ".join(f"{k} {v:.3g}" for k, v in moves.items()), flush=True)


if __name__ == "__main__":
    mode = sys.argv[1:]
    if mode == ["--check"]:
        sys.exit(0 if check() else 1)
    elif mode == ["--calibrate"]:
        calibrate()
    elif not mode:
        write()
    else:
        sys.exit(f"usage: {sys.argv[0]} [--check | --calibrate]")
