"""Golden verdicts: the default ``verify --jobs 1`` and the default ``sweep``,
run in subprocesses with BLAS threads pinned to one, against the reports
and exit codes committed under ``tests/golden/`` (``write_golden.py``
writes them).

Names, counts, budgets, verdicts and statuses must match exactly.  The
measured values match within tolerances set by the 3x rule from their
move between one and two BLAS threads, the largest that rounding alone
makes: 1.74e-5 relative on a ``verify`` residual (chart
``basis_holomorphy``), 1.92e-4 relative on a ``sweep`` residual (the
``connection_agreement`` h ``fine``) and 2.81e-4 absolute on an order (the
same row).  A change that moves a residual beyond them must regenerate the
golden files and say why.
"""

from __future__ import annotations

import json
import math

import pytest

from write_golden import GOLDEN, RUNS, run

# per run: fields compared exactly, relative tolerances, absolute tolerances
EXACT = {
    "verify": ("identity", "backend", "cases", "budget", "verdict", "expected", "status", "note"),
    "sweep": ("identity", "axis", "pair"),
}
RELATIVE = {"verify": {"residual": 5.3e-5, "ratio": 5.3e-5}, "sweep": {"coarse": 5.8e-4, "fine": 5.8e-4}}
ABSOLUTE = {"verify": {}, "sweep": {"order": 8.5e-4}}


def _rows(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def moved_rows(name: str, golden: list[dict], rows: list[dict]) -> list[str]:
    """One line per row of run ``name`` that differs from its golden row:
    an exact field that differs, or a measured value beyond its tolerance,
    with the old and new measured values of the row."""
    lines = []
    if len(rows) != len(golden):
        lines.append(f"{len(golden)} golden rows, {len(rows)} now")
    measured = list(RELATIVE[name]) + list(ABSOLUTE[name])
    for old, new in zip(golden, rows):
        changed = [k for k in EXACT[name] if old[k] != new[k]]
        changed += [
            k for k, tol in RELATIVE[name].items()
            if not math.isclose(new[k], old[k], rel_tol=tol, abs_tol=0.0)
        ]
        changed += [k for k, tol in ABSOLUTE[name].items() if not abs(new[k] - old[k]) <= tol]
        if changed:
            label = " ".join(str(old[k]) for k in EXACT[name][:2])
            values = ", ".join(f"{k} {old[k]!r} -> {new[k]!r}" for k in measured)
            lines.append(f"{label}: {', '.join(changed)} moved; {values}")
    return lines


def test_moved_rows_names_each_moved_row():
    # the check itself passes a rounding move and names a moved residual,
    # a changed status and an order outside its absolute tolerance
    row = {k: "x" for k in EXACT["verify"]} | {"residual": 1e-8, "ratio": 1e-2}
    assert moved_rows("verify", [row], [row | {"residual": 1e-8 * (1 + 1e-6)}]) == []
    moved = moved_rows("verify", [row, row], [row | {"residual": 1e-6}, row | {"status": "y"}])
    assert moved == [
        "x x: residual moved; residual 1e-08 -> 1e-06, ratio 0.01 -> 0.01",
        "x x: status moved; residual 1e-08 -> 1e-08, ratio 0.01 -> 0.01",
    ]
    step = {"identity": "i", "axis": "h", "pair": "p", "coarse": 1.0, "fine": 0.1, "order": 4.0}
    assert moved_rows("sweep", [step], [step | {"order": 4.01}, step]) == [
        "1 golden rows, 2 now",
        "i h: order moved; coarse 1.0 -> 1.0, fine 0.1 -> 0.1, order 4.0 -> 4.01",
    ]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_default_run_matches_its_golden_report(name, tmp_path):
    code, text = run(name, tmp_path)
    golden = _rows((GOLDEN / f"{name}.jsonl").read_text())
    moved = moved_rows(name, golden, _rows(text))
    assert not moved, f"{name} moved from tests/golden:\n" + "\n".join(moved)
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
