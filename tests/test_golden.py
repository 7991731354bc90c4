"""Golden verdicts: the default ``verify --jobs 1`` and the default ``sweep``,
run in subprocesses with BLAS threads pinned to one, against the reports
and exit codes committed under ``tests/golden/`` (``write_golden.py``
writes them, and its ``--check`` compares the whole standard set).

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

import pytest

from hitchinlab.catalog import MUTATIONS
from write_golden import GOLDEN, EXACT, RUNS, TIER1, moved_rows, report, rows_of, run


def test_moved_rows_names_each_moved_row():
    # the check itself passes a rounding move and names a moved residual,
    # a changed status and an order outside its absolute tolerance
    row = {k: "x" for k in EXACT["report.jsonl"]} | {"residual": 1e-8, "ratio": 1e-2}
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


def test_check_says_identical_within_or_beyond_tolerance():
    # the --check report of one run: identical bytes, a rounding move, a
    # changed status and a changed exit code
    row = {k: "x" for k in EXACT["report.jsonl"]} | {"residual": 1e-8, "ratio": 1e-2}
    golden = (0, json.dumps(row) + "\n")
    assert report("verify", golden, golden) == (["verify: identical"], True)
    nudged = row | {"residual": 1e-8 * (1 + 1e-6)}
    lines, ok = report("verify", golden, (0, json.dumps(nudged) + "\n"))
    assert ok and lines == [
        "verify: changed",
        "  x x: within tolerance; residual 1e-08 -> 1.000001e-08 (x1.000001), ratio 0.01 -> 0.01 (x1)",
    ]
    lines, ok = report("verify", golden, (1, json.dumps(row | {"status": "y"}) + "\n"))
    assert not ok and lines[0] == "verify: exit code 0 -> 1"
    assert lines[1].startswith("  x x: beyond tolerance (status); ")


def test_the_standard_set_runs_every_mutation():
    assert sorted(MUTATIONS) == sorted(argv[-1] for name, (argv, _) in RUNS.items() if "--mutate" in argv)
    assert set(TIER1) <= set(RUNS)


@pytest.mark.parametrize("name", sorted(TIER1))
def test_default_run_matches_its_golden_report(name, tmp_path):
    code, text = run(name, tmp_path)
    golden = rows_of((GOLDEN / f"{name}.jsonl").read_text())
    moved = moved_rows(name, golden, rows_of(text))
    assert not moved, f"{name} moved from tests/golden:\n" + "\n".join(moved)
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
