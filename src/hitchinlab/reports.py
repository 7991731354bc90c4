"""Deterministic run artifacts: JSON-lines, CSV, and console tables.

Rows are plain dicts; writers emit them with sorted JSON keys and a fixed
CSV column order, no timestamps or environment data, so repeated runs of
the same configuration with the same number of BLAS threads produce
bit-identical files.  The chart section solve rounds differently with
another thread count (the last digits of the chart rows that take its
sections, no verdict);
``OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1`` pins it.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Iterable

CATALOG_COLUMNS = (
    "identity",
    "backend",
    "cases",
    "residual",
    "budget",
    "ratio",
    "verdict",
    "expected",
    "status",
    "note",
)

SWEEP_COLUMNS = ("identity", "axis", "pair", "coarse", "fine", "order")


def write_jsonl(path: str, rows: Iterable[dict]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def write_csv(path: str, rows: list[dict], columns: tuple[str, ...]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c, "")) for c in columns])


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_catalog(rows: list[dict]) -> str:
    lines = []
    for r in rows:
        mark = r["verdict"].upper()  # PASS, FAIL or ERROR (a non-finite case)
        status = "" if r["status"] == "ok" else "   <-- unexpected"
        lines.append(
            f"[{mark}] {r['identity']:38s} {r['backend']:5s} "
            f"residual {r['residual']:.3e}  budget {r['budget']:.3e}  "
            f"({r['cases']} cases, expected {r['expected']}){status}"
        )
    n_bad = sum(r["status"] != "ok" for r in rows)
    lines.append(
        f"{len(rows)} rows: "
        f"{sum(r['verdict'] == 'pass' for r in rows)} pass, "
        f"{sum(r['verdict'] == 'fail' for r in rows)} fail "
        f"({sum(r['expected'] == 'fail' for r in rows)} expected), "
        f"{n_bad} unexpected"
    )
    return "\n".join(lines)


def format_sweep(rows: list[dict]) -> str:
    lines = []
    for r in rows:
        lines.append(
            f"{r['identity']:28s} {r['axis']:3s} {r['pair']:12s} "
            f"{r['coarse']:.3e} -> {r['fine']:.3e}   order {r['order']:.2f}"
        )
    return "\n".join(lines)
