"""The four benchmark workloads: inputs from a seed, one pass, output checks.

Each workload drives the program only through its public calls
(``run_catalog``, ``sweep_orders``, ``transport``, ``loop_offscalar``).
A pass returns one :class:`Op` per operation it attempted; an operation
fails when the checks here reject it, whatever verdict the program gave.

Why these workloads:

* ``catalog`` -- the default ``verify`` catalog at ``jobs=1`` without the two
  transport rows (58 rows, 273 cases at seed 0).  The warm-cache path: many
  ``Family.state`` lookups, few builds; chart least-squares sections dominate.
* ``catalog_par`` -- the same rows at ``jobs=2``, the only workload where the
  catalog's thread pool and the shared ``Env``/``Family`` caches are exercised.
* ``transport`` -- the catalog's ``transport_oracle`` and ``loop_offscalar``
  rows with fewer steps: transport at k = 1, 3 with 25 RK4 steps, then a
  25-step loop of radius 0.01, on a 64^2 torus.  Every parameter point is
  new, so state construction, theta sums and connection-matrix assembly do
  the work.  The default 200 + 100 steps take 25-35 s per pass on a 2-core
  machine, too long for the several passes a run needs; 25 is the fewest
  steps at which each call still visits more parameter points than
  ``Family.state`` keeps (48), so, as in the default rows, level 3 reuses
  no state of level 1.
* ``sweep`` -- ``sweep_orders`` over the sweepable identities with the CLI
  defaults (grids 64 -> 128, eps pair (0.1, 0.05), k = 1): chart layers
  with no reuse and no torus work.

Seed 0 gives exactly the program's pinned defaults.  Other seeds draw the
torus parameters (catalog taus, transport path, loop centre) with
``Im tau`` in ``IM_BAND``; the chart parameter keeps its calibrated value,
so ``sweep`` has the same inputs for every seed.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

WORKLOADS = ("catalog", "catalog_par", "transport", "sweep")
TRANSPORT_ROWS = ("transport_oracle", "loop_offscalar")
LOOP_RADIUS = 0.01  # the catalog's loop_offscalar row
TRANSPORT_STEPS = 25  # the catalog rows use RunConfig.steps = 200
LOOP_STEPS = 25  # the catalog row uses steps // 2
TOL = 1e-6  # transport deviation, norm drift and loop off-scalar limit

# Im tau in [0.8, 1.0] keeps the theta lattice ranges (mode_range) of levels
# 1 and 3 at their seed-0 sizes, so every seed does the same work.  Budget
# ratios grow with |tau|: with Re tau in [-0.5, 1.0] the worst expected-pass
# torus row stays below 0.53 of its budget (0.34 at seed 0); at 1.25 + 0.8i
# holomorphy_transfer already fails.
IM_BAND = (0.8, 1.0)
RE_BANDS = ((-0.5, 0.5), (0.5, 1.0))  # first and second catalog tau


class ProgramMissing(RuntimeError):
    """The checkout holds no importable hitchinlab sources."""


@dataclass(frozen=True)
class Op:
    """One attempted operation: stable key, measured values, verdict of the checks."""

    key: str
    values: tuple
    ok: bool


def load_program(root: Path) -> dict:
    """Import every hitchinlab module from ``root/src``; short name -> module."""
    src = root / "src"
    if not (src / "hitchinlab" / "__init__.py").is_file():
        raise ProgramMissing(f"no hitchinlab sources under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("hitchinlab")
    if Path(pkg.__file__).resolve().parent != (src / "hitchinlab").resolve():
        raise ProgramMissing(f"hitchinlab imported from {pkg.__file__}, not {src}")
    mods = {"hitchinlab": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        if not info.name.startswith("_"):
            mods[info.name] = importlib.import_module(f"hitchinlab.{info.name}")
    return mods


@dataclass(frozen=True)
class Inputs:
    taus: tuple[complex, ...]
    path: tuple[complex, complex]
    center: complex


def draw_inputs(seed: int) -> Inputs:
    if seed == 0:
        return Inputs(taus=(1j, 1 + 1j), path=(1j, 1 + 1j), center=1j)
    rng = random.Random(seed)
    lo, hi = IM_BAND

    def tau(re_band, im_hi: float = hi) -> complex:
        return complex(rng.uniform(*re_band), rng.uniform(lo, im_hi))

    first, second = RE_BANDS
    start = tau((second[0] - 1.0, second[1] - 1.0))  # the end point is start + 1
    return Inputs(
        taus=(tau(first), tau(second)),
        path=(start, complex(start.real + 1.0, rng.uniform(lo, hi))),
        center=tau(first, hi - LOOP_RADIUS),
    )


def _finite(*xs) -> bool:
    return all(math.isfinite(float(x)) for x in xs)


class Workload:
    """Inputs of one workload and the pass that runs it."""

    def __init__(self, name: str, seed: int, mods: dict):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
        self.inputs = draw_inputs(seed)
        self.mods = mods
        catalog = mods["catalog"]
        self.defaults = catalog.RunConfig()
        if name in ("catalog", "catalog_par"):
            ids = tuple(i for i in catalog.IDENTITY_NAMES if i not in TRANSPORT_ROWS)
            self.cfg = replace(
                self.defaults,
                taus=self.inputs.taus,
                identities=ids,
                jobs=2 if name == "catalog_par" else 1,
            )
            self.case_check = CaseCheck(catalog)
        self.run_pass = {
            "catalog": self._catalog,
            "catalog_par": self._catalog,
            "transport": self._transport,
            "sweep": self._sweep,
        }[name]

    # -- passes --------------------------------------------------------------
    def _catalog(self) -> list[Op]:
        self.case_check.bad.clear()
        rows = self.mods["catalog"].run_catalog(self.cfg)
        bad = set(self.case_check.bad)
        ops = []
        for r in rows:
            key = f"{r['identity']}/{r['backend']}"
            ok = (
                r["status"] == "ok"
                and _finite(r["residual"], r["budget"], r["ratio"])
                and key not in bad
            )
            values = (r["cases"], r["residual"], r["budget"], r["verdict"])
            ops.append(Op(key, values, ok))
        return ops

    def _transport(self) -> list[Op]:
        fields, families, theta = (self.mods[m] for m in ("fields", "families", "theta"))
        d = self.defaults
        fam = families.TorusFamily(fields.TorusGrid(d.grid))
        ops = []
        for k in d.levels:
            res = theta.transport(fam, k, self.inputs.path, np.eye(k), steps=TRANSPORT_STEPS)
            dev = float(np.max(np.abs(res.end - res.start)))
            ops.append(Op(f"transport/k={k}", (dev, res.norm_drift), _within(dev, res.norm_drift)))
        for k in d.levels:
            off, _ = theta.loop_offscalar(
                fam, k, self.inputs.center, LOOP_RADIUS, steps=LOOP_STEPS
            )
            ops.append(Op(f"loop/k={k}", (off,), _within(off)))
        return ops

    def _sweep(self) -> list[Op]:
        catalog = self.mods["catalog"]
        d = self.defaults
        rows = catalog.sweep_orders(
            catalog.SWEEPABLE,
            grids=(64, 128),
            eps_pair=(0.1, 0.05),
            k=1,
            radius=d.radius,
            sigma=d.sigma,
            eps=d.eps,
        )
        return [
            Op(
                f"{r['identity']}/{r['axis']}/{r['pair']}",
                (r["coarse"], r["fine"], r["order"]),
                catalog.sweep_axis_ok(r) and _finite(r["coarse"], r["fine"]),
            )
            for r in rows
        ]


def _within(*xs) -> bool:
    return all(math.isfinite(x) and x <= TOL for x in xs)


class CaseCheck:
    """Records catalog rows with a non-finite case residual.

    A row reports only its worst case, and the worst-case ``max`` drops NaN
    cases, so the check wraps each row's runner (through the catalog's
    per-row function ``_row``) and inspects every case it returns.
    """

    def __init__(self, catalog):
        self.bad: list[str] = []
        self.active = False
        row = getattr(catalog, "_row", None)
        entries = getattr(catalog, "REGISTRY", ())
        if row is None or not entries or not all(hasattr(e, "runner") for e in entries):
            return
        bad = self.bad

        def checked_row(entry, env):
            runner = entry.runner

            def run(env_, backend):
                cases = runner(env_, backend)
                for item in cases:
                    r = item[0] if isinstance(item, tuple) else item
                    if not np.all(np.isfinite(r)):
                        bad.append(f"{entry.identity}/{entry.backend}")
                return cases

            return row(replace(entry, runner=run), env)

        catalog._row = checked_row
        self.active = True
