r"""Identity catalog: every checked identity as a budgeted residual row.

Each entry evaluates one identity of the corrected-connection calculus on
one backend and reports the worst residual over its case sweep together
with a budget, a verdict, and the *expected* verdict.  Expectations
encode the analytically derived status of each identity on the tested
models: most rows are expected to pass, a small documented set is
expected to fail (see ``docs/identities.md``), and the adversarial
family gates are expected to fail by construction.  A run is clean when
every verdict matches its expectation; a non-finite case residual is an
``error`` and never matches.

The rows are data (`ROWS`): each gives its budgets, its case axes and the
residual of one case, which returns the sup of its error and the sup of
its scale (1.0 for an absolute residual).  One walk (`walk`) expands the
axes and divides once (`case_ratio`, scale floored at 1e-300), and `_row`
reduces the cases to the worst one.

Budgets follow the two error models of the backends:

* torus rows use absolute budgets (spectral/termwise-exact evaluation,
  difference quotients only in the parameter direction);
* chart rows use ``C * (eps_eff**2 + h**4)`` with per-identity constants
  ``C`` calibrated at grid 64 and checked against the measured
  convergence orders (``sweep_orders``); ``eps_eff`` is the step
  ``families.step_for(sigma, eps) = eps * (1 + |sigma|)`` that every
  parameter difference quotient takes.  A row passes the run's plain
  ``eps`` (``Case.eps``); ``step_for`` is the one place that scales it.

Mutation hooks flip the sign of a single term inside a chosen identity
(`MUTATIONS`); a healthy harness must then report a failure.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

from .bundle import (
    BundleData,
    bundle_data,
    bundle_levels,
    curvature_mm,
    curvature_tm,
    curvature_tt,
    level_potential,
    mm_commutator_residual,
    sec_plain_curl,
)
from .families import (
    ChartFamily,
    Family,
    TorusFamily,
    nonholo_family,
    nonrigid_family,
    rigid_family,
    step_for,
    variation,
    variation_tensors,
    vj_of,
)
from .fields import Array, ChartGrid, TorusGrid, max_norm
from .operators import (
    Point,
    TestSections,
    chart_sections,
    connection_agreement_residual,
    eq_defining_residual,
    eq_transfer_residual,
    frame_comparison_residuals,
    frame_curvature_data,
    levicivita_variation_residual,
    metric_variation_residual,
    operator_pullback_residual,
    param_commutator_curvature,
    pot_mixed,
    pot_mm,
    pot_tt,
    potential_fn,
    potential_oneform_residual,
    potential_variation_residual,
    projector_commutator_residual,
    section_on,
    torus_sections,
    trace_nabla,
)
from .theta import (
    connection_matrix,
    gram,
    gram_rank,
    heat_grid_residual,
    heat_mode_residual,
    loop_offscalar_levels,
    multiplier_residual,
    theta_basis,
    transport_levels,
)

# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

BACKENDS = ("torus", "chart", "both")
DIRS = (1.0, 1j)
CHART_COEFFS = {0: 0.1, 1: 0.15 + 0.1j}


def chart_family(grid: int) -> ChartFamily:
    """The catalog's chart family on a ``grid x grid`` chart."""
    return rigid_family(ChartGrid(grid), CHART_COEFFS)


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity set where the platform
    has one, else every CPU), at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class RunConfig:
    """One checked run configuration.

    ``jobs`` is the number of worker processes that walk the catalog
    (`run_catalog`), by default one per CPU this process may run on
    (`usable_cpus`); at 1 the run walks in this process.  ``radius`` is
    accepted (INI key and field) and has no effect: the benchmark's sweep
    workload still reads it, until a benchmark change drops that read."""

    backend: str = "both"  # one of BACKENDS
    grid: int = 64
    eps: float = 1e-4
    levels: tuple[int, ...] = (1, 3)
    taus: tuple[complex, ...] = (1j, 1 + 1j)
    sigma: complex = 0.1 + 0.05j
    radius: float = 0.35
    steps: int = 200
    mutate: str | None = None
    identities: tuple[str, ...] | None = None
    jobs: int = field(default_factory=usable_cpus)

    def __post_init__(self) -> None:
        for name in ("levels", "taus"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if self.identities is not None and not self.identities:
            raise ValueError("identities must not be empty: leave them unset to run every row")
        if min(self.levels) < 1:
            raise ValueError(f"levels must be at least 1, got {self.levels}")
        bad = [t for t in self.taus if not (np.isfinite(t) and complex(t).imag > 0)]
        if bad:
            raise ValueError(f"taus must be finite with Im tau > 0, got {bad}")
        if not np.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma}")
        if not (self.eps > 0 and np.isfinite(self.eps)):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        margin = ChartGrid.margin
        if self.backend != "torus" and self.grid <= 2 * margin:
            raise ValueError(
                f"chart grid {self.grid} leaves no interior: it needs more than "
                f"{2 * margin} points per axis"
            )
        if self.grid < 1:
            raise ValueError(f"torus grid {self.grid} needs at least 1 point per axis")
        if self.steps < 1:
            raise ValueError(f"steps must be at least one step, got {self.steps}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1 worker process, got {self.jobs}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {', '.join(BACKENDS)}, got {self.backend!r}")
        if self.mutate is not None and self.mutate not in MUTATIONS:
            raise ValueError(f"unknown mutation {self.mutate!r}; known: {', '.join(MUTATIONS)}")


# mutation name -> (identity, flip keyword)
MUTATIONS = {
    "defining-vj": ("defining_equation", "vj"),
    "defining-trace": ("defining_equation", "trace"),
    "transfer-omega": ("holomorphy_transfer", "omega"),
    "transfer-trace": ("holomorphy_transfer", "trace"),
    "transfer-rho": ("holomorphy_transfer", "rho"),
    "oneform-quad": ("potential_oneform", "quad"),
    "oneform-div": ("potential_oneform", "div"),
    "pullback-gradient": ("operator_pullback", "gradient"),
    "pullback-potential": ("operator_pullback", "potential"),
}


# ---------------------------------------------------------------------------
# evaluation environment (the families of one process)
# ---------------------------------------------------------------------------


class Env:
    """The families that the catalog rows of one process read: of the whole
    run at ``jobs = 1``, or of one worker process of a run (`run_catalog`).
    A process runs its rows in one thread.

    The family states have their own bounded cache (``Family.state``).
    Bundle data, test sections and case points are not kept here: a `walk`
    makes them and drops them as it moves on.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._families: dict[str, Family] = {}

    def family(self, backend: str) -> Family:
        fam = self._families.get(backend)
        if fam is None:
            if backend == "torus":
                fam = TorusFamily(TorusGrid(self.cfg.grid))
            else:
                fam = chart_family(self.cfg.grid)
            self._families[backend] = fam
        return fam

    def params(self, backend: str) -> tuple[complex, ...]:
        return self.cfg.taus if backend == "torus" else (self.cfg.sigma,)

    def flip(self, identity: str) -> str | None:
        m = self.cfg.mutate
        if m is None:
            return None
        target, flip = MUTATIONS[m]
        return flip if target == identity else None


# ---------------------------------------------------------------------------
# one case of a row
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One point of a row's case axes; unused axes stay ``None`` (level 0).

    ``eps`` is the run's plain parameter step (`families.step_for` scales it
    at the parameter) and ``flip`` the mutation flip of the case's row.
    ``point`` holds the ingredients of u(V) at the case (`operators.Point`)
    for the rows that read them.  Whoever makes the case makes the point
    and drops it when it moves on: a `walk` at each ``(p, v)``, which every
    point row of the walk reads there, and a sweep step at each step, which
    the four identities of the step read."""

    env: Env
    backend: str
    eps: float
    flip: str | None
    p: complex | None = None  # parameter: a tau on the torus, sigma on the chart
    k: int = 0  # level
    v: complex | None = None  # direction
    s: Array | None = None  # test sections at (p, k): a batch (m, n, n) or one (n, n)
    bd: BundleData | None = None  # bundle data at (p, k), given with k or s
    point: Point | None = None  # the ingredients of u(V), for the point rows
    defects: tuple[float, ...] = ()  # holomorphy defects of s, given with s by a walk

    @property
    def fam(self) -> Family:
        return self.env.family(self.backend)

    @property
    def mask(self) -> Array:
        return self.fam.grid.interior()


def case_ratio(err, scale) -> Array:
    """The one division of every case: ``err / scale`` with the scale floored
    at 1e-300, so ``0/0`` reads 0 and a NaN on either side stays NaN."""
    return err / np.maximum(scale, 1e-300)


def _rel(val: Array, target: Array, mask: Array) -> tuple[float, float]:
    return max_norm(val - target, mask), max_norm(target, mask)


def _spread(vals: Array, mask: Array) -> float:
    vals = np.broadcast_to(vals, vals.shape[:-2] + mask.shape)[mask]
    return float(np.max(np.abs(vals - np.mean(vals))))


def _family_gates(c: Case) -> tuple[list[float], float]:
    var = variation(c.fam, c.p, c.v, c.eps)
    return [
        var.anticommute_residual,
        var.symmetry_residual,
        var.holomorphy_residual,
        var.rigidity_residual,
    ], 1.0


def _prequantum_curvature(c: Case) -> tuple[float, float]:
    # chart-only: the gauge potential there is a smooth numeric field whose
    # finite-difference curl genuinely re-derives the curvature; on the torus
    # the potential is linear in the fibre coordinate (not FD-differentiable
    # across the periodic wrap) and the same content is covered by
    # ``curvature_base``, whose correction term vanishes there.
    st = c.fam.state(c.p)
    curl = sec_plain_curl(st, level_potential(st, c.k))
    return _rel(curl, -1j * c.k * st.omega[0, 1], c.mask)


def _base_target(c: Case) -> Array:
    st = c.fam.state(c.p)
    return -1j * c.k * st.omega[0, 1] + 0.5j * st.rho[0, 1]


def _curvature_mixed_trace(c: Case) -> tuple[float, float]:
    st = c.fam.state(c.p)
    ctm = curvature_tm(c.fam, c.p, c.v, c.eps)
    Gt, _ = variation_tensors(st, vj_of(c.fam, c.p, c.v, c.eps))
    rhs = 0.25j * np.einsum("b...,ba...->a...", trace_nabla(st, Gt), st.omega)
    return max_norm(ctm - rhs, c.mask), max(max_norm(rhs, c.mask), max_norm(ctm, c.mask))


def _curvature_mixed_potential(c: Case) -> tuple[float, float]:
    ctm = curvature_tm(c.fam, c.p, c.v, c.eps)
    pm = pot_mixed(c.fam, potential_fn(c.fam, "ricci"), c.p, c.v, c.eps)
    return max_norm(ctm + pm, c.mask), max(max_norm(ctm, c.mask), max_norm(pm, c.mask))


def _curvature_param_commutator(c: Case) -> tuple[float, float]:
    ctt = curvature_tt(c.fam, c.p, c.eps)
    rhs = param_commutator_curvature(c.fam, c.p, c.eps)
    return max_norm(ctt - rhs, c.mask), max_norm(ctt, c.mask)


def _halfform_trace(c: Case) -> tuple[float, float]:
    tr = np.einsum("aa...->...", frame_curvature_data(c.fam, c.p, c.eps)[0])
    ctt = curvature_tt(c.fam, c.p, c.eps)
    return max_norm(-0.5 * tr - ctt, c.mask), max_norm(ctt, c.mask)


def _potential_constancy_corrected(c: Case) -> tuple[float, float]:
    ptt = pot_tt(potential_fn(c.fam, "ricci"), c.p, c.eps)
    return _spread(ptt + curvature_tt(c.fam, c.p, c.eps), c.mask), 1.0


def _reduction(c: Case, which: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The three curvature blocks of the reduction at one parameter."""
    st = c.fam.state(c.p)
    Ff = potential_fn(c.fam, which)
    # surface-surface block (relative: the target grows with the level)
    pmm = pot_mm(c.fam, Ff, c.p)
    out = [
        _rel(curvature_mm(bd), -1j * bd.k * st.omega[0, 1] - pmm, c.mask)
        for bd in bundle_levels(c.fam, c.p, c.env.cfg.levels)
    ]
    # mixed block (absolute)
    for v in DIRS:
        ctm = curvature_tm(c.fam, c.p, v, c.eps)
        out.append((max_norm(ctm + pot_mixed(c.fam, Ff, c.p, v, c.eps), c.mask), 1.0))
    # parameter-parameter block (absolute)
    ctt = curvature_tt(c.fam, c.p, c.eps)
    out.append((max_norm(ctt + pot_tt(Ff, c.p, c.eps), c.mask), 1.0))
    return tuple(zip(*out))  # the errors and the scales


# The comparison rows take the Ricci potential by default: the canonical one
# solving the curvature equation, which on the torus is the flat potential
# (the pluriharmonic representative), since `make_state` normalizes F to 0.
def _frame_comparison(c: Case, which: str = "ricci") -> tuple[tuple[float, float], float]:
    Ff = potential_fn(c.fam, which)
    return frame_comparison_residuals(c.fam, Ff, c.p, c.v, c.eps), 1.0


def _gram_rank(c: Case) -> tuple[list[float], list[float]]:
    G = gram(c.fam.grid, c.p, theta_basis(c.fam.grid, c.k, c.p))
    golden = np.sqrt(2.0 * np.pi / c.k)
    return [
        0.0 if gram_rank(G) == c.k else 1.0,
        float(np.max(np.abs(G - golden * np.eye(c.k)))),
    ], [1.0, golden]


def _transport_oracle(c: Case) -> tuple[list[float], float]:
    # one pass along the path for every level; per level, the deviation from
    # the self-transport oracle and the norm drift
    levels = c.env.cfg.levels
    starts = {k: np.eye(k) for k in levels}
    res = transport_levels(c.fam, starts, (1j, 1 + 1j), steps=c.env.cfg.steps)
    out = []
    for k in levels:
        out += [float(np.max(np.abs(res[k].end - res[k].start))), res[k].norm_drift]
    return out, 1.0


def _loop_offscalar(c: Case) -> tuple[list[float], float]:
    levels = c.env.cfg.levels
    offs = loop_offscalar_levels(c.fam, levels, 1j, 0.01, steps=max(c.env.cfg.steps // 2, 50))
    return [offs[k][0] for k in levels], 1.0


# ---------------------------------------------------------------------------
# the row table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    """One identity of the catalog as data.

    ``budgets`` maps each backend the row runs on to its budget constant
    (absolute on the torus, ``C`` of ``C * (eps_eff**2 + h**4)`` on the
    chart; see `budget_for`).  ``axes`` names the case axes, nested in
    this order: ``p`` the parameter (``taus`` on the torus, ``sigma`` on
    the chart), ``k`` the level (the configured levels; level 0 without
    this axis), ``v`` the direction in `DIRS`, and ``s`` every test
    section at ``(p, k)`` or ``f`` only the first one, passed as one batch
    with their holomorphy defects.
    A case with a level or sections carries the bundle data at ``(p, k)``;
    without axes the row has one case (the transport rows walk one path for
    every level).  ``residual(case)`` returns ``(err, scale)``, the error and
    scale sups of one residual or of several (lists, or one per section).
    ``fails`` lists the backends on which the row is expected to fail; a
    ``k_cubic`` row's chart budget grows with the cube of the level.  A
    ``point`` row reads the case's `operators.Point`; the point rows of one
    `walk` read one point per ``(p, k, v)`` and section axis, so they share
    its ingredients.
    """

    identity: str
    budgets: dict[str, float]
    axes: str
    residual: Callable[[Case], tuple]
    fails: tuple[str, ...] = ()
    note: str = ""
    k_cubic: bool = False
    point: bool = False

    @property
    def section_axis(self) -> str | None:
        """``'s'`` (every test section), ``'f'`` (the first) or None."""
        return "s" if "s" in self.axes else "f" if "f" in self.axes else None

    def cases(self, env: Env, backend: str) -> list[tuple[float, int]]:
        """Every case residual of this row on ``backend`` with its level."""
        return walk(env, backend, (self,))[self.identity]


def _kept(store: dict, key, build: Callable):
    """``store[key]``, built on its first use."""
    if key not in store:
        store[key] = build()
    return store[key]


def walk(env: Env, backend: str, rows: Iterable[Row]) -> dict[str, list[tuple[float, int]]]:
    """Every case residual of ``rows`` on ``backend`` with its level, per
    identity, in each row's own ``(p, k, v)`` order: the one expansion of
    the case axes (`walk_part` over every level, `merged`)."""
    return merged(walk_part(env, backend, rows))


def walk_part(env: Env, backend: str, rows: Iterable[Row], level: int | None = None) -> dict[str, list]:
    """The cases of ``rows`` on ``backend`` per identity, each case as
    ``((ip, ik, iv), residuals, k)`` with its place in the whole walk.

    With ``level`` the walk covers one part of the whole: at a level of
    the run, the rows with a ``k`` axis at that level only; at 0, the rows
    without one.  The keys are those of the whole walk, so `merged` puts
    the cases of its parts in its order.

    Per parameter ``p`` the walk builds the bundle data and the test
    sections of each level once, as the rows first ask for them.  Per
    ``(p, v)`` it makes one member-direction `operators.Point` and one
    section point per ``(k, section axis)`` that reads it (``shared``), as
    the point rows first ask for them; every point row reads these points.
    Each is dropped when the walk moves on.  A row without a ``p`` or ``v``
    axis is evaluated at the first ``p`` or ``v`` only.
    """
    if level is not None:
        rows = [row for row in rows if _in_part(row, level)]
    rows = tuple(rows)
    fam, eps, levels = env.family(backend), env.cfg.eps, env.cfg.levels
    solve = torus_sections if backend == "torus" else chart_sections
    found: dict[str, list] = {row.identity: [] for row in rows}  # (order, residuals, k)
    for ip, p in enumerate(env.params(backend)):
        bds: dict[int, BundleData] = {}
        secs: dict[int, TestSections] = {}
        for iv, v in enumerate(DIRS):
            points: dict = {}  # None: the member-direction point; (k, axis): a section point
            for row in rows:
                ax, axis = row.axes, row.section_axis
                if ("p" not in ax and ip) or ("v" not in ax and iv):
                    continue
                for ik, k in enumerate(levels) if "k" in ax else ((0, 0),):
                    if level and k != level:
                        continue
                    s = bd = pt = None
                    defects = ()
                    if axis or "k" in ax:
                        bd = _kept(bds, k, lambda: bundle_data(fam, p, k))
                    if axis:
                        sec = _kept(secs, k, lambda: solve(bd))
                        n = 1 if axis == "f" else None
                        s, defects = sec.values[:n], sec.defects[:n]
                    if row.point:
                        pt = _kept(points, None, lambda: Point(fam, p, v, eps))
                        if axis:
                            pt = _kept(points, (k, axis), lambda m=pt: Point(fam, p, v, eps, bd, s, m))
                    r = row.residual(Case(
                        env, backend, eps, env.flip(row.identity),
                        p if "p" in ax else None, k, v if "v" in ax else None, s, bd, pt, defects,
                    ))
                    found[row.identity].append(((ip, ik, iv), np.ravel(case_ratio(*r)).tolist(), k))
    return found


def _in_part(row: Row, level: int) -> bool:
    """Whether ``row`` walks in the part at ``level`` of its walk (`walk_part`)."""
    return ("k" in row.axes) == (level > 0)


def merged(*parts: dict[str, list]) -> dict[str, list[tuple[float, int]]]:
    """The cases of the `walk_part` parts of one walk per identity, each
    residual with its level, in the order of the whole walk."""
    keyed: dict[str, list] = {}
    for part in parts:
        for identity, cases in part.items():
            keyed.setdefault(identity, []).extend(cases)
    return {i: [(x, k) for _, r, k in sorted(cases) for x in r] for i, cases in keyed.items()}


TORUS, CHART = "torus", "chart"
ADVERSARIAL = "deliberately broken family must be flagged"

# Torus budgets: rows built from termwise-exact data carry the tight 1e-8;
# rows requiring nested parameter difference quotients (frame curvature and
# the corrected comparison rows) sit at the eps^2 floor and carry 5e-7/1e-6.
# Chart constants are three times the worst residual measured at grid 64,
# rounded up (see docs/identities.md).  The k-cubic rows are the chart
# section residuals whose floor grows cubically with the level (worst
# residual / k^3 is level-independent within a factor of a few, k = 1..5).
ROWS: dict[str, Row] = {
    r.identity: r
    for r in (
        Row("family_gates", {TORUS: 1e-6, CHART: 30.0}, "pv", _family_gates),
        Row(
            "family_holomorphy_gate_adversarial", {CHART: 30.0}, "p",
            lambda c: (variation(
                nonholo_family(ChartGrid(c.env.cfg.grid)), c.p, 1.0, c.eps
            ).holomorphy_residual, 1.0),
            fails=(CHART,), note=ADVERSARIAL,
        ),
        Row(
            "family_rigidity_gate_adversarial", {CHART: 30.0}, "p",
            lambda c: (variation(
                nonrigid_family(ChartGrid(c.env.cfg.grid)), c.p, 1.0, c.eps
            ).rigidity_residual, 1.0),
            fails=(CHART,), note=ADVERSARIAL,
        ),
        Row(
            "metric_variation", {TORUS: 1e-8, CHART: 10.0}, "pv",
            lambda c: metric_variation_residual(c.fam, c.p, c.v, c.eps),
        ),
        Row(
            "levicivita_variation", {TORUS: 1e-8, CHART: 1.0}, "pv",
            lambda c: levicivita_variation_residual(c.fam, c.p, c.v, c.eps),
        ),
        Row(
            "projector_commutator", {TORUS: 1e-8, CHART: 1.0}, "pv",
            lambda c: projector_commutator_residual(c.fam, c.p, c.v, c.eps),
        ),
        Row("prequantum_curvature", {CHART: 1.0}, "pk", _prequantum_curvature),
        Row(
            "curvature_base", {TORUS: 1e-8, CHART: 1.0}, "pk",
            lambda c: _rel(curvature_mm(c.bd), _base_target(c), c.mask),
        ),
        Row(
            "curvature_base_probe", {TORUS: 1e-8, CHART: 210.0}, "pkf",
            lambda c: mm_commutator_residual(c.bd, c.s, _base_target(c)),
            k_cubic=True,
        ),
        Row("curvature_mixed_trace", {TORUS: 1e-8, CHART: 1.0}, "pv", _curvature_mixed_trace),
        Row(
            "curvature_mixed_potential", {TORUS: 1e-8, CHART: 1.0}, "pv",
            _curvature_mixed_potential,
        ),
        Row(
            "curvature_param_vanishing", {TORUS: 1e-8, CHART: 10.0}, "p",
            lambda c: (max_norm(curvature_tt(c.fam, c.p, c.eps), c.mask), 1.0),
            fails=(TORUS, CHART),
            note=(
                "parameter-parameter curvature is measurably nonzero "
                "(torus: R(d1,d2) = -i/(4 Im tau^2)); "
                "the commutator form of the same block passes"
            ),
        ),
        Row(
            "curvature_param_commutator", {TORUS: 1e-6, CHART: 10.0}, "p",
            _curvature_param_commutator,
        ),
        Row(
            "frame_curvature", {TORUS: 1e-6, CHART: 10.0}, "p",
            lambda c: frame_curvature_data(c.fam, c.p, c.eps)[1:],
        ),
        Row("halfform_trace", {TORUS: 1e-6, CHART: 10.0}, "p", _halfform_trace),
        Row(
            "potential_variation", {TORUS: 1e-8, CHART: 1.0}, "pv",
            lambda c: potential_variation_residual(c.point), point=True,
        ),
        Row(
            "potential_oneform", {TORUS: 1e-8, CHART: 10.0}, "pv",
            lambda c: potential_oneform_residual(c.point, flip=c.flip), point=True,
        ),
        Row(
            "potential_constancy", {TORUS: 1e-8, CHART: 10.0}, "p",
            lambda c: (_spread(pot_tt(potential_fn(c.fam, "ricci"), c.p, c.eps), c.mask), 1.0),
            fails=(CHART,),
            note=(
                "the parameter-hessian of the potential family varies over the "
                "surface; adding the parameter-parameter curvature makes it "
                "constant (corrected row)"
            ),
        ),
        Row(
            "potential_constancy_corrected", {TORUS: 1e-8, CHART: 10.0}, "p",
            _potential_constancy_corrected,
        ),
        Row(
            # on the torus the Ricci potential is the flat (pluriharmonic) choice
            "curvature_reduction", {TORUS: 1e-8, CHART: 10.0}, "p",
            lambda c: _reduction(c, "ricci"),
            fails=(TORUS,),
            note=(
                "with the pinned pluriharmonic potential the parameter-parameter "
                "block of the reduction fails by the nonzero parameter curvature; "
                "the corrected row absorbs it"
            ),
        ),
        Row(
            "curvature_reduction_corrected", {TORUS: 5e-7}, "p",
            lambda c: _reduction(c, "log-imtau"),
        ),
        Row(
            "defining_equation", {TORUS: 1e-8, CHART: 60.0}, "pkvs",
            lambda c: eq_defining_residual(c.point, flip=c.flip),
            k_cubic=True, point=True,
        ),
        Row(
            "holomorphy_transfer", {TORUS: 1e-8, CHART: 300.0}, "pkvs",
            lambda c: eq_transfer_residual(c.point, flip=c.flip),
            k_cubic=True, point=True,
        ),
        Row(
            "divergence_closedness", {TORUS: 1e-8, CHART: 8000.0}, "pvs",
            lambda c: eq_transfer_residual(c.point), point=True,
        ),
        Row(
            "frame_comparison", {TORUS: 1e-8, CHART: 1.0}, "pv", _frame_comparison,
            fails=(TORUS,),
            note=(
                "with the flat potential the parameter part of the frame "
                "comparison misses the non-closed form -i v/(4 Im tau); its curl "
                "is exactly the nonzero parameter-parameter curvature"
            ),
        ),
        Row(
            "frame_comparison_corrected", {TORUS: 5e-7}, "pv",
            lambda c: _frame_comparison(c, "log-imtau"),
        ),
        Row(
            "operator_pullback", {TORUS: 1e-8, CHART: 10.0}, "pkvf",
            lambda c: operator_pullback_residual(c.point, flip=c.flip), point=True,
        ),
        Row(
            "connection_agreement", {TORUS: 1e-8, CHART: 10.0}, "pkvf",
            lambda c: connection_agreement_residual(c.point), point=True,
            fails=(TORUS,),
            note=(
                "same obstruction as frame_comparison: with the flat potential the "
                "operator difference equals 1/(4 Im tau) in direction v = 1 and "
                "cancels to the sigma-difference floor in direction v = i"
            ),
        ),
        Row(
            "connection_agreement_corrected", {TORUS: 5e-7}, "pkvf",
            lambda c: connection_agreement_residual(c.point, "log-imtau"), point=True,
        ),
        Row(
            "basis_multiplier", {TORUS: 1e-8}, "pk",
            lambda c: ([multiplier_residual(c.fam.grid, c.k, c.p, j) for j in range(c.k)], 1.0),
        ),
        Row(
            # torus: one case per basis (its worst element); chart: one per section
            "basis_holomorphy", {TORUS: 1e-8, CHART: 10.0}, "pks",
            lambda c: (max(c.defects) if c.backend == TORUS else c.defects, 1.0),
        ),
        Row("gram_rank", {TORUS: 1e-8}, "pk", _gram_rank),
        Row(
            "heat_mode", {TORUS: 1e-12}, "pk",
            lambda c: ([heat_mode_residual(c.k, c.p), heat_grid_residual(c.fam.grid, c.k, c.p)], 1.0),
        ),
        Row(
            "projection_defect", {TORUS: 1e-8}, "pkv",
            lambda c: (connection_matrix(c.fam, c.bd, c.v).defect, 1.0),
        ),
        # one case each: a single pass along the path covers every level
        Row("transport_oracle", {TORUS: 1e-6}, "", _transport_oracle),
        Row("loop_offscalar", {TORUS: 1e-6}, "", _loop_offscalar),
    )
}


def budget_for(
    identity: str, backend: str, env: Env, k: int | None = None
) -> float:
    row = ROWS[identity]
    b = row.budgets[backend]
    if backend == "torus":
        return b
    eps_eff = step_for(env.cfg.sigma, env.cfg.eps)
    scale = eps_eff**2 + ChartGrid(env.cfg.grid).h ** 4
    if row.k_cubic and k:
        return b * max(int(k), 1) ** 3 * scale
    return b * scale


# ---------------------------------------------------------------------------
# registry and execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    """One row on one backend; ``runner(env, backend)`` returns its case
    residuals as ``(residual, level)`` pairs."""

    identity: str
    backend: str
    runner: Callable[[Env, str], list]


REGISTRY = tuple(Entry(r.identity, b, r.cases) for r in ROWS.values() for b in r.budgets)
IDENTITY_NAMES = tuple(sorted(ROWS))


def _row(entry: Entry, env: Env) -> dict:
    row = ROWS[entry.identity]
    pairs = [
        (r, budget_for(entry.identity, entry.backend, env, k))
        for r, k in entry.runner(env, entry.backend)
    ]
    nonfinite = [rb for rb in pairs if not math.isfinite(rb[0])]
    if not pairs:  # a row without cases measured nothing
        nonfinite = [(math.nan, budget_for(entry.identity, entry.backend, env))]
    if nonfinite:  # the first non-finite case is shown; it can neither pass nor fail
        (residual, budget), verdict = nonfinite[0], "error"
    else:
        residual, budget = max(pairs, key=lambda rb: rb[0] / rb[1])
        verdict = "pass" if residual / budget <= 1.0 else "fail"
    ratio = residual / budget
    expected = "fail" if entry.backend in row.fails else "pass"
    return {
        "identity": entry.identity,
        "backend": entry.backend,
        "cases": len(pairs),
        "residual": float(residual),
        "budget": float(budget),
        "ratio": float(ratio),
        "verdict": verdict,
        "expected": expected,
        "status": "ok" if verdict == expected else "unexpected",
        "note": row.note,
    }


def select_entries(cfg: RunConfig) -> list[Entry]:
    backends = ("torus", "chart") if cfg.backend == "both" else (cfg.backend,)
    chosen = [e for e in REGISTRY if e.backend in backends]
    if cfg.identities:
        unknown = set(cfg.identities) - set(IDENTITY_NAMES)
        if unknown:
            raise ValueError(f"unknown identities: {sorted(unknown)}")
        chosen = [e for e in chosen if e.identity in cfg.identities]
    if not chosen:
        raise ValueError(f"no catalog row of {list(cfg.identities)} on backend {cfg.backend}")
    target = cfg.mutate and MUTATIONS[cfg.mutate][0]
    if target and all(e.identity != target for e in chosen):
        raise ValueError(f"mutation {cfg.mutate!r} flips {target}, which this run does not select")
    return chosen


_worker_env: Env | None = None  # in a pool worker: the Env its tasks share


def _start_worker(cfg: RunConfig) -> None:
    global _worker_env
    _worker_env = Env(cfg)


def _walk_task(backend: str, identities: tuple[str, ...], level: int) -> dict[str, list]:
    """One task of a pool worker: a `walk_part` on the worker's `Env`."""
    return walk_part(_worker_env, backend, [ROWS[i] for i in identities], level)


def _task_order(task: tuple) -> tuple:
    """The key that submits the longest pool tasks first: the transport rows,
    then the chart parts (least-squares sections on full grids), then the
    torus parts; within a backend, more rows first, then the higher level."""
    _, backend, ids, level = task
    return bool(ROWS[ids[0]].axes), backend != CHART, -len(ids), -level


def _walk_in_workers(cfg: RunConfig, jobs: list[list[Entry]]) -> list[dict] | None:
    """The cases of each job, as `walk` gives them, walked by ``cfg.jobs``
    forked worker processes; None where the platform cannot fork.

    A task is one job at one level part (`walk_part`): level 0 and each
    level of the run, where the job has rows, the longest first
    (`_task_order`); results are gathered in walk order, so an error of
    several tasks is the one a run in one process raises first.  Each
    worker builds one `Env` and walks its tasks on it; only the backend,
    the identities and the level go to a worker, and the keyed cases come
    back.  The pool is shut down, its processes joined, before this returns
    or raises.
    """
    import multiprocessing  # here: a run in one process does not pay for the import
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    tasks = [
        (j, job[0].backend, ids, level)
        for j, job in enumerate(jobs)
        for level in (0, *dict.fromkeys(cfg.levels))
        if (ids := tuple(e.identity for e in job if _in_part(ROWS[e.identity], level)))
    ]
    pool = ProcessPoolExecutor(
        min(cfg.jobs, len(tasks)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(cfg,),
    )
    try:
        futures = {task: pool.submit(_walk_task, *task[1:]) for task in sorted(tasks, key=_task_order)}
        parts: list[list] = [[] for _ in jobs]
        for task in tasks:
            parts[task[0]].append(futures[task].result())
    finally:
        pool.shutdown(cancel_futures=True)
    return [merged(*part) for part in parts]


def run_catalog(cfg: RunConfig) -> list[dict]:
    """Evaluate the selected catalog rows; deterministic, sorted output.

    The rows with case axes of a backend form one job, which walks their
    cases together, so that they read one set of bundle data and test
    sections per ``(p, k)`` and one point per case coordinate; each row
    without axes (the transport rows) is a job of its own.  The jobs keep
    the registry's order, a group at the place of its first row: a default
    run has 4.  At ``cfg.jobs`` 1, or where the platform cannot fork, each
    job is one `walk` in this process.  Otherwise worker processes walk the
    jobs by level part (`_walk_in_workers`): a default run has 8 tasks, 3
    per backend and one per transport row.  Either way every row's cases
    go to `_row` in this process, as its runner's.
    """
    env = Env(cfg)
    jobs: dict = {}  # the rows with axes by backend, every other entry by itself
    for e in select_entries(cfg):
        jobs.setdefault(e.backend if ROWS[e.identity].axes else e, []).append(e)
    groups = list(jobs.values())
    walked = _walk_in_workers(cfg, groups) if cfg.jobs > 1 else None
    if walked is None:
        walked = [walk(env, job[0].backend, [ROWS[e.identity] for e in job]) for job in groups]
    rows = [
        _row(replace(e, runner=lambda *_, c=cases[e.identity]: c), env)
        for job, cases in zip(groups, walked)
        for e in job
    ]
    return sorted(rows, key=lambda r: (r["identity"], r["backend"]))


# ---------------------------------------------------------------------------
# convergence-order sweeps
# ---------------------------------------------------------------------------

SWEEPABLE = (
    "defining_equation",
    "holomorphy_transfer",
    "operator_pullback",
    "connection_agreement",
)


def sweep_orders(
    identities: Iterable[str],
    grids: tuple[int, ...] = (64, 128),
    eps_pair: tuple[float, float] = (0.1, 0.05),
    k: int = 1,
    radius: float = 0.35,
    sigma: complex = 0.1 + 0.05j,
    eps: float = 1e-4,
) -> list[dict]:
    r"""Measured convergence orders on the chart backend.

    Each grid gets one `Env`, and each parameter step one `Case`, shared
    by every identity: the base step on every grid, then each eps step of
    the pair on the finest grid, on the same family, section and bundle
    data.  Each step makes its own `operators.Point` and passes it with its
    case, so the identities of the step read one set of ingredients
    (``G(V)``, ``H(V)``, divergences, :math:`\nabla s`,
    :math:`\Delta_{G(V)} s`, :math:`\Delta_{G(V)}(m s)`, ...), built once
    per step; the point is freed with its case before the next step builds
    its own, as a catalog `walk` frees its points.  Once a step's rows are
    evaluated the family forgets every state but the centre member
    ``sigma`` (`Family.drop_states`): the neighbours of a finished step are
    never read again, while the centre, whose symbols every step reads, is
    built once per grid.
    The grid sweep keeps one *frozen* section (polynomial coefficients
    built once on the coarsest grid, re-evaluated exactly on the finer
    ones) so that the h-order is not masked by the section constructor
    picking a different kernel representative per grid.  The eps sweep uses
    parameter steps large enough that the :math:`\varepsilon^2`
    difference-quotient error dominates the :math:`h^4` floor.  Only one
    `Env` is alive at a time: keeping them all raises the peak memory.

    The inputs are checked before any work: sweepable identities, two or
    more grids in strictly increasing order (the first is the coarsest, the
    last the finest), an eps pair of two distinct steps, and a run
    configuration (grid with an interior, positive eps, level >= 1) for
    every point.  ``radius`` is accepted and has no effect, like
    ``RunConfig.radius``.
    """
    identities = tuple(identities)
    for identity in identities:
        if identity not in SWEEPABLE:
            raise ValueError(f"identity {identity!r} is not sweepable")
    if len(grids) < 2 or any(a >= b for a, b in zip(grids, grids[1:])):
        raise ValueError(
            f"an h order needs two or more distinct grids, coarsest first "
            f"(strictly increasing), got {tuple(grids)}"
        )
    if len(eps_pair) != 2 or eps_pair[0] == eps_pair[1]:
        raise ValueError(
            f"an eps order needs an eps pair of two distinct eps steps, got {eps_pair}"
        )
    e0, e1 = eps_pair
    base = RunConfig(backend="chart", eps=eps, sigma=sigma, radius=radius, levels=(k,))
    cfgs = [replace(base, grid=n) for n in grids]
    for e in eps_pair:  # an eps step the run configuration rejects raises here
        replace(base, eps=e)
    coeff = None
    res = []  # per configuration: identity -> residual
    for cfg in cfgs:
        env = Env(cfg)
        fam = env.family("chart")
        if coeff is None:  # the frozen section, from the coarsest grid
            coeff = chart_sections(bundle_data(fam, sigma, k)).coeff[0]
        s = section_on(fam.grid, coeff)
        bd = bundle_data(fam, sigma, k)
        for e in (eps,) + (tuple(eps_pair) if cfg is cfgs[-1] else ()):
            # one case per step, so one point: the identities share its
            # ingredients, and rebinding ``c`` frees the last step's point
            pt = Point(fam, sigma, 1.0, e, bd, s)
            c = Case(env, "chart", e, None, sigma, k, 1.0, s, bd, pt)
            res.append({i: float(case_ratio(*ROWS[i].residual(c))) for i in identities})
            fam.drop_states(keep=sigma)  # no later step reads this step's neighbours
        del env, fam, s, bd, c, pt  # free this Env before the next one is built
    rows: list[dict] = []
    for identity in identities:
        r = [at[identity] for at in res]
        # h-order at fixed small eps: (axis, pair, coarse, fine, step ratio)
        orders = [
            ("h", f"{grids[i]}->{grids[i+1]}", r[i], r[i + 1],
             (grids[i + 1] - 1) / (grids[i] - 1))
            for i in range(len(grids) - 1)
        ]
        # eps-order on the finest grid, where the h^4 floor is smallest
        orders.append(("eps", f"{e0}->{e1}", r[-2], r[-1], e0 / e1))
        rows += [
            {
                "identity": identity,
                "axis": axis,
                "pair": pair,
                "coarse": coarse,
                "fine": fine,
                "order": float(np.log(coarse / fine) / np.log(ratio)),
            }
            for axis, pair, coarse, fine, ratio in orders
        ]
    rows.sort(key=lambda r: (r["identity"], r["axis"], r["pair"]))
    return rows


# Below this residual an axis is considered resolved: the other error source
# dominates (or rounding does) and a convergence order cannot be measured.
SWEEP_FLOOR = 1e-8


def sweep_axis_ok(row: dict) -> bool:
    """Order threshold per axis, waived when the fine residual sits at the floor."""
    if row["fine"] <= SWEEP_FLOOR:
        return True
    threshold = 3.5 if row["axis"] == "h" else 1.9
    return row["order"] >= threshold
