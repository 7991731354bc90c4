from __future__ import annotations

import dataclasses
import importlib.util
import multiprocessing
import os
import sys
import time
import weakref
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitchinlab import catalog, families, operators
from hitchinlab.catalog import (
    IDENTITY_NAMES,
    MUTATIONS,
    REGISTRY,
    ROWS,
    RunConfig,
    SWEEPABLE,
    Case,
    Env,
    _row,
    budget_for,
    run_catalog,
    select_entries,
    sweep_axis_ok,
)
from hitchinlab.reports import (
    CATALOG_COLUMNS,
    format_catalog,
    format_sweep,
    write_csv,
    write_jsonl,
)


def test_registry_is_consistent():
    pairs = {(e.identity, e.backend) for e in REGISTRY}
    assert len(pairs) == len(REGISTRY)  # no duplicate rows
    assert set(IDENTITY_NAMES) == set(ROWS) == {e.identity for e in REGISTRY}
    env = Env(RunConfig(grid=48))
    for row in ROWS.values():
        assert set(row.budgets) <= {"torus", "chart"}
        assert {(row.identity, b) for b in row.fails} <= pairs  # expected-fail rows exist
        assert set(row.axes) <= set("pkvsf") and not {"s", "f"} <= set(row.axes)
        if row.k_cubic:
            assert "k" in row.axes
    for identity, backend in pairs:
        assert budget_for(identity, backend, env) > 0
    assert set(SWEEPABLE) <= set(IDENTITY_NAMES)
    for target, flip in MUTATIONS.values():
        assert target in set(IDENTITY_NAMES)
        assert isinstance(flip, str) and flip


def test_every_mutation_turns_its_row_unexpected():
    # the chart is the backend on which every flipped term shows; the chart
    # family is shared, only the mutation changes
    env = Env(RunConfig(backend="chart", levels=(1,)))
    entries = {e.identity: e for e in REGISTRY if e.backend == "chart"}
    assert _row(entries["defining_equation"], env)["status"] == "ok"
    for name, (target, _) in MUTATIONS.items():
        env.cfg = dataclasses.replace(env.cfg, mutate=name)
        row = _row(entries[target], env)
        assert (row["verdict"], row["status"]) == ("fail", "unexpected"), name


@pytest.mark.parametrize(
    "identity, backend", [("gram_rank", "torus"), ("connection_agreement", "torus")]
)
@pytest.mark.parametrize(
    "cases",
    [
        [(0.0, 0), (float("nan"), 0)],
        [(float("nan"), 0), (0.0, 0)],
        [(1.0, 1), (float("inf"), 3)],
        [],
    ],
    ids=["nan_last", "nan_first", "inf_with_level", "no_cases"],
)
def test_nonfinite_case_is_an_error(identity, backend, cases):
    # an expected-green and an expected-red row: neither may read ok, and
    # neither may a row that measured nothing
    entry = next(e for e in REGISTRY if (e.identity, e.backend) == (identity, backend))
    row = _row(dataclasses.replace(entry, runner=lambda e, b: cases), Env(RunConfig()))
    assert (row["verdict"], row["status"]) == ("error", "unexpected")
    assert row["cases"] == len(cases)
    text = format_catalog([row])
    assert "[ERROR]" in text and "<-- unexpected" in text and "1 unexpected" in text


@pytest.mark.parametrize(
    "err, scale, verdict, residual",
    [
        (1e-3, float("nan"), "error", float("nan")),
        (float("nan"), 1.0, "error", float("nan")),
        (0.0, 0.0, "pass", 0.0),
        (2e-9, 1e-9, "fail", 2.0),
    ],
    ids=["nan_scale", "nan_error", "zero_over_zero", "ratio"],
)
def test_driver_divides_each_case_once(err, scale, verdict, residual):
    # a stub residual through Row.cases and _row: a NaN scale stays NaN under
    # the floor (Python's max(nan, 1e-300) is nan but max(1e-300, nan) is
    # 1e-300), 0/0 reads 0 for now, and the ratio is err / scale
    key = ("curvature_param_commutator", "torus")
    stub = dataclasses.replace(ROWS[key[0]], residual=lambda c: (err, scale))
    env = Env(RunConfig(backend="torus"))
    cases = stub.cases(env, "torus")
    np.testing.assert_equal(cases, [(residual, 0)] * len(env.cfg.taus))
    entry = next(e for e in REGISTRY if (e.identity, e.backend) == key)
    row = _row(dataclasses.replace(entry, runner=stub.cases), env)
    assert (row["verdict"], row["cases"]) == (verdict, len(env.cfg.taus))
    np.testing.assert_equal(row["residual"], residual)


def test_bench_case_check_stays_active(monkeypatch):
    # bench/workloads.CaseCheck wraps catalog._row and reads REGISTRY[*].runner;
    # it switches itself off silently when one of them changes
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses resolve
    spec.loader.exec_module(workloads)
    monkeypatch.setattr(catalog, "_row", catalog._row)  # restored after the test
    check = workloads.CaseCheck(catalog)
    assert check.active
    entry = next(e for e in REGISTRY if (e.identity, e.backend) == ("gram_rank", "torus"))
    catalog._row(
        dataclasses.replace(entry, runner=lambda e, b: [(0.0, 0), (float("nan"), 0)]),
        Env(RunConfig()),
    )
    assert check.bad == ["gram_rank/torus"]


def _bench_workloads(monkeypatch):
    """``bench/workloads.py`` as a module; ``catalog._row`` is restored after the test."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses resolve
    spec.loader.exec_module(workloads)
    monkeypatch.setattr(catalog, "_row", catalog._row)
    return workloads


def test_bench_case_check_sees_every_walked_case(monkeypatch):
    """A run hands every case of a row that walks with its backend to the
    benchmark's `CaseCheck`: a NaN planted in ``gram_rank``, walked with
    the other torus rows, is recorded, and the row is an error; at two
    jobs too, where the planted row is walked in a forked worker process
    and its cases reach `_row` in this one."""
    check = _bench_workloads(monkeypatch).CaseCheck(catalog)
    nan = dataclasses.replace(ROWS["gram_rank"], residual=lambda c: ([0.0, float("nan")], 1.0))
    monkeypatch.setitem(ROWS, "gram_rank", nan)
    ids = ("gram_rank", "heat_mode", "basis_holomorphy")
    for jobs in (1, 2):
        check.bad.clear()
        rows = run_catalog(RunConfig(backend="torus", grid=16, identities=ids, jobs=jobs))
        assert check.active and set(check.bad) == {"gram_rank/torus"}, jobs
        assert [r["verdict"] for r in rows if r["identity"] == "gram_rank"] == ["error"]


CATALOG_IDS = tuple(i for i in IDENTITY_NAMES if i not in ("transport_oracle", "loop_offscalar"))


def _logged(log: Path, fn: Callable, line: Callable) -> Callable:
    """``fn``, which first appends ``line(*args)`` to the file ``log``: a
    count that forked worker processes add to as well."""

    def logged(*args):
        with open(log, "a") as f:
            f.write(line(*args) + "\n")
        return fn(*args)

    return logged


def test_a_pass_walks_each_backend_once(monkeypatch, tmp_path):
    """A catalog pass without the transport rows, at the default taus and
    levels, walks each backend once, with every selected row of it, and
    builds 3 chart and 6 torus test sections, one per ``(backend, p, k)`` at
    k = 0, 1 and 3.  At four worker processes, which count through a file,
    each backend walks in three parts, one per level part: the rows without
    a level at level 0, those with one at level 1 and at level 3.  The parts
    build the same 3 + 6 sections, and the rows are those of one worker."""
    walked, built = [], []
    walk = catalog.walk

    def counted_walk(env, backend, rows):
        rows = tuple(rows)
        walked.append((backend, sorted(r.identity for r in rows)))
        return walk(env, backend, rows)

    monkeypatch.setattr(catalog, "walk", counted_walk)
    for name in ("chart_sections", "torus_sections"):
        solve = getattr(catalog, name)
        monkeypatch.setattr(catalog, name, lambda bd, _f=solve, _n=name: built.append(_n) or _f(bd))
    cfg = RunConfig(grid=24, identities=CATALOG_IDS, jobs=1)
    want_rows = run_catalog(cfg)
    entries = select_entries(cfg)
    want = [(b, sorted(e.identity for e in entries if e.backend == b)) for b in ("chart", "torus")]
    assert sorted(walked) == want
    assert sorted(built) == ["chart_sections"] * 3 + ["torus_sections"] * 6

    walked.clear()
    log = tmp_path / "log"
    monkeypatch.setattr(catalog, "walk_part", _logged(
        log, catalog.walk_part,
        lambda env, backend, rows, level: f"walk {backend} {level} {' '.join(sorted(r.identity for r in rows))}",
    ))
    for name in ("chart_sections", "torus_sections"):
        monkeypatch.setattr(catalog, name, _logged(log, getattr(catalog, name), lambda bd, _n=name: _n))
    got = run_catalog(dataclasses.replace(cfg, jobs=4))
    lines = log.read_text().splitlines()
    parts = sorted(line.split()[1:] for line in lines if line.startswith("walk "))
    want_parts = sorted(
        [b, str(level), *(i for i in ids if ("k" in ROWS[i].axes) == (level > 0))]
        for b, ids in want
        for level in (0, 1, 3)
    )
    assert walked == [] and parts == want_parts
    assert sorted(line for line in lines if not line.startswith("walk ")) == sorted(built)
    assert got == want_rows


def test_a_worker_error_leaves_the_run_as_in_one_process(monkeypatch):
    """An exception raised in a walk leaves `run_catalog` with the type and
    message it has at one job also at two, where a forked worker raises it
    (the level-1 part, as the first case of one walk).  No worker process
    outlives a run at two jobs, whether it ends cleanly or raises."""
    ids = ("gram_rank", "heat_mode")
    cfg = RunConfig(backend="torus", grid=16, identities=ids, jobs=2)
    run_catalog(cfg)
    assert multiprocessing.active_children() == []

    def planted(c):
        raise ZeroDivisionError(f"planted at k={c.k}")

    monkeypatch.setitem(ROWS, "gram_rank", dataclasses.replace(ROWS["gram_rank"], residual=planted))
    raised = []
    for jobs in (1, 2):
        with pytest.raises(ZeroDivisionError) as err:
            run_catalog(dataclasses.replace(cfg, jobs=jobs))
        raised.append((type(err.value), str(err.value)))
        assert multiprocessing.active_children() == []
    assert raised == [(ZeroDivisionError, "planted at k=1")] * 2


def test_sweep_builds_each_configuration_once(monkeypatch):
    calls = {"sections": 0, "families": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(catalog, "chart_sections", counted("sections", catalog.chart_sections))
    monkeypatch.setattr(catalog, "rigid_family", counted("families", catalog.rigid_family))
    grids = (24, 32)
    rows = catalog.sweep_orders(SWEEPABLE, grids=grids)
    # one frozen section on the coarsest grid; one family per grid, which the
    # eps steps on the finest grid share
    assert calls == {"sections": 1, "families": len(grids)}
    assert len(rows) == len(SWEEPABLE) * len(grids)  # one h and one eps order each


def test_sweep_builds_one_set_of_ingredients_per_point(monkeypatch):
    """The four sweepable identities of a sweep step read one `Case.point`,
    so a 2-grid sweep (4 steps: the base eps on each grid, the eps pair on
    the finest) builds one ``G(V)`` and one ``H(V)`` per step: 4 each (16
    and 12 when every identity builds its own)."""
    calls = {"G_of": 0, "H_of": 0}
    _counted(calls, operators, monkeypatch)
    catalog.sweep_orders(SWEEPABLE, grids=(24, 32))
    assert calls == {"G_of": 4, "H_of": 4}


INGREDIENTS = (
    "VJ", "G", "dF", "H", "trace_G", "trace_G_rho", "m",
    "grad_s", "delta_plain", "delta_s", "delta_ms",
)


@pytest.mark.parametrize("mutated", [False, True])
def test_shared_point_gives_the_bits_of_a_fresh_point(mutated):
    """Each sweepable residual read through a point that the others have
    already read equals, byte for byte, the same residual on a fresh point,
    and so does every ingredient of the point, ``Delta_{G(V)} s`` and
    ``Delta_{G(V)}(m s)`` among them; whether the shared point builds
    its member-direction ingredients or reads them from a shared one;
    and after every mutation's flipped residual has read the shared point
    (``mutated``): a flipped term or ``H(V)`` is never stored."""
    env = Env(RunConfig(backend="chart", grid=24, levels=(1,)))
    sigma, k, eps, fam = env.cfg.sigma, 1, env.cfg.eps, env.family("chart")
    bd = catalog.bundle_data(fam, sigma, k)
    s = operators.chart_sections(bd).values[:1]

    def case(shared=None):
        return Case(env, "chart", eps, None, sigma, k, 1.0, s, bd,
                    operators.Point(fam, sigma, 1.0, eps, bd, s, shared))

    flipped = {
        "defining_equation": operators.eq_defining_residual,
        "holomorphy_transfer": operators.eq_transfer_residual,
        "potential_oneform": operators.potential_oneform_residual,
        "operator_pullback": operators.operator_pullback_residual,
    }
    for shared in (case(), case(operators.Point(fam, sigma, 1.0, eps))):
        if mutated:
            for identity, flip in MUTATIONS.values():
                flipped[identity](shared.point, flip=flip)
        got = {i: ROWS[i].residual(shared) for i in SWEEPABLE}
        for i in SWEEPABLE:
            for a, b in zip(got[i], ROWS[i].residual(case())):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), i
        fresh = case().point
        for name in INGREDIENTS:
            a, b = getattr(shared.point, name), getattr(fresh, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


POINT_ROWS = tuple(i for i, row in ROWS.items() if row.point)


def test_the_point_rows_are_the_rows_that_read_a_point():
    assert POINT_ROWS == (
        "potential_variation",
        "potential_oneform",
        "defining_equation",
        "holomorphy_transfer",
        "divergence_closedness",
        "operator_pullback",
        "connection_agreement",
        "connection_agreement_corrected",
    )
    for identity in POINT_ROWS:
        assert ROWS[identity].point and "v" in ROWS[identity].axes


WALK_CFG = RunConfig(grid=24, levels=(1, 2))


def on_fresh_point(row):
    """``row`` with every case on a point of its own, built from the case's
    coordinates alone."""

    def residual(c):
        pt = operators.Point(c.fam, c.p, c.v, c.eps, c.bd, c.s)
        return row.residual(dataclasses.replace(c, point=pt))

    return dataclasses.replace(row, residual=residual)


def walked_alone(cfg: RunConfig, identities=POINT_ROWS) -> dict:
    """The cases of each row of ``identities`` on each backend, the row
    walked alone and every case on a point of its own."""
    env = Env(cfg)
    return {
        (i, backend): catalog.walk(env, backend, (on_fresh_point(ROWS[i]),))[i]
        for i in identities
        for backend in ROWS[i].budgets
    }


@pytest.fixture(scope="module")
def alone_runs() -> dict:
    """`walked_alone` for every point row without a mutation."""
    return walked_alone(WALK_CFG)


@pytest.mark.parametrize("mutate", [None, *MUTATIONS])
def test_keyed_points_give_the_bits_of_fresh_points(mutate, alone_runs, monkeypatch):
    """Every case of the eight point rows, on both backends, the first
    section rows (``'f'``) included, reads the same bits in the walk of a
    backend's point rows together, from the walk's points (keyed by ``(k,
    section axis)`` at each ``(p, v)``), as in its row walked alone on
    points of its own; with a mutation, its row walks first, so every later
    row that shares its point would read a stored flip (the mutated row's
    reference is walked with the mutation).  While a case is evaluated, the
    walk holds one member-direction point and at most 5 section points,
    which read it; once the walk is done it holds none."""
    cfg = dataclasses.replace(WALK_CFG, mutate=mutate)
    target = mutate and MUTATIONS[mutate][0]
    want = {**alone_runs, **(walked_alone(cfg, (target,)) if target else {})}
    built, point = [], catalog.Point

    def tracked(*args):
        pt = point(*args)
        built.append(weakref.ref(pt))
        return pt

    def checked(residual):
        def run(c):
            alive = [pt for pt in (ref() for ref in built) if pt is not None]
            members = [pt for pt in alive if pt.shared is None]
            assert len(members) == 1 and len(alive) - 1 <= 5
            assert all(pt.shared is members[0] for pt in alive if pt is not members[0])
            return residual(c)

        return run

    monkeypatch.setattr(catalog, "Point", tracked)
    env = Env(cfg)
    rows = sorted((ROWS[i] for i in POINT_ROWS), key=lambda r: r.identity != target)
    for backend in ("torus", "chart"):
        walked = [dataclasses.replace(r, residual=checked(r.residual)) for r in rows if backend in r.budgets]
        got = catalog.walk(env, backend, walked)
        for r in walked:
            key = (r.identity, backend)
            assert np.array(got[r.identity]).tobytes() == np.array(want[key]).tobytes(), key
    assert built and all(ref() is None for ref in built)  # each point let go after the walk


def _counted(calls: dict, module, monkeypatch) -> None:
    for name in calls:
        fn = getattr(module, name)

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)


def test_catalog_builds_one_set_of_ingredients_per_member_and_direction(monkeypatch):
    """A catalog pass over the point rows at the default taus and levels
    builds ``G(V)`` and ``H(V)`` once per ``(backend, sigma, v)``: 6 each
    (74 and 50 when every row builds its own).  ``Delta_{G(V)}`` is applied
    50 times: to ``s`` at each of the 18 ``'s'`` section points, to ``s`` on
    the plain bundle and to ``m s`` at each of the 12 ``'f'`` ones, and at
    each of the 8 cases of the corrected agreement row, whose multiplier is
    its own (94 when every row applies its own)."""
    calls = {"G_of": 0, "H_of": 0, "delta_G": 0}
    _counted(calls, operators, monkeypatch)
    run_catalog(RunConfig(grid=24, identities=POINT_ROWS, jobs=1))
    assert calls == {"G_of": 6, "H_of": 6, "delta_G": 50}


def test_catalog_builds_bundle_data_once_per_walk_position(monkeypatch):
    """A catalog pass without the transport rows, at the default taus and
    levels, builds 9 bundle data, one per ``(backend, p, k)`` at k = 0, 1
    and 3, which every row of the backend's walk and its test sections read
    (54 when the point rows walk together and every other row and the test
    sections build their own)."""
    calls = {"bundle_data": 0}
    _counted(calls, catalog, monkeypatch)
    run_catalog(RunConfig(grid=24, identities=CATALOG_IDS, jobs=1))
    assert calls == {"bundle_data": 9}


def test_points_are_built_once_per_walk_part(monkeypatch, tmp_path):
    """Every walked point is built once in its walk, and the rows at four
    worker processes read the bits of a one-worker run.  A pass at the
    default taus and levels builds 36 points in one walk per backend: per
    ``(backend, p, v)`` one member-direction point and 5 section points
    (``'s'`` at levels 0, 1 and 3, ``'f'`` at 1 and 3).  At four workers,
    which count through a file, each of the three level parts of a backend
    builds its own member-direction point: 48."""
    built = []
    point = catalog.Point

    def counted(*args):
        built.append(args[:4])
        time.sleep(0.01)
        return point(*args)

    monkeypatch.setattr(catalog, "Point", counted)
    cfg = RunConfig(grid=24, identities=POINT_ROWS, jobs=1)
    want = run_catalog(cfg)
    n = len(built)
    assert n == 36

    log = tmp_path / "log"
    monkeypatch.setattr(catalog, "Point", _logged(log, point, lambda *args: "member" if len(args) == 4 else "section"))
    got = run_catalog(dataclasses.replace(cfg, jobs=4))
    assert got == want and len(built) == n
    assert sorted(log.read_text().splitlines()) == ["member"] * 18 + ["section"] * 30


def test_sweep_reads_two_christoffel_symbols(monkeypatch):
    """A default sweep builds the Levi-Civita symbols of 2 states, the base
    member of each grid: the parameter difference quotients read only the
    structure, frame and potential of the neighbouring members.  A change
    that builds the symbols of every state again raises the count (18)."""
    calls = []
    christoffel = families.christoffel

    def counted(grid, g):
        calls.append(grid.n)
        return christoffel(grid, g)

    monkeypatch.setattr(families, "christoffel", counted)
    states = []
    make_state = families.make_state

    def built(fam, sigma):
        states.append(sigma)
        return make_state(fam, sigma)

    monkeypatch.setattr(families, "make_state", built)
    catalog.sweep_orders(SWEEPABLE)
    assert sorted(calls) == [64, 128]
    # 5 states at grid 64 and 13 at grid 128 (the base step and the eps
    # pair): dropping finished steps rebuilds nothing
    assert len(states) == 18


def test_sweep_keeps_no_state_of_a_finished_step(monkeypatch):
    """Whenever a case is evaluated on the finest grid, its family holds the
    centre member and the neighbours of the current step only, all at one
    distance from the centre: at most 5 states (13 when the neighbours of
    finished steps are kept)."""
    sigma = 0.1 + 0.05j  # the sweep's default centre
    built, held = [], []
    chart_family, case_ratio = catalog.chart_family, catalog.case_ratio

    def building(grid):
        built.append(chart_family(grid))
        return built[-1]

    def holding(*args):
        if built[-1].grid.n == 32:
            held.append(list(built[-1]._states))
        return case_ratio(*args)

    monkeypatch.setattr(catalog, "chart_family", building)
    monkeypatch.setattr(catalog, "case_ratio", holding)
    catalog.sweep_orders(SWEEPABLE, grids=(24, 32))
    assert len(held) == 3 * len(SWEEPABLE)  # the base step and the eps pair
    for keys in held:
        dist = [abs(p - sigma) for p in keys if p != sigma]
        assert sigma in keys and len(keys) <= 5
        assert not dist or max(dist) < 1.01 * min(dist)
    assert len(held[-1]) == 5


_bad_im = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=25, deadline=None)
@given(re=st.floats(-3, 3), im=_bad_im)
def test_runconfig_rejects_lower_half_plane_tau(re, im):
    with pytest.raises(ValueError, match="Im tau > 0"):
        RunConfig(taus=(1j, complex(re, im)))


@settings(max_examples=25, deadline=None)
@given(eps=st.floats(max_value=0.0) | st.just(float("nan")))
def test_runconfig_rejects_nonpositive_eps(eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        RunConfig(eps=eps)


@settings(max_examples=25, deadline=None)
@given(grid=st.integers(-4, 12), backend=st.sampled_from(["chart", "both"]))
def test_runconfig_rejects_chart_grid_without_interior(grid, backend):
    with pytest.raises(ValueError, match="no interior"):
        RunConfig(backend=backend, grid=grid)
    assert RunConfig(backend=backend, grid=13).grid == 13
    if grid >= 1:  # the rule is the chart's; a torus grid needs one point
        assert RunConfig(backend="torus", grid=grid).grid == grid
    else:
        with pytest.raises(ValueError, match=f"torus grid {grid} needs at least 1 point"):
            RunConfig(backend="torus", grid=grid)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["levels", "taus"]), backend=st.sampled_from(["torus", "chart", "both"]))
def test_runconfig_rejects_empty_levels_or_taus(name, backend):
    with pytest.raises(ValueError, match=f"{name} must not be empty"):
        RunConfig(backend=backend, **{name: ()})


@settings(max_examples=25, deadline=None)
@given(
    levels=st.lists(st.integers(1, 6), max_size=3),
    bad=st.integers(max_value=0),
    at=st.integers(0, 3),
)
def test_runconfig_rejects_level_below_one(levels, bad, at):
    levels.insert(min(at, len(levels)), bad)
    with pytest.raises(ValueError, match="levels must be at least 1"):
        RunConfig(levels=tuple(levels))


@settings(max_examples=25, deadline=None)
@given(steps=st.integers(max_value=0))
def test_runconfig_rejects_fewer_than_one_step(steps):
    with pytest.raises(ValueError, match="at least one step"):
        RunConfig(steps=steps)


def test_runconfig_is_frozen():
    cfg = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.grid = 128


def test_runconfig_jobs_default_to_the_usable_cpus(monkeypatch):
    """One worker per CPU this process may run on: its affinity set where the
    platform has one, else every CPU, and at least 1."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    assert RunConfig().jobs == cpus >= 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert RunConfig().jobs == 1


def test_budget_model():
    env = Env(RunConfig(grid=48))
    # torus budgets are absolute
    assert budget_for("defining_equation", "torus", env) == 1e-8
    # chart budgets scale with the resolution model
    b1 = budget_for("defining_equation", "chart", env, k=1)
    b2 = budget_for("defining_equation", "chart", env, k=2)
    assert b2 == pytest.approx(8.0 * b1)  # k-cubed class
    f1 = budget_for("potential_oneform", "chart", env, k=1)
    f2 = budget_for("potential_oneform", "chart", env, k=2)
    assert f1 == pytest.approx(f2)  # flat in the level
    env_fine = Env(RunConfig(grid=96))
    assert budget_for("potential_oneform", "chart", env_fine) < f1


@pytest.mark.parametrize("backend, p", [("torus", 1 + 1j), ("chart", RunConfig().sigma)])
def test_parameter_step_is_scaled_once(monkeypatch, backend, p):
    """A row hands its difference quotients the run's plain eps, and
    `families.step_for` alone scales it: the step taken at the row's
    parameter is eps * (1 + |p|), and the chart budget is written in it."""
    cfg = RunConfig(backend=backend, grid=32, taus=(p,))
    steps = []
    step_for = families.step_for

    def recording(sigma, eps):
        steps.append((complex(sigma), step_for(sigma, eps)))
        return steps[-1][1]

    monkeypatch.setattr(families, "step_for", recording)
    env = Env(cfg)
    entry = next(e for e in REGISTRY if (e.identity, e.backend) == ("metric_variation", backend))
    assert _row(entry, env)["status"] == "ok"
    outer = [e for sigma, e in steps if sigma == p]
    assert outer and all(e == cfg.eps * (1 + abs(p)) for e in outer)
    if backend == "chart":
        h = env.family("chart").grid.h
        C = ROWS["metric_variation"].budgets["chart"]
        expected = C * (step_for(cfg.sigma, cfg.eps) ** 2 + h**4)
        assert budget_for("metric_variation", "chart", env) == expected


def test_sweep_axis_floor_waiver():
    assert sweep_axis_ok({"axis": "h", "fine": 1e-10, "order": 0.0})
    assert sweep_axis_ok({"axis": "h", "fine": 1e-6, "order": 3.7})
    assert not sweep_axis_ok({"axis": "h", "fine": 1e-6, "order": 3.2})
    assert sweep_axis_ok({"axis": "eps", "fine": 1e-6, "order": 1.95})
    assert not sweep_axis_ok({"axis": "eps", "fine": 1e-6, "order": 1.5})


def test_select_entries_filters():
    both = select_entries(RunConfig())
    assert len(both) == len(REGISTRY)
    torus_only = select_entries(RunConfig(backend="torus"))
    assert all(e.backend == "torus" for e in torus_only)
    subset = select_entries(RunConfig(identities=("gram_rank", "heat_mode")))
    assert {e.identity for e in subset} == {"gram_rank", "heat_mode"}


def test_catalog_rows_and_reports(tmp_path):
    cfg = RunConfig(
        backend="torus",
        identities=("gram_rank", "heat_mode", "basis_multiplier", "curvature_param_vanishing"),
    )
    rows = run_catalog(cfg)
    assert [r["identity"] for r in rows] == sorted(r["identity"] for r in rows)
    by_id = {r["identity"]: r for r in rows}
    # green rows
    for name in ("gram_rank", "heat_mode", "basis_multiplier"):
        assert by_id[name]["verdict"] == "pass"
        assert by_id[name]["status"] == "ok"
    # the claimed-zero parameter curvature fails, and is expected to fail
    red = by_id["curvature_param_vanishing"]
    assert red["verdict"] == "fail"
    assert red["expected"] == "fail"
    assert red["status"] == "ok"
    assert red["ratio"] > 1.0

    text = format_catalog(rows)
    assert "[PASS]" in text and "[FAIL]" in text
    assert "0 unexpected" in text

    jp, cp = tmp_path / "r.jsonl", tmp_path / "r.csv"
    write_jsonl(str(jp), rows)
    write_csv(str(cp), rows, CATALOG_COLUMNS)
    assert len(jp.read_text().splitlines()) == len(rows)
    header = cp.read_text().splitlines()[0]
    assert header.split(",") == list(CATALOG_COLUMNS)


def test_format_sweep_lists_orders():
    rows = [
        {
            "identity": "defining_equation",
            "axis": "h",
            "pair": "64->128",
            "coarse": 1e-6,
            "fine": 6.4e-8,
            "order": 3.97,
        }
    ]
    text = format_sweep(rows)
    assert "defining_equation" in text
    assert "3.97" in text
