from __future__ import annotations

import dataclasses
import importlib.util
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitchinlab import catalog, families
from hitchinlab.catalog import (
    IDENTITY_NAMES,
    MUTATIONS,
    REGISTRY,
    ROWS,
    RunConfig,
    SWEEPABLE,
    Env,
    _row,
    budget_for,
    run_catalog,
    select_entries,
    sweep_axis_ok,
)
from hitchinlab.fields import TorusGrid
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
    # family and its sections are shared, only the mutation changes
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


def test_sections_are_built_once_under_threads(monkeypatch):
    built = []

    def slow_sections(bd):
        built.append(bd.k)
        time.sleep(0.2)
        return object()

    monkeypatch.setattr(catalog, "torus_sections", slow_sections)
    env = Env(RunConfig(backend="torus", grid=16))
    got = []
    threads = [
        threading.Thread(target=lambda: got.append(env.sections("torus", 1j, 1)))
        for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(built) == 1
    assert len(got) == 2 and got[0] is got[1]


def test_states_are_built_once_under_threads(monkeypatch):
    built = []
    make_state = families.make_state

    def slow_make_state(family, sigma):
        built.append(sigma)
        time.sleep(0.2)
        return make_state(family, sigma)

    monkeypatch.setattr(families, "make_state", slow_make_state)
    fam = families.TorusFamily(TorusGrid(16))
    got = []
    threads = [threading.Thread(target=lambda: got.append(fam.state(1j))) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert built == [1j]
    assert len(got) == 2 and got[0] is got[1]


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
        h = env.chart().grid.h
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
