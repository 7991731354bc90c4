"""Per-layer metrics of a traced pass: the spans recorded and what they yield.

Layers are the modules of ``src/hitchinlab``.  The workload on which a
change to each layer should move ``pass_s`` (and the one where it should
not, for lack of work there):

* ``families.make_state``, ``families.state.hit_ratio``: transport (catalog);
* ``families.rigid_family``: sweep (transport);
* ``geometry.*``: transport and sweep (catalog);
* ``fields.deriv``: all four; chart differences at n = 128 in sweep;
* ``theta.*``: transport (catalog; sweep does no theta work);
* ``bundle.*``, ``operators.u_apply``/``G_of``/``H_of``: transport (sweep);
* ``operators.chart_sections``, ``operators.residuals``: catalog and sweep
  (transport);
* ``catalog.*`` cache and pool counters: catalog_par, also ``peak_rss_mb``
  (transport).

Computed counts repeat exactly for the same inputs, so a later change can
claim a gain as a count:

* ``theta.exp_evals`` -- ``k * |mode_range(k, Im tau)| * n**2`` per
  lattice-sum call (``multiplier_residual`` sums one row twice);
* ``fields.deriv.bytes`` -- bytes of the input array read and of the
  derivative written, per ``TorusGrid.deriv``/``ChartGrid.deriv`` call;
* ``operators.chart_sections.design_cells`` -- rows times columns of the
  least-squares design matrix.
"""

from __future__ import annotations

import inspect

from tracer import CALLS, MAX, MISSES, SELF, TOTAL, WORK

MODULES = ("families", "geometry", "fields", "theta", "bundle", "operators", "catalog")
LATTICE_SUMS = (
    "theta.theta_basis",
    "theta.theta_basis_dtau",
    "theta.theta_basis_dx",
    "theta.multiplier_residual",
)
CALLS_OF = (
    "families.make_state",
    "families.rigid_family",
    "geometry.christoffel",
    "geometry.cov_deriv",
    "fields.deriv",
    "theta.theta_basis",
    "theta.connection_matrix",
    "bundle.bundle_data",
    "bundle.sec_grad",
    "operators.u_apply",
    "operators.G_of",
    "operators.H_of",
    "operators.chart_sections",
)
SELF_OF = (
    "families.make_state",
    "families.rigid_family",
    "geometry.christoffel",
    "geometry.ricci_form",
    "geometry.cov_deriv",
    "fields.deriv",
    "theta.theta_basis",
    "theta.theta_basis_dtau",
    "theta.gram",
    "theta.connection_matrix",
    "bundle.bundle_data",
    "operators.u_apply",
    "operators.chart_sections",
)

# name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    **{f"{s}.calls": ("count", "lower") for s in CALLS_OF},
    **{f"{s}.self_s": ("s", "lower") for s in SELF_OF},
    "families.make_state.total_s": ("s", "lower"),
    "families.state.hit_ratio": ("1", "higher"),
    "families.make_state.dup_builds": ("count", "lower"),
    "fields.deriv.bytes": ("B", "lower"),
    "theta.exp_evals": ("count", "lower"),
    "theta.transport.steps": ("count", "lower"),
    "operators.chart_sections.design_cells": ("count", "lower"),
    "operators.residuals.self_s": ("s", "lower"),
    "catalog.row.count": ("count", "higher"),
    "catalog.row.max_s": ("s", "lower"),
    "catalog.env_bundle.hit_ratio": ("1", "higher"),
    "catalog.env_bundle.dup_builds": ("count", "lower"),
    "catalog.env_sections.hit_ratio": ("1", "higher"),
    "catalog.sections.dup_builds": ("count", "lower"),
    "catalog.pool.busy_frac": ("1", "higher"),
    "catalog.pool.wait_s": ("s", "lower"),
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    "unattributed.self_s": ("s", "lower"),
    "trace.pass_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.passes": ("count", "higher"),
    "check.fail_frac": ("1", "lower"),
}


def _arguments(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def span_specs(tracer, mods) -> dict:
    """``Tracer.wrap`` options per span name: work counts and cache keys."""
    theta, operators = mods["theta"], mods["operators"]
    mode_range = theta.mode_range  # the original, so counting records no span

    def lattice(fn, rows=None):
        arguments = _arguments(fn)

        def work(args, kwargs, result):
            a = arguments(args, kwargs)
            k, n = a["k"], a["grid"].n
            per_mode = 2 if rows == "one" else k  # one row, evaluated twice
            return per_mode * len(mode_range(k, a["tau"].imag)) * n * n

        return work

    transport_args = _arguments(theta.transport)
    sections_args = _arguments(operators.chart_sections)

    def design_cells(args, kwargs, result):
        a = sections_args(args, kwargs)
        m = len(range(0, a["bd"].grid.n, a.get("sub", 1)))
        d = result.coeff.shape[-1]  # polynomial degree + 1
        return 2 * m * m * (d * (d + 1) // 2)

    serial = tracer.serial
    return {
        "families.make_state": {"key": lambda a, kw: (serial(a[0]), complex(a[1]))},
        "families.state": {"miss_child": ("families.make_state",)},
        "catalog.Env.bundle": {
            "miss_child": ("bundle.bundle_data",),
            "key": lambda a, kw: (serial(a[0]), a[1], complex(a[2]), float(a[3])),
        },
        "catalog.Env.sections": {
            "miss_child": ("operators.chart_sections", "operators.torus_sections"),
            "key": lambda a, kw: (serial(a[0]), a[1], complex(a[2]), int(a[3])),
        },
        "fields.deriv": {"work": lambda a, kw, r: a[1].nbytes + r.nbytes},
        "theta.theta_basis": {"work": lattice(theta.theta_basis)},
        "theta.theta_basis_dtau": {"work": lattice(theta.theta_basis_dtau)},
        "theta.theta_basis_dx": {"work": lattice(theta.theta_basis_dx)},
        "theta.multiplier_residual": {"work": lattice(theta.multiplier_residual, "one")},
        "theta.transport": {"work": lambda a, kw, r: transport_args(a, kw)["steps"]},
        "operators.chart_sections": {"work": design_cells},
    }


def methods(mods) -> list[tuple[str, type, str]]:
    """Layer-boundary methods: (span name, class, attribute)."""
    fields, families, catalog = mods["fields"], mods["families"], mods["catalog"]
    return [
        ("families.state", families.Family, "state"),
        ("fields.deriv", fields.TorusGrid, "deriv"),
        ("fields.deriv", fields.ChartGrid, "deriv"),
        ("catalog.Env.bundle", catalog.Env, "bundle"),
        ("catalog.Env.sections", catalog.Env, "sections"),
    ]


def extras(mods) -> dict:
    """Private functions that bound a layer: span name -> (module, attribute)."""
    return {"catalog.row": (mods["catalog"], "_row")}


def _hit_ratio(rec) -> float:
    return 1.0 - rec[MISSES] / rec[CALLS] if rec[CALLS] else 0.0


def _is_residual(name: str) -> bool:
    fn = name.split(".", 1)[1]
    return fn.startswith("eq_") or fn.endswith(("_residual", "_residuals"))


def pass_metrics(recs: dict, dups: dict, jobs: int) -> dict:
    """Per-layer metrics of one traced pass from its merged span records."""
    empty = [0, 0.0, 0.0, 0.0, 0, 0]

    def r(name):
        return recs.get(name, empty)

    m = {f"{s}.calls": r(s)[CALLS] for s in CALLS_OF}
    m.update({f"{s}.self_s": r(s)[SELF] for s in SELF_OF})
    run, row, root = r("catalog.run_catalog"), r("catalog.row"), r("pass")
    m.update(
        {
            "families.make_state.total_s": r("families.make_state")[TOTAL],
            "families.state.hit_ratio": _hit_ratio(r("families.state")),
            "families.make_state.dup_builds": dups.get("families.make_state", 0),
            "fields.deriv.bytes": r("fields.deriv")[WORK],
            "theta.exp_evals": sum(r(s)[WORK] for s in LATTICE_SUMS),
            "theta.transport.steps": r("theta.transport")[WORK],
            "operators.chart_sections.design_cells": r("operators.chart_sections")[WORK],
            "operators.residuals.self_s": sum(
                rec[SELF]
                for name, rec in recs.items()
                if name.startswith("operators.") and _is_residual(name)
            ),
            "catalog.row.count": row[CALLS],
            "catalog.row.max_s": row[MAX],
            "catalog.env_bundle.hit_ratio": _hit_ratio(r("catalog.Env.bundle")),
            "catalog.env_bundle.dup_builds": dups.get("catalog.Env.bundle", 0),
            "catalog.env_sections.hit_ratio": _hit_ratio(r("catalog.Env.sections")),
            "catalog.sections.dup_builds": dups.get("catalog.Env.sections", 0),
            "catalog.pool.busy_frac": row[TOTAL] / (jobs * run[TOTAL]) if run[TOTAL] else 0.0,
            # with jobs > 1 the self time of run_catalog is its wait on the pool
            "catalog.pool.wait_s": run[SELF],
            "unattributed.self_s": root[SELF],
            "trace.pass_s": root[TOTAL],
        }
    )
    for mod in MODULES:
        own = sum(rec[SELF] for name, rec in recs.items() if name.split(".")[0] == mod)
        m[f"{mod}.self_s"] = own - (run[SELF] if mod == "catalog" else 0.0)
    return m
