"""Command-line interface.

Subcommands
-----------
verify
    Run the identity catalog and compare every verdict with its expected
    status; exit 0 only when nothing is unexpected.
sweep
    Measure chart-backend convergence orders (grid and parameter-step axes)
    for the sweepable identities; exit 0 only when each axis meets its order
    threshold (h >= 3.5, eps >= 1.9) or is already resolved below the floor.
transport
    Parallel-transport the full level-k basis along a parameter path on the
    torus backend and compare with the self-transport oracle; optionally run
    a loop-holonomy off-scalar check.  Its ``--grid`` is a torus grid, and
    it takes no ``--backend`` or ``--out``.
basis
    Print basis diagnostics: multipliers, holomorphy defects, Gram data
    (torus) or solved-section defects (chart).

Bad input (for example a level below 1, fewer than one step, a parameter
with Im tau <= 0, eps <= 0, a chart grid with no interior, a torus grid
below one point, a transport tolerance that is not positive and finite, a
negative or non-finite loop radius or an eps pair of other than two
values) is reported on one ``error:`` line with exit code 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .bundle import bundle_data
from .catalog import (
    IDENTITY_NAMES,
    MUTATIONS,
    RunConfig,
    SWEEPABLE,
    chart_family,
    run_catalog,
    sweep_axis_ok,
    sweep_orders,
)
from .config import load_config
from .operators import chart_sections, torus_sections
from .reports import (
    CATALOG_COLUMNS,
    SWEEP_COLUMNS,
    format_catalog,
    format_sweep,
    write_csv,
    write_jsonl,
)


def _csv_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(p) for p in raw.split(",") if p.strip())


def _csv_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.split(",") if p.strip())


def _csv_complex(raw: str) -> tuple[complex, ...]:
    return tuple(complex(p.strip()) for p in raw.split(",") if p.strip())


def _csv_names(raw: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in raw.split(",") if p.strip())


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI file with a [run] section")
    p.add_argument("--backend", choices=("torus", "chart", "both"))
    p.add_argument("--grid", type=int, help="grid points per axis")
    p.add_argument("--out", help="directory for report files")


def _base_config(args: argparse.Namespace) -> RunConfig:
    updates = {}
    for name in ("backend", "grid"):
        val = getattr(args, name, None)
        if val is not None:
            updates[name] = val
    return load_config(getattr(args, "config", None), updates)


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _base_config(args)
    updates = {}
    if args.identities:
        updates["identities"] = _csv_names(args.identities)
    if args.mutate:
        updates["mutate"] = args.mutate
    if args.jobs is not None:
        updates["jobs"] = args.jobs
    if args.eps is not None:
        updates["eps"] = args.eps
    if updates:
        cfg = replace(cfg, **updates)
    rows = run_catalog(cfg)
    print(format_catalog(rows))
    if args.out:
        write_jsonl(os.path.join(args.out, "report.jsonl"), rows)
        write_csv(os.path.join(args.out, "report.csv"), rows, CATALOG_COLUMNS)
    return 0 if all(r["status"] == "ok" for r in rows) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _base_config(args)
    identities = _csv_names(args.identities) if args.identities else SWEEPABLE
    rows = sweep_orders(
        identities,
        grids=_csv_ints(args.grids),
        eps_pair=_csv_floats(args.eps_pair),
        k=args.level,
        radius=cfg.radius,
        sigma=cfg.sigma,
        eps=cfg.eps,
    )
    print(format_sweep(rows))
    if args.out:
        write_jsonl(os.path.join(args.out, "sweep.jsonl"), rows)
        write_csv(os.path.join(args.out, "sweep.csv"), rows, SWEEP_COLUMNS)
    return 0 if all(sweep_axis_ok(r) for r in rows) else 1


def _cmd_transport(args: argparse.Namespace) -> int:
    from .families import TorusFamily
    from .fields import TorusGrid
    from .theta import loop_offscalar, transport

    cfg = _base_config(args)
    fam = TorusFamily(TorusGrid(cfg.grid))
    path = _csv_complex(args.path)
    if args.k < 1:  # checked before np.eye(k) fails on a negative size
        raise ValueError(f"transport needs a positive level, got k = {args.k}")
    if not (args.tol > 0 and np.isfinite(args.tol)):
        raise ValueError(f"tol must be positive and finite, got {args.tol}")
    if not (args.loop_radius >= 0 and np.isfinite(args.loop_radius)):
        raise ValueError(f"loop-radius must be finite and not negative, got {args.loop_radius}")
    res = transport(fam, args.k, path, np.eye(args.k), steps=args.steps)
    if args.loop_radius > 0:
        off, _ = loop_offscalar(fam, args.k, path[0], args.loop_radius, steps=args.steps)
    dev = float(np.max(np.abs(res.end - res.start)))
    print(f"path {' -> '.join(str(p) for p in path)}  level {args.k}  steps {args.steps}")
    print(f"endpoint deviation from oracle: {dev:.3e}")
    print(f"worst projection defect:        {res.max_defect:.3e}")
    print(f"Gram norm drift:                {res.norm_drift:.3e}")
    ok = dev <= args.tol and res.norm_drift <= args.tol
    if args.loop_radius > 0:
        print(f"loop off-scalar at r={args.loop_radius}:   {off:.3e}")
        ok = ok and off <= args.tol
    return 0 if ok else 1


def _cmd_basis(args: argparse.Namespace) -> int:
    cfg = _base_config(args)
    if args.k is not None:
        cfg = replace(cfg, levels=(args.k,))
    backend = cfg.backend if cfg.backend != "both" else "torus"
    worst = 0.0
    if backend == "torus":
        from .families import TorusFamily
        from .fields import TorusGrid
        from .theta import gram, gram_rank, multiplier_residual

        grid = TorusGrid(cfg.grid)
        fam = TorusFamily(grid)
        taus = (complex(args.tau),) if args.tau else cfg.taus
        for tau in taus:
            for k in cfg.levels:
                ts = torus_sections(bundle_data(fam, tau, k))
                G = gram(grid, k, tau, ts.values)
                golden = np.sqrt(2 * np.pi / k)
                gdev = float(np.max(np.abs(G - golden * np.eye(k)))) / golden
                mult = max(multiplier_residual(grid, k, tau, j) for j in range(k))
                dbar = max(ts.defects)
                rank = gram_rank(G)
                print(
                    f"tau={tau} k={k}: rank {rank}/{k}  "
                    f"gram diag {G[0, 0].real:.6f} (golden {golden:.6f}, dev {gdev:.2e})  "
                    f"multiplier {mult:.2e}  dbar {dbar:.2e}"
                )
                worst = max(worst, gdev, mult, dbar, 0.0 if rank == k else 1.0)
        return 0 if worst <= 1e-8 else 1
    fam, report = chart_family(cfg.grid, cfg.radius)
    sigma = complex(args.sigma) if args.sigma else cfg.sigma
    print(f"generated family: radius {cfg.radius}, report {report}")
    for k in cfg.levels:
        bd = bundle_data(fam, sigma, k)
        ts = chart_sections(bd)
        defects = "  ".join(f"{d:.2e}" for d in ts.defects)
        print(f"sigma={sigma} k={k}: section defects {defects}")
        worst = max(worst, max(ts.defects))
    return 0 if worst <= 1e-6 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hitchinlab",
        description="Residual laboratory for a family of corrected connections "
        "on parameter-dependent spaces of holomorphic sections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity catalog")
    _add_common(p_verify)
    p_verify.add_argument(
        "--identities",
        help="comma-separated subset; known: " + ", ".join(IDENTITY_NAMES),
    )
    p_verify.add_argument(
        "--mutate",
        choices=sorted(MUTATIONS),
        help="flip one term of one identity (the run must then fail)",
    )
    p_verify.add_argument("--jobs", type=int, help="worker threads")
    p_verify.add_argument("--eps", type=float, help="parameter step")
    p_verify.set_defaults(fn=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="measure convergence orders")
    _add_common(p_sweep)
    p_sweep.add_argument("--identities", help="subset of: " + ", ".join(SWEEPABLE))
    p_sweep.add_argument("--grids", default="64,128", help="grid list, e.g. 64,128")
    p_sweep.add_argument("--eps-pair", default="0.1,0.05", help="two parameter steps")
    p_sweep.add_argument("--level", type=int, default=1, help="section level k")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_tr = sub.add_parser("transport", help="parallel transport vs oracle")
    p_tr.add_argument("--config", help="INI file with a [run] section")
    p_tr.add_argument("--grid", type=int, help="torus grid points per axis")
    p_tr.add_argument("--k", type=int, default=3, help="level")
    p_tr.add_argument("--path", default="1j,1+1j", help="waypoints, e.g. 1j,1+1j")
    p_tr.add_argument("--steps", type=int, default=1000)
    p_tr.add_argument("--tol", type=float, default=1e-6)
    p_tr.add_argument(
        "--loop-radius",
        type=float,
        default=0.0,
        help="also transport around a circle of this radius at the first waypoint",
    )
    p_tr.set_defaults(fn=_cmd_transport, backend="torus")

    p_basis = sub.add_parser("basis", help="basis diagnostics")
    _add_common(p_basis)
    p_basis.add_argument("--k", type=int, help="single level (default: config levels)")
    p_basis.add_argument("--tau", help="torus parameter, e.g. 1+1j")
    p_basis.add_argument("--sigma", help="chart parameter")
    p_basis.set_defaults(fn=_cmd_basis)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"hitchinlab {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
