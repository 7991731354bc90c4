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
    Its grids are ``--grids``, on the chart, and it takes no ``--backend``
    or ``--grid``; a config file's ``backend`` and ``grid`` do not apply.
transport
    Parallel-transport the full level-k basis along a parameter path on the
    torus backend and compare with the self-transport oracle; optionally run
    a loop-holonomy off-scalar check.  Its ``--grid`` is a torus grid, and
    it takes no ``--backend`` or ``--out``.

Run values come from ``--config`` with the flags on top, checked together
(``config.load_config``).  Bad input, from a flag or from the file (the
README's *CLI* section lists the cases), is reported on one ``error:`` line
with exit code 2.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .catalog import (
    IDENTITY_NAMES,
    MUTATIONS,
    RunConfig,
    SWEEPABLE,
    run_catalog,
    sweep_axis_ok,
    sweep_orders,
)
from .config import FIELDS, csv, load_config
from .families import TorusFamily
from .fields import TorusGrid
from .reports import (
    CATALOG_COLUMNS,
    SWEEP_COLUMNS,
    format_catalog,
    format_sweep,
    write_csv,
    write_jsonl,
)
from .theta import as_path, loop_offscalar, transport


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI file with a [run] section")
    p.add_argument("--out", help="directory for report files")


class _Parser(argparse.ArgumentParser):
    """Raises a flag that does not parse as a ``ValueError``, which `main`
    reports as it reports every other bad input.  A flag is never read as
    an abbreviation of a longer one (``sweep --grid`` is not ``--grids``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ValueError(message)


def _base_config(args: argparse.Namespace, defaults: dict | None = None) -> RunConfig:
    """The config file, with the run-value flags that are set on top and ``defaults`` below."""
    flags = {k: v for k, v in vars(args).items() if k in FIELDS and v is not None}
    return load_config(args.config, flags, defaults)


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _base_config(args)
    rows = run_catalog(cfg)
    print(format_catalog(rows))
    if args.out:
        write_jsonl(os.path.join(args.out, "report.jsonl"), rows)
        write_csv(os.path.join(args.out, "report.csv"), rows, CATALOG_COLUMNS)
    return 0 if all(r["status"] == "ok" for r in rows) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    # the sweep's chart grids are --grids, whatever the file's backend and grid
    args.grid = max(args.grids, default=None)
    cfg = _base_config(args)
    rows = sweep_orders(
        cfg.identities or SWEEPABLE,
        grids=args.grids,
        eps_pair=args.eps_pair,
        k=args.level,
        sigma=cfg.sigma,
        eps=cfg.eps,
    )
    print(format_sweep(rows))
    if args.out:
        write_jsonl(os.path.join(args.out, "sweep.jsonl"), rows)
        write_csv(os.path.join(args.out, "sweep.csv"), rows, SWEEP_COLUMNS)
    return 0 if all(sweep_axis_ok(r) for r in rows) else 1


def _cmd_transport(args: argparse.Namespace) -> int:
    cfg = _base_config(args, {"steps": 1000})
    fam = TorusFamily(TorusGrid(cfg.grid))
    if args.k < 1:  # checked before np.eye(k) fails on a negative size
        raise ValueError(f"transport needs a positive level, got k = {args.k}")
    if not (args.tol > 0 and np.isfinite(args.tol)):
        raise ValueError(f"tol must be positive and finite, got {args.tol}")
    if not (args.loop_radius >= 0 and np.isfinite(args.loop_radius)):
        raise ValueError(f"loop-radius must be finite and not negative, got {args.loop_radius}")
    # the waypoints and the loop circle are checked before either integration
    path = as_path(args.path)
    if args.loop_radius > 0:
        off, _ = loop_offscalar(fam, args.k, args.path[0], args.loop_radius, steps=cfg.steps)
    res = transport(fam, args.k, path, np.eye(args.k), steps=cfg.steps)
    dev = float(np.max(np.abs(res.end - res.start)))
    print(f"path {' -> '.join(str(p) for p in args.path)}  level {args.k}  steps {cfg.steps}")
    print(f"endpoint deviation from oracle: {dev:.3e}")
    print(f"worst projection defect:        {res.max_defect:.3e}")
    print(f"Gram norm drift:                {res.norm_drift:.3e}")
    ok = dev <= args.tol and res.norm_drift <= args.tol
    if args.loop_radius > 0:
        print(f"loop off-scalar at r={args.loop_radius}:   {off:.3e}")
        ok = ok and off <= args.tol
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="hitchinlab",
        description="Residual laboratory for a family of corrected connections "
        "on parameter-dependent spaces of holomorphic sections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity catalog")
    _add_common(p_verify)
    p_verify.add_argument("--backend", type=FIELDS["backend"], help="torus, chart or both")
    p_verify.add_argument("--grid", type=FIELDS["grid"], help="grid points per axis")
    p_verify.add_argument(
        "--identities",
        type=FIELDS["identities"],
        help="comma-separated subset; known: " + ", ".join(IDENTITY_NAMES),
    )
    p_verify.add_argument(
        "--mutate",
        type=FIELDS["mutate"],
        help="flip one term of a selected identity (the run must then fail): "
        + ", ".join(sorted(MUTATIONS)),
    )
    p_verify.add_argument(
        "--jobs",
        type=FIELDS["jobs"],
        help="worker processes; 1 walks in this process, more walk each backend by level "
        "(a default run has 8 tasks)",
    )
    p_verify.add_argument("--eps", type=FIELDS["eps"], help="parameter step")
    p_verify.set_defaults(fn=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="measure convergence orders")
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--identities", type=FIELDS["identities"], help="subset of: " + ", ".join(SWEEPABLE)
    )
    p_sweep.add_argument("--grids", type=csv(int), default="64,128", help="e.g. 64,128")
    p_sweep.add_argument("--eps-pair", type=csv(float), default="0.1,0.05", help="two eps steps")
    p_sweep.add_argument("--level", type=int, default=1, help="section level k")
    p_sweep.set_defaults(fn=_cmd_sweep, backend="chart")

    p_tr = sub.add_parser("transport", help="parallel transport vs oracle")
    p_tr.add_argument("--config", help="INI file with a [run] section")
    p_tr.add_argument("--grid", type=FIELDS["grid"], help="torus grid points per axis")
    p_tr.add_argument("--k", type=int, default=3, help="level")
    p_tr.add_argument("--path", type=csv(complex), default="1j,1+1j", help="waypoints")
    p_tr.add_argument("--steps", type=FIELDS["steps"], help="RK4 steps, else the file's, else 1000")
    p_tr.add_argument("--tol", type=float, default=1e-6)
    p_tr.add_argument(
        "--loop-radius",
        type=float,
        default=0.0,
        help="also transport around a circle of this radius at the first waypoint",
    )
    p_tr.set_defaults(fn=_cmd_transport, backend="torus")

    # the subcommand is set before its flags are parsed, so an error names it
    args = argparse.Namespace(command=None)
    try:
        _, extra = parser.parse_known_args(argv, args)
        if extra:
            raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
        return args.fn(args)
    except (ValueError, OSError) as exc:
        prog = " ".join(filter(None, (parser.prog, args.command)))
        print(f"{prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
