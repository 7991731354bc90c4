"""INI run configuration: a flat ``[run]`` section mapped onto RunConfig.

Example::

    [run]
    backend = torus
    grid = 64
    levels = 1, 3, 5
    taus = 1j, 1+1j
    eps = 1e-4
    jobs = 4

`FIELDS` parses the text of each RunConfig field, for the INI reader and for
every command-line flag that sets a run value.  Flags override file values,
which override a subcommand's defaults (``transport``'s 1000 steps); unset
keys keep those of :class:`hitchinlab.catalog.RunConfig`, and the RunConfig
they make together is checked once.
"""

from __future__ import annotations

import configparser

from .catalog import RunConfig


def csv(item):
    """Parser of a comma-separated list of values that ``item`` parses."""

    def parse(raw: str) -> tuple:
        return tuple(item(p.strip()) for p in raw.split(",") if p.strip())

    parse.__name__ = f"{item.__name__} list"  # argparse names it in its errors
    return parse


FIELDS = {
    "backend": str,
    "grid": int,
    "eps": float,
    "levels": csv(int),
    "taus": csv(complex),
    "sigma": complex,
    "radius": float,
    "steps": int,
    "mutate": str,
    "identities": csv(str),
    "jobs": int,
}


def load_config(
    path: str | None, overrides: dict | None = None, defaults: dict | None = None
) -> RunConfig:
    """The file's values with ``overrides`` (command-line values) on top and a
    subcommand's ``defaults`` below, checked once as one :class:`RunConfig`."""
    values = dict(defaults or {})
    if path:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ValueError(f"{path}: {str(exc).splitlines()[0]}") from None
        if not read:
            raise FileNotFoundError(f"config file not found: {path}")
        if not parser.has_section("run"):
            raise ValueError(f"{path}: missing [run] section")
        for key, raw in parser.items("run"):
            if key not in FIELDS:
                raise ValueError(f"{path}: unknown key {key!r} in [run]")
            try:
                values[key] = FIELDS[key](raw)
            except ValueError as exc:
                raise ValueError(f"{path}: bad value for {key!r}: {exc}") from None
    return RunConfig(**{**values, **(overrides or {})})
