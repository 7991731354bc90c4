"""INI run configuration: a flat ``[run]`` section mapped onto RunConfig.

Example::

    [run]
    backend = torus
    grid = 64
    levels = 1, 3, 5
    taus = 1j, 1+1j
    eps = 1e-4
    jobs = 4

Command-line flags override file values; unset keys keep the defaults of
:class:`hitchinlab.catalog.RunConfig`.
"""

from __future__ import annotations

import configparser
from dataclasses import fields

from .catalog import RunConfig


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    if name in ("levels",):
        return tuple(int(p) for p in raw.split(",") if p.strip())
    if name in ("taus",):
        return tuple(complex(p.strip()) for p in raw.split(",") if p.strip())
    if name in ("identities",):
        return tuple(p.strip() for p in raw.split(",") if p.strip())
    if name in ("sigma",):
        return complex(raw)
    if name in ("grid", "steps", "jobs"):
        return int(raw)
    if name in ("eps", "radius"):
        return float(raw)
    if name in ("mutate", "backend"):
        return raw
    raise KeyError(name)


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """The file's values with ``overrides`` (command-line values) on top,
    checked once, as the one configuration they make together."""
    overrides = overrides or {}
    if not path:
        return RunConfig(**overrides)
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(path)
    if not parser.has_section("run"):
        raise ValueError(f"{path}: missing [run] section")
    known = {f.name for f in fields(RunConfig)}
    updates = {}
    for key, raw in parser.items("run"):
        if key not in known:
            raise ValueError(f"{path}: unknown key {key!r} in [run]")
        updates[key] = _parse_value(key, raw)
    return RunConfig(**{**updates, **overrides})
