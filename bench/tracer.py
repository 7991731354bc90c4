"""Spans and counters around the layers of hitchinlab, installed from outside.

The tracer replaces each public function of each ``hitchinlab`` module by a
timing wrapper at every place the function is bound: the defining module,
every module that imported it by name, and the closure cells of the catalog
runners that captured it.  A few methods that mark layer boundaries
(``Family.state``, ``TorusGrid.deriv``/``ChartGrid.deriv``, ``Env.bundle``,
``Env.sections``) and the catalog's per-row function ``_row`` are wrapped
as well.  ``uninstall`` puts every original back, so traced and untraced
passes can alternate in one process.  No file of the program is changed.

A span's self time is its duration minus the durations of the spans it
called directly (on the same thread).  Spans are aggregated in memory per
name and per thread; :meth:`Tracer.collect` merges and resets them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import weakref
from collections import Counter
from time import perf_counter

# record layout per span name
CALLS, TOTAL, SELF, MAX, WORK, MISSES = range(6)


class _ThreadTable:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # one [child seconds] cell per open span
        self.stats: dict[str, list[float]] = {}


class Tracer:
    """In-memory span aggregation with cache-key bookkeeping."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[_ThreadTable] = []
        self._keys: dict[str, Counter] = {}
        self._serials: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._next_serial = itertools.count(1)
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _table(self) -> _ThreadTable:
        t = getattr(self._local, "table", None)
        if t is None:
            t = self._local.table = _ThreadTable()
            with self._lock:
                self._tables.append(t)
        return t

    def serial(self, obj) -> int:
        """Stable per-object number that is never reused while tracing."""
        with self._lock:
            n = self._serials.get(obj)
            if n is None:
                n = self._serials[obj] = next(self._next_serial)
            return n

    def _note_key(self, name: str, key) -> None:
        with self._lock:
            self._keys.setdefault(name, Counter())[key] += 1

    def wrap(self, name, fn, work=None, key=None, miss_child=None):
        """Timing wrapper for ``fn`` recorded under ``name``.

        ``work(args, kwargs, result)`` adds a computed count; ``miss_child``
        names the builder spans whose calls inside this span mark a cache
        miss; ``key(args, kwargs)`` is the cache key counted per build (on
        every call when ``miss_child`` is None, else on misses only).
        """
        table_of = self._table
        note_key = self._note_key

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = table_of()
            stats, stack = table.stats, table.stack
            if miss_child is not None:
                before = sum(stats[c][CALLS] for c in miss_child if c in stats)
            cell = [0.0]
            stack.append(cell)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0, 0.0, 0.0, 0, 0]
                rec[CALLS] += 1
                rec[TOTAL] += dur
                rec[SELF] += dur - cell[0]
                if dur > rec[MAX]:
                    rec[MAX] = dur
            missed = True
            if miss_child is not None:
                missed = sum(stats[c][CALLS] for c in miss_child if c in stats) > before
                rec[MISSES] += missed
            if key is not None and missed:
                note_key(name, key(args, kwargs))
            if work is not None:
                rec[WORK] += work(args, kwargs, result)
            return result

        return wrapper

    def collect(self) -> tuple[dict[str, list[float]], dict[str, int]]:
        """Merged span records and duplicate builds per keyed span; resets both.

        Call only when no traced call is running in another thread.
        """
        merged: dict[str, list[float]] = {}
        with self._lock:
            for t in self._tables:
                for name, rec in t.stats.items():
                    m = merged.setdefault(name, [0, 0.0, 0.0, 0.0, 0, 0])
                    for i in (CALLS, TOTAL, SELF, WORK, MISSES):
                        m[i] += rec[i]
                    m[MAX] = max(m[MAX], rec[MAX])
                t.stats = {}
            # tables of finished pool threads are dropped; live ones re-register
            self._tables = []
            self._local = threading.local()
            dups = {n: sum(c - 1 for c in cnt.values()) for n, cnt in self._keys.items()}
            self._keys = {}
        return merged, dups

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_cell(self, cell, value) -> None:
        self._patches.append((cell, None, cell.cell_contents))
        cell.cell_contents = value

    def install(self, modules: dict, specs: dict, methods: list, extra: dict) -> None:
        """Wrap every public function of ``modules`` (short name -> module).

        ``specs`` maps span names to ``wrap`` keyword arguments; ``methods``
        lists ``(span name, class, attribute)`` triples; ``extra`` maps span
        names to ``(module, attribute)`` pairs for private functions.
        """
        wrappers = {}
        for short, mod in modules.items():
            for attr, val in vars(mod).items():
                if (
                    inspect.isfunction(val)
                    and not attr.startswith("_")
                    and val.__module__ == mod.__name__
                ):
                    name = f"{short}.{attr}"
                    wrappers[val] = self.wrap(name, val, **specs.get(name, {}))
        for name, (mod, attr) in extra.items():
            val = getattr(mod, attr, None)
            if inspect.isfunction(val):
                wrappers[val] = self.wrap(name, val, **specs.get(name, {}))
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
                elif isinstance(val, (list, tuple)):
                    # registries of row objects whose runners captured a
                    # residual function in a closure (catalog._per_dir)
                    for item in val:
                        runner = getattr(item, "runner", None)
                        for cell in getattr(runner, "__closure__", None) or ():
                            try:
                                inner = cell.cell_contents
                            except ValueError:
                                continue
                            if inspect.isfunction(inner) and inner in wrappers:
                                self._patch_cell(cell, wrappers[inner])
        for name, cls, attr in methods:
            val = cls.__dict__.get(attr)
            if inspect.isfunction(val):
                self._patch(cls, attr, self.wrap(name, val, **specs.get(name, {})))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            if attr is None:
                owner.cell_contents = old
            else:
                setattr(owner, attr, old)
