"""Per-layer tracing from outside the program.

The tracer replaces public entry points of the ``freebanach`` modules with
wrappers that record calls and self time, and leaves the program's source
untouched.  A wrapper is installed wherever a caller looks the callable up:
a function imported by name into another module (``metric_ext`` imports
``relax_fixpoint``) is a second binding of the same object, and every
binding in a loaded module is replaced.  A callable that no longer exists
is reported as absent rather than as zero.

Self time of a span is its duration minus the durations of the spans it
directly encloses.  The wrapper's own cost falls inside the enclosing span,
so it is measured separately (``calibrate``) and reported as
``trace.wrapper_s``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from typing import Callable, Optional

ABSENT = None


def _sweeps_of_pair(result, args):
    return {"sweeps": result[1]}


def _relax_counts(result, args):
    return {"sweeps": result.sweeps, "rules": len(args[0].rules)}  # args[0]: the system


NOTE_COUNTERS = {
    "gamma_lp_calls": "norm_ext.gamma_lp_calls",
    "inverse_convex_instances": "norm_ext.inverse_convex_instances",
    "lattice_cells": "norm_ext.lattice_cells",
}


def _build_counts(universe, args):
    """Counters read off a built universe: sizes and the ``stage.notes``
    keys that exist (a key no stage carries stays absent)."""
    out = {
        "stages.members": sum(len(s.members) for s in universe.stages),
        "terms.store_size": len(universe.store),
    }
    for stage in universe.stages:
        for key, name in NOTE_COUNTERS.items():
            if key in stage.notes:
                out[name] = out.get(name, 0) + stage.notes[key]
    return out


# (module, attribute path, counter extractor); counters are keyed relative
# to the row name unless they contain a dot.
TARGETS: list[tuple[str, str, Optional[Callable]]] = [
    ("stages", "Universe.build", _build_counts),
    ("lp", "MoleculeLP.__init__", None),
    ("lp", "MoleculeLP.solve_full", None),
    ("lp", "basic_solution_oracle", None),
    ("relax", "LatticeSystem.solve", _sweeps_of_pair),
    ("relax", "PairComposition.solve", _sweeps_of_pair),
    ("relax", "relax_fixpoint", _relax_counts),
    ("relax", "brute_force_oracle", None),
    ("norm_ext", "norm_extend", None),
    ("norm_ext", "molecule_table", None),
    ("metric_ext", "rho_extend", None),
    ("metric_ext", "delta_rank0_closure", None),
    ("metric_ext", "delta_general", None),
    ("verify", "check_conditions", None),
    ("verify", "check_condition_1", None),
    ("verify", "check_condition_2", None),
    ("verify", "check_condition_3", None),
    ("verify", "check_condition_4", None),
    ("verify", "check_condition_5", None),
    ("verify", "check_condition_6", None),
    ("verify", "check_biinvariance", None),
    ("universal", "check_morphism_bound", None),
    ("universal", "sigma_table", None),
    ("universal", "check_operation_preservation", None),
    ("oracles", "check_relax_oracle", None),
    ("oracles", "check_lp_oracle", None),
    ("oracles", "check_stage2_oracle", None),
    ("oracles", "check_rho_oracle", None),
    ("cli", "main", None),
    ("cli", "export_bytes", None),
    ("cli", "import_universe", None),
    ("exprs", "parse_expr", None),
    ("exprs", "eval_expr", None),
]

# (counter, the row whose calls produce it)
COUNTERS = [
    *((name, "stages.Universe.build") for name in ("stages.members", "terms.store_size")),
    *((name, "stages.Universe.build") for name in NOTE_COUNTERS.values()),
    ("relax.LatticeSystem.solve.sweeps", "relax.LatticeSystem.solve"),
    ("relax.PairComposition.solve.sweeps", "relax.PairComposition.solve"),
    ("relax.relax_fixpoint.sweeps", "relax.relax_fixpoint"),
    ("relax.relax_fixpoint.rules", "relax.relax_fixpoint"),
]


class _Row:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Spans with self time, plus counters, for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.rows: dict[str, _Row] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._undo: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()
        self.root_s = 0.0

    # -- spans -----------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        row = self.rows.get(name)
        if row is None:
            row = self.rows[name] = _Row()
        row.calls += 1
        row.self_s += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``counter(result, args)`` maps
        the return value and arguments to counter increments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if counter is not None:
                self._count(name, counter, result, args)
            return result

        return wrapper

    def _count(self, name, counter, result, args) -> None:
        try:
            counts = counter(result, args)
        except (AttributeError, TypeError, IndexError, KeyError):
            return  # the return shape changed: the counters stay absent
        for key, value in counts.items():
            full = key if "." in key else f"{name}.{key}"
            self.counters[full] = self.counters.get(full, 0) + value

    # -- installation ----------------------------------------------------

    def install(self, targets=None) -> None:
        """Wrap every target in every module binding that refers to it."""
        targets = TARGETS if targets is None else targets
        modules = {}
        for module_name, _, _ in targets:
            try:  # all first, so that every by-name import exists to be found
                modules[module_name] = importlib.import_module(f"freebanach.{module_name}")
            except ImportError:
                pass
        for module_name, path, counter in targets:
            name = f"{module_name}.{path}"
            try:
                owner = modules[module_name]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (KeyError, AttributeError):
                self.absent.add(name)
                continue
            wrapper = self.wrap(name, original, counter)
            if outer:  # a method: the class attribute is the only binding
                self._set(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                namespace = getattr(mod, "__dict__", None)
                if not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- report ----------------------------------------------------------

    def metrics(self, targets=None) -> dict[str, Optional[float]]:
        """``<row>.calls`` and ``<row>.self_s`` for every target, plus the
        counters.  A row not called counts zero; a removed callable, and a
        counter its called row no longer yields, map to ``ABSENT``."""
        out: dict[str, Optional[float]] = {}
        for module_name, path, _ in TARGETS if targets is None else targets:
            name = f"{module_name}.{path}"
            row = self.rows.get(name)
            if name in self.absent:
                out[f"{name}.calls"] = out[f"{name}.self_s"] = ABSENT
            else:
                out[f"{name}.calls"] = row.calls if row else 0
                out[f"{name}.self_s"] = row.self_s if row else 0.0
        for key, source in COUNTERS:
            if out.get(f"{source}.calls", ABSENT) == 0:
                out[key] = 0
            else:
                out[key] = self.counters.get(key, ABSENT)
        return out


def calibrate(calls: int = 20000) -> float:
    """Seconds one wrapped call costs beyond an unwrapped one."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("calibrate", noop)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
