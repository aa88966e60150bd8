"""The alternating tower X_0 <= X_1 <= X_2 <= ... of word and vector stages.

Odd stages are the irreducible words of bounded length over the promoted
generator set; even stages are all coefficient functions from the promoted
basis into the stage's scalar set.  Promotion is exactly the bookkeeping of
the construction: S grows by the previous vector stage's new elements, B by
the previous word stage's new elements.

Everything the underlying construction treats as countably infinite is a
finite, configurable desk-scale parameter here.  Builds are deterministic:
fixed enumeration orders give identical stores, member orderings, and
tables on every run with the same Config.

A vector stage is its digit grid: its members are interned in
``itertools.product`` order over the sorted, distinct scalar set, so member
k has the mixed-radix digits of k (axis i is ``basis[i]``, the last axis
varies fastest), by ``TermStore.intern_grid`` from one shared ``(b, c)``
pair per axis and scalar.  ``Stage.coordinates`` reads the members' coefficients off
that order.  ``off_grid_cells`` checks it against the store; condition 1
calls it, the build and ``import_universe`` do not (their stages are grids
by construction: import re-derives each stage by the build's enumeration).
"""

from __future__ import annotations

import configparser
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .lp import _absmax, _fit
from .norm_ext import scalar_shift
from .scalars import Dyadic, full_scalar_set
from .terms import UNIT_ID, GenTerm, TermStore, WordSpace, count_words, pair_key
from .universal import TargetSpace


class ConfigError(ValueError):
    pass


class BudgetExceededError(RuntimeError):
    """A stage would exceed the member budget; nothing is silently truncated."""


class NotBuiltError(LookupError):
    """A stage, or an entry of a built stage (a pair's distance, an id's phi'), never built."""


DESK_SCALARS = (Dyadic(-1), Dyadic(0), Dyadic(1))
RANK_SCALARS = (Dyadic(-1), Dyadic(-1, 1), Dyadic(0), Dyadic(1, 1), Dyadic(1))

DEFAULT_TARGETS = (
    TargetSpace.real(Fraction(1)),
    TargetSpace.real(Fraction(3, 2)),
    TargetSpace.maximum((Fraction(1), Fraction(-1, 2))),
)


INT_KEYS = ("stage_count", "ambient_expansion", "member_budget", "pair_cell_budget", "seed")
BUILD_KEYS = ("preset", "scalar_sets", "word_caps") + INT_KEYS


def _reject_unknown(section, known) -> None:
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(f"[{section.name}] unknown key(s): {', '.join(unknown)}")


def _parsed(section, key: str, parse):
    """parse(section[key]), with a malformed value reported as a ConfigError."""
    try:
        return parse(section[key])
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"[{section.name}] {key} = {section[key]!r}: {exc}") from None


@dataclass(frozen=True)
class Config:
    """Desk-scale parameters; the last entry of a per-stage list repeats.

    The production tables realize the unbounded decomposition minima by
    relaxation to a fixpoint.  ``ambient_expansion`` bounds the partial
    products the metric minimizations may pass through (words of length up
    to ``ambient_expansion`` times the stage's word cap).  The budgets bound
    stage sizes (``member_budget``) and the pair space of every metric-side
    closure (``pair_cell_budget``); a budget is never truncated silently:
    exceeding one is an error.  Verification has no budget: every section
    is exhaustive.  ``seed`` draws the random instances of
    ``oracles.run_all_oracles`` and nothing else.  For the metric closure
    ``pair_cell_budget`` picks the word space, not a second engine: the
    ambient words when their pairs fit, else the stage's own words, under
    the rules ``metric_ext.rho_extend`` lists.
    """

    stage_count: int = 4
    scalar_sets: tuple[tuple[Dyadic, ...], ...] = (DESK_SCALARS,)
    word_caps: tuple[int, ...] = (1,)
    ambient_expansion: int = 2
    member_budget: int = 500_000
    pair_cell_budget: int = 400_000
    seed: int = 0
    targets: tuple[TargetSpace, ...] = DEFAULT_TARGETS

    def scalar_set(self, k: int) -> tuple[Dyadic, ...]:
        """Scalar set for vector stage 2k (k >= 1)."""
        sets = self.scalar_sets
        return sets[min(k - 1, len(sets) - 1)]

    def word_cap(self, k: int) -> int:
        """Word length cap for word stage 2k+1 (k >= 0)."""
        caps = self.word_caps
        return caps[min(k, len(caps) - 1)]

    def validate(self) -> None:
        if self.stage_count < 1:
            raise ConfigError("stage_count must be >= 1")
        if self.ambient_expansion < 1:
            raise ConfigError("ambient_expansion must be >= 1")
        for key in ("member_budget", "pair_cell_budget"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if any(c < 1 for c in self.word_caps):
            raise ConfigError("word caps must be >= 1")
        if list(self.word_caps) != sorted(self.word_caps):
            raise ConfigError("word caps must be non-decreasing (chain monotonicity)")
        sets = [set(s) for s in self.scalar_sets]  # Dyadics are normalized: equal values, equal keys
        for s, values in zip(self.scalar_sets, sets):
            if len(values) != len(s):
                raise ConfigError("scalar sets must not repeat a value")
            if not {Dyadic(0), Dyadic(1), Dyadic(-1)} <= values:
                raise ConfigError("scalar sets must contain 0, 1 and -1")
            if {-v for v in values} != values:
                raise ConfigError("scalar sets must be symmetric under negation")
        for a, b in zip(sets, sets[1:]):
            if not a <= b:
                raise ConfigError("scalar sets must be non-decreasing (chain monotonicity)")

    # -- presets --------------------------------------------------------

    @classmethod
    def desk(cls, stage_count: int = 4) -> "Config":
        """Feasible four-stage default: three scalars, words of length one."""
        return cls(stage_count=stage_count)

    @classmethod
    def rank(cls, stage_count: int = 3) -> "Config":
        """Half-integer scalars so that positive-rank elements, which only
        the metric's rules value, and the convex rules are exercised; three
        stages keep the following vector stage out of combinatorial range."""
        return cls(stage_count=stage_count, scalar_sets=(RANK_SCALARS,))

    @classmethod
    def exact_x2(cls, stage_count: int = 2) -> "Config":
        """Construction-exact scalars D_1 for the 81-element second stage."""
        return cls(stage_count=stage_count, scalar_sets=(full_scalar_set(1),))

    @classmethod
    def from_file(cls, path: str) -> "Config":
        """Read a ``[build]`` section and ``[target.*]`` sections.  An unknown
        section or key, a missing target image or a malformed value is a
        ConfigError."""
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"config file {path!r}: {exc}") from None
        if not read:
            raise ConfigError(f"config file {path!r} not found")
        for section in parser.sections():
            if section != "build" and not section.startswith("target"):
                raise ConfigError(f"unknown section [{section}]")
        kwargs: dict = {}
        if parser.has_section("build"):
            sec = parser["build"]
            _reject_unknown(sec, BUILD_KEYS)
            if "preset" in sec:
                base = PRESETS.get(sec["preset"])
                if base is None:
                    raise ConfigError(f"unknown preset {sec['preset']!r}")
                kwargs.update(vars(base()))
            for key in INT_KEYS:
                if key in sec:
                    kwargs[key] = _parsed(sec, key, int)
            if "scalar_sets" in sec:
                kwargs["scalar_sets"] = _parsed(sec, "scalar_sets", lambda text: tuple(
                    tuple(Dyadic.parse(tok) for tok in g.split()) for g in text.split(";") if g.strip()
                ))
            if "word_caps" in sec:
                kwargs["word_caps"] = _parsed(
                    sec, "word_caps", lambda text: tuple(int(t) for t in text.split())
                )
        targets = []
        for section in parser.sections():
            if section == "build":
                continue
            sec = parser[section]
            _reject_unknown(sec, ("kind", "image"))
            if "image" not in sec:
                raise ConfigError(f"[{section}] has no image")
            image = _parsed(sec, "image", lambda text: tuple(Fraction(tok) for tok in text.split()))
            try:
                targets.append(TargetSpace(kind=sec.get("kind", "abs").strip(), image=image))
            except ValueError as exc:
                raise ConfigError(f"[{section}] {exc}") from None
        if targets:
            kwargs["targets"] = tuple(targets)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def describe(self) -> dict:
        """Exact echo for the export document (all scalars as num/den)."""
        return {
            "stage_count": self.stage_count,
            "scalar_sets": [[str(d) for d in s] for s in self.scalar_sets],
            "word_caps": list(self.word_caps),
            "ambient_expansion": self.ambient_expansion,
            "member_budget": self.member_budget,
            "pair_cell_budget": self.pair_cell_budget,
            "seed": self.seed,
            "targets": [t.describe() for t in self.targets],
        }

    @classmethod
    def from_description(cls, desc) -> "Config":
        """Read back ``describe()``, converting rather than type-checking each
        field (a caller that refuses a re-typed one compares the echoes)."""
        try:
            targets = tuple(TargetSpace(t["kind"], tuple(map(Fraction, t["image"]))) for t in desc["targets"])
            cfg = cls(**{key: int(desc[key]) for key in INT_KEYS}, word_caps=tuple(map(int, desc["word_caps"])),
                      scalar_sets=tuple(tuple(map(Dyadic.parse, s)) for s in desc["scalar_sets"]), targets=targets)
            cfg.validate()
        except (LookupError, TypeError, AttributeError, ValueError, ArithmeticError) as exc:
            raise ConfigError(f"config {desc!r}: {exc}") from None
        return cfg


PRESETS = {"desk": Config.desk, "rank": Config.rank, "exact-x2": Config.exact_x2}


class TableView(Mapping):
    """A stage's table read off its integer array: ``view[m]`` is a norm
    stage's member norm, ``view[pair_key(a, b)]`` a word stage's distance
    (a != b), each a ``Fraction``, one per distinct value.  The keys are
    ``Stage.cells()``, in that order; the view has no write method."""

    def __init__(self, stage: "Stage"):
        self._word = stage.kind == "word"
        self._members = stage.members
        self._pos = {m: i for i, m in enumerate(stage.members)}
        self._ints, self._scale = stage.ints, stage.scale
        self._fractions: dict[int, Fraction] = {}

    def _pair(self, a: int, b: int) -> tuple[int, int]:
        if a < b:
            return self._pos[a], self._pos[b]
        raise KeyError((a, b))

    def __getitem__(self, key) -> Fraction:
        try:
            v = self._ints.item(self._pair(*key) if self._word else self._pos[key])
        except (KeyError, TypeError, ValueError):  # no member, or a word stage's key that is no pair
            raise KeyError(key) from None
        value = self._fractions.get(v)
        if value is None:
            value = self._fractions[v] = Fraction(v, self._scale)
        return value

    def __iter__(self):
        members = self._members
        if not self._word:
            return iter(members)
        return (pair_key(a, b) for i, a in enumerate(members) for b in members[i + 1:])

    def __len__(self) -> int:
        n = len(self._members)
        return n * (n - 1) // 2 if self._word else n


@dataclass(frozen=True, eq=False)
class Stage:
    """A stage built whole, frozen with its table (``with_ints``): exact
    integers over one scale in a read-only array (``scaled_table``), of
    which ``table`` is a read-only ``Mapping`` view.  A stage given other
    members by ``dataclasses.replace`` needs its table again.  Stages
    compare by identity: the generated ``__eq__`` cannot compare arrays."""

    index: int
    kind: str  # "word" | "vector"
    members: tuple[int, ...] = ()
    generators: tuple[int, ...] = ()  # word stages: S_n
    basis: tuple[int, ...] = ()  # vector stages: B_n
    ints: np.ndarray | None = None  # None until ``with_ints`` gives the table
    scale: int = 1
    word_cap: int = 0
    scalar_set: tuple[Dyadic, ...] = ()
    notes: dict = field(default_factory=dict)

    sealed = True  # not a field: every stage has its table; the benchmark still filters on it

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @cached_property
    def table(self) -> TableView:
        return TableView(self)

    def cells(self) -> list:
        """The table's keys in member order: a vector stage's members (grid
        order), a word stage's member pairs i < j, row-major."""
        return list(self.table)

    def coordinates(self, shift: int):
        """A vector stage's member coefficients as numerators over 2^shift,
        an n x dim integer array whose row k is the digits of k (module
        docstring): int64 when ``lp._fit``'s bound holds for every digit,
        else an object array of Python ints.  ``shift`` must cover every
        scalar's exponent."""
        digits = np.array([d.num << (shift - d.log2den) for d in self.scalar_set], dtype=object)
        [digits] = _fit(_absmax(digits), digits)  # fitted before the gather: radix entries, not n x dim
        dim, radix = len(self.basis), len(digits)
        return digits[np.indices((radix,) * dim).reshape(dim, radix**dim).T]

    def scaled_table(self):
        """The table as stored, ``(ints, scale)``: ``ints / scale`` are a
        norm stage's member norms or a word stage's member distances (a
        symmetric matrix, zero diagonal) in member order, int64 while
        ``lp._fit``'s bound holds for the sum or difference of two entries,
        else Python ints; read-only.  Nothing is converted."""
        return self.ints, self.scale

    def with_ints(self, cells: list[int], scale: int) -> "Stage":
        """This stage with the table ``cells / scale``, one int per cell in
        ``cells()`` order, stored as ``scaled_table`` returns it: over the
        lcm of the reduced denominators, by one gcd.  The gcd and the bound
        are taken in Python, so a small stage costs a few array calls."""
        g = gcd(scale, *cells)
        if g > 1:
            cells, scale = [v // g for v in cells], scale // g
        bound = 2 * max(max(cells, default=0), -min(cells, default=0))
        [ints] = _fit(bound, np.array(cells, dtype=object))
        if self.kind == "word":
            n, flat = len(self.members), ints
            upper = np.arange(n)[:, None] < np.arange(n)  # the cells i < j, row-major
            ints = np.zeros((n, n), dtype=flat.dtype)
            ints[upper] = ints.T[upper] = flat
        ints.flags.writeable = False
        return replace(self, ints=ints, scale=scale)

    def with_table(self, table) -> "Stage":
        """This stage with the table ``table``, a mapping from each of
        ``cells()`` to a ``Fraction``, through ``fraction_ints``.  A cell
        with no value raises ``NotBuiltError`` naming it."""
        try:
            values = [table[k] for k in self.cells()]
        except KeyError as exc:
            raise NotBuiltError(f"stage {self.index} has no table value for {exc.args[0]}") from None
        return self.with_ints(*fraction_ints(values))


def fraction_ints(values) -> tuple[list[int], int]:
    """The one conversion of ``Fraction`` table values to integers: their
    numerators over ``scale``, the lcm of their denominators, in the order
    given (``Stage.with_ints`` stores them)."""
    scale = lcm(*{v.denominator for v in values})
    return [v.numerator * (scale // v.denominator) for v in values], scale


def off_grid_cells(store: TermStore, stage: Stage) -> list[int]:
    """The cells k of a vector stage that lack a member or a row, or whose
    member's ``vector_ints`` (if it has one) is not row k of ``coordinates``."""
    shift = scalar_shift(stage)
    rows = stage.coordinates(shift)
    pos = {b: i for i, b in enumerate(stage.basis)}

    def on(k: int) -> bool:  # row by row, so that no list of all rows is kept alive
        try:
            return store.vector_ints(stage.members[k], pos, len(pos), shift) == tuple(rows[k].tolist())
        except (IndexError, KeyError, ValueError):  # AlgebraError is a ValueError
            return False

    return [k for k in range(max(len(rows), len(stage.members))) if not on(k)]


class Universe:
    """The built tower plus its interning store and generator element."""

    def __init__(self, cfg: Config):
        cfg.validate()
        self.cfg = cfg
        self.store = TermStore()
        self.x_id = self.store.intern(GenTerm(0))
        self.stages: list[Stage] = []

    # -- queries ----------------------------------------------------------

    def stage(self, n: int) -> Stage:
        if n >= len(self.stages):
            raise NotBuiltError(f"stage {n} not built")
        return self.stages[n]

    @property
    def top(self) -> Stage:
        return self.stages[-1]

    def rho(self, stage: Stage, a: int, b: int) -> Fraction:
        if a == b:
            return Fraction(0)
        try:
            return stage.table[pair_key(a, b)]
        except KeyError:
            raise NotBuiltError(f"stage {stage.index} has no distance for the pair ({a}, {b})") from None

    def norm_of_diff(self, stage: Stage, a: int, b: int) -> Fraction | None:
        """The vector stage's norm of a - b, or None when a - b is not a member."""
        return stage.table.get(self.store.combine_id(a, b))

    # -- construction -----------------------------------------------------

    def build(self) -> "Universe":
        from . import metric_ext, norm_ext

        self.stages = [self._unit_stage()]
        for n in range(1, self.cfg.stage_count + 1):
            prev = self.stages[n - 1]
            if n % 2 == 1:
                stage = self._enumerate_word_stage(n, self.cfg.word_cap((n - 1) // 2))
                table = metric_ext.rho_extend(self, stage, prev, self.cfg)
            else:
                stage = self._enumerate_vector_stage(n, self.cfg.scalar_set(n // 2))
                table = norm_ext.norm_extend(self, stage, prev, self.cfg)
            self.stages.append(stage.with_ints(*table))
        return self

    @staticmethod
    def _unit_stage() -> Stage:
        """X_0 = {e}, the vector stage over the empty basis, with its zero norm."""
        zero = np.zeros(1, dtype=np.int64)
        zero.flags.writeable = False
        return Stage(index=0, kind="vector", members=(UNIT_ID,), ints=zero)

    # The build passes the config's word cap or scalar set, import_universe the document's.
    def _enumerate_word_stage(self, n: int, cap: int) -> Stage:
        store = self.store
        if n == 1:
            generators = (self.x_id,)
            store.register_generator(self.x_id)
        else:
            prev_word = self.stages[n - 2]
            prev_vec = self.stages[n - 1]
            fresh = [m for m in prev_vec.members if m not in prev_word.member_set]
            for eid in fresh:
                store.register_generator(eid)
            generators = tuple(prev_word.generators) + tuple(fresh)

        letters = [(gid, sign) for gid in generators for sign in (1, -1)]
        count = count_words(letters, cap)
        if count > self.cfg.member_budget:
            raise BudgetExceededError(f"word stage {n} would have {count} members (budget {self.cfg.member_budget})")
        if count**2 > self.cfg.pair_cell_budget:  # the metric's members space, before any word is interned
            from .metric_ext import MetricExtensionError

            raise MetricExtensionError(f"stage-{n} metric members space {count}^2 exceeds pair_cell_budget")
        members = store.intern_words(WordSpace(letters, cap).words)
        return Stage(index=n, kind="word", members=tuple(members), generators=generators, word_cap=cap)

    def _enumerate_vector_stage(self, n: int, scalars) -> Stage:
        store = self.store
        prev_vec = self.stages[n - 2]
        prev_word = self.stages[n - 1]
        fresh = [m for m in prev_word.members if m not in prev_vec.member_set]
        for eid in fresh:
            store.register_basis(eid)
        basis = tuple(prev_vec.basis) + tuple(fresh)

        count = len(scalars) ** len(basis)
        if count > self.cfg.member_budget:
            raise BudgetExceededError(f"vector stage {n} would have {count} members (budget {self.cfg.member_budget})")

        ordered = sorted(scalars, key=lambda d: d.as_fraction())
        members = tuple(store.intern_grid(basis, ordered))
        return Stage(index=n, kind="vector", members=members, basis=basis, scalar_set=tuple(ordered))
