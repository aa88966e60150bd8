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
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product

from .scalars import Dyadic, full_scalar_set
from .terms import UNIT_ID, GenTerm, TermStore
from .universal import TargetSpace


class ConfigError(ValueError):
    pass


class BudgetExceededError(RuntimeError):
    """A stage would exceed the member budget; nothing is silently truncated."""


class NotBuiltError(LookupError):
    pass


DESK_SCALARS = (Dyadic(-1), Dyadic(0), Dyadic(1))
RANK_SCALARS = (Dyadic(-1), Dyadic(-1, 1), Dyadic(0), Dyadic(1, 1), Dyadic(1))

DEFAULT_TARGETS = (
    TargetSpace.real(Fraction(1)),
    TargetSpace.real(Fraction(3, 2)),
    TargetSpace.maximum((Fraction(1), Fraction(-1, 2))),
)


@dataclass(frozen=True)
class Config:
    """Desk-scale parameters; the last entry of a per-stage list repeats.

    The production tables realize the unbounded decomposition minima by
    relaxation to a fixpoint; ``decomp_cap`` and ``sum_cap`` bound the
    factor/summand counts the independent oracles certify (observed optimal
    depths are asserted against them), and the ambient expansion bounds the
    partial products and sums all minimizations may pass through.
    """

    stage_count: int = 4
    scalar_sets: tuple[tuple[Dyadic, ...], ...] = (DESK_SCALARS,)
    word_caps: tuple[int, ...] = (1,)
    decomp_cap: int = 6
    sum_cap: int = 6
    ambient_expansion: int = 2
    member_budget: int = 500_000
    pair_cell_budget: int = 400_000
    lattice_cell_budget: int = 1_000_000
    quantifier_budget: int = 10_000_000
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
        if self.decomp_cap < 2 or self.sum_cap < 2:
            raise ConfigError("decomposition caps must be >= 2")
        if self.ambient_expansion < 1:
            raise ConfigError("ambient_expansion must be >= 1")
        for caps in (self.word_caps,):
            if any(c < 1 for c in caps):
                raise ConfigError("word caps must be >= 1")
            if list(caps) != sorted(caps):
                raise ConfigError("word caps must be non-decreasing (chain monotonicity)")
        for s in self.scalar_sets:
            values = {d.as_fraction() for d in s}
            if not {Fraction(0), Fraction(1), Fraction(-1)} <= values:
                raise ConfigError("scalar sets must contain 0, 1 and -1")
            if {-v for v in values} != values:
                raise ConfigError("scalar sets must be symmetric under negation")
        for a, b in zip(self.scalar_sets, self.scalar_sets[1:]):
            if not {d.as_fraction() for d in a} <= {d.as_fraction() for d in b}:
                raise ConfigError("scalar sets must be non-decreasing (chain monotonicity)")

    # -- presets --------------------------------------------------------

    @classmethod
    def desk(cls, stage_count: int = 4) -> "Config":
        """Feasible four-stage default: three scalars, words of length one."""
        return cls(stage_count=stage_count)

    @classmethod
    def rank(cls, stage_count: int = 3) -> "Config":
        """Half-integer scalars so that positive-rank elements, the four-case
        dispatch and the convex rules are all exercised; three stages keep
        the following vector stage out of combinatorial range."""
        return cls(stage_count=stage_count, scalar_sets=(RANK_SCALARS,))

    @classmethod
    def exact_x2(cls, stage_count: int = 2) -> "Config":
        """Construction-exact scalars D_1 for the 81-element second stage."""
        return cls(stage_count=stage_count, scalar_sets=(full_scalar_set(1),))

    @classmethod
    def from_file(cls, path: str) -> "Config":
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file {path!r} not found")
        kwargs: dict = {}
        if parser.has_section("build"):
            sec = parser["build"]
            if "preset" in sec:
                base = {
                    "desk": cls.desk,
                    "rank": cls.rank,
                    "exact-x2": cls.exact_x2,
                }.get(sec["preset"])
                if base is None:
                    raise ConfigError(f"unknown preset {sec['preset']!r}")
                kwargs.update(vars(base()))
            for key in ("stage_count", "decomp_cap", "sum_cap", "ambient_expansion",
                        "member_budget", "pair_cell_budget", "lattice_cell_budget",
                        "quantifier_budget", "seed"):
                if key in sec:
                    kwargs[key] = int(sec[key])
            if "scalar_sets" in sec:
                groups = [g for g in sec["scalar_sets"].split(";") if g.strip()]
                kwargs["scalar_sets"] = tuple(
                    tuple(Dyadic.parse(tok) for tok in g.split()) for g in groups
                )
            if "word_caps" in sec:
                kwargs["word_caps"] = tuple(int(t) for t in sec["word_caps"].split())
        targets = []
        for section in parser.sections():
            if not section.startswith("target"):
                continue
            sec = parser[section]
            kind = sec.get("kind", "abs").strip()
            image = tuple(Fraction(tok) for tok in sec["image"].split())
            targets.append(TargetSpace(kind=kind, image=image))
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
            "decomp_cap": self.decomp_cap,
            "sum_cap": self.sum_cap,
            "ambient_expansion": self.ambient_expansion,
            "member_budget": self.member_budget,
            "pair_cell_budget": self.pair_cell_budget,
            "lattice_cell_budget": self.lattice_cell_budget,
            "quantifier_budget": self.quantifier_budget,
            "seed": self.seed,
            "targets": [t.describe() for t in self.targets],
        }


@dataclass
class Stage:
    index: int
    kind: str  # "word" | "vector"
    members: tuple[int, ...] = ()
    member_set: frozenset[int] = frozenset()
    generators: tuple[int, ...] = ()  # word stages: S_n
    basis: tuple[int, ...] = ()  # vector stages: B_n
    table: dict = field(default_factory=dict)
    gamma: dict = field(default_factory=dict)  # vector stages: the auxiliary bounds
    word_cap: int = 0
    scalar_set: tuple[Dyadic, ...] = ()
    sealed: bool = False
    notes: dict = field(default_factory=dict)

    def clone_with_table(self, table: dict) -> "Stage":
        return replace(self, table=table)


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
        if n >= len(self.stages) or not self.stages[n].sealed:
            raise NotBuiltError(f"stage {n} not built")
        return self.stages[n]

    @property
    def top(self) -> Stage:
        return self.stages[-1]

    def membership(self, eid: int, n: int) -> bool:
        return eid in self.stage(n).member_set

    def rho(self, stage: Stage, a: int, b: int) -> Fraction:
        if a == b:
            return Fraction(0)
        return stage.table[(a, b) if a <= b else (b, a)]

    # -- construction -----------------------------------------------------

    def build(self) -> "Universe":
        from . import metric_ext, norm_ext

        stage0 = Stage(
            index=0,
            kind="vector",
            members=(UNIT_ID,),
            member_set=frozenset({UNIT_ID}),
            basis=(),
            table={UNIT_ID: Fraction(0)},
            sealed=True,
        )
        self.stages = [stage0]
        for n in range(1, self.cfg.stage_count + 1):
            if n % 2 == 1:
                stage = self._enumerate_word_stage(n)
                prev = self.stages[n - 1]
                stage.table = metric_ext.rho_extend(self, stage, prev, self.cfg)
            else:
                stage = self._enumerate_vector_stage(n)
                prev = self.stages[n - 1]
                stage.table = norm_ext.norm_extend(self, stage, prev, self.cfg)
            stage.sealed = True
            self.stages.append(stage)
        return self

    def _enumerate_word_stage(self, n: int) -> Stage:
        store = self.store
        cap = self.cfg.word_cap((n - 1) // 2)
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

        g = len(generators)
        count = 1
        width = 2 * g
        if width:
            level = width
            for _ in range(cap):
                count += level
                level *= width - 1
        if count > self.cfg.member_budget:
            raise BudgetExceededError(
                f"word stage {n} would have {count} members "
                f"(budget {self.cfg.member_budget})"
            )

        members: list[int] = [UNIT_ID]
        seen = {UNIT_ID}
        letters = [(gid, sign) for gid in generators for sign in (1, -1)]
        frontier: list[tuple[tuple[int, int], ...]] = [()]
        for _ in range(cap):
            nxt = []
            for w in frontier:
                for letter in letters:
                    if w and w[-1][0] == letter[0] and w[-1][1] == -letter[1]:
                        continue
                    grown = w + (letter,)
                    nxt.append(grown)
                    eid = store.intern(store.reduce_word(grown))
                    if eid not in seen:
                        seen.add(eid)
                        members.append(eid)
            frontier = nxt
        return Stage(
            index=n,
            kind="word",
            members=tuple(members),
            member_set=frozenset(seen),
            generators=generators,
            word_cap=cap,
        )

    def _enumerate_vector_stage(self, n: int) -> Stage:
        store = self.store
        scalars = self.cfg.scalar_set(n // 2)
        if n == 2:
            prev_vec = self.stages[0]
        else:
            prev_vec = self.stages[n - 2]
        prev_word = self.stages[n - 1]
        fresh = [m for m in prev_word.members if m not in prev_vec.member_set]
        for eid in fresh:
            store.register_basis(eid)
        basis = tuple(prev_vec.basis) + tuple(fresh)

        count = len(scalars) ** len(basis)
        if count > self.cfg.member_budget:
            raise BudgetExceededError(
                f"vector stage {n} would have {count} members "
                f"(budget {self.cfg.member_budget})"
            )

        ordered = sorted(scalars, key=lambda d: d.as_fraction())
        members: list[int] = []
        seen: set[int] = set()
        for coeffs in product(ordered, repeat=len(basis)):
            parts = {b: c for b, c in zip(basis, coeffs) if c}
            eid = store.intern(store.combo_from_map(parts))
            if eid not in seen:
                seen.add(eid)
                members.append(eid)
        if not basis:
            members, seen = [UNIT_ID], {UNIT_ID}
        return Stage(
            index=n,
            kind="vector",
            members=tuple(members),
            member_set=frozenset(seen),
            basis=basis,
            scalar_set=tuple(ordered),
        )
