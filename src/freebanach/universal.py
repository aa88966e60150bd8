"""The freeness property at desk scale.

Every element of the tower is produced from the single generator by group
multiplication, inversion, formal addition and dyadic scaling, so a choice
of image vector y in a commutative target determines a unique
operation-preserving map phi'.  Commutative Banach spaces (R^d with the
absolute-value, maximum, or Euclidean norm, multiplication taken to be
addition) already exercise the norm inequality nontrivially.

phi' is evaluated exactly in Python ints as S phi', where S is the lcm of
the denominators of y times 2^K, and K sums over the norm stages with a
basis the largest denominator exponent k of their scalar set.  Every
coefficient function into that set is a member, so this is the largest
exponent of a member coefficient, and a member's image has denominators
dividing S.  So on a norm stage phi' is one object-array product, the
members' ``Stage.coordinates`` (numerators over 2^k) times the basis
images, divided by 2^k exactly: a remainder raises ``InexactDivision``
rather than rounding.

Each property is checked once.  ``check_morphism_bound`` checks that phi'
never increases norms, entry for entry: ||phi(z)|| <= ||y|| ||z|| and
sigma(a, b) <= ||y|| rho(a, b).  ``sigma_table`` returns the pullback
tables computed by the same pass, with the same report;
``check_operation_preservation`` samples the two structures.  The
splitting inequality of the pullback needs no check: phi' is a
homomorphism into a commutative group, so

    ||phi(ab) - phi(cd)|| = ||(phi(a) - phi(c)) + (phi(b) - phi(d))||
                         <= sigma(a, c) + sigma(b, d)

is the target's own triangle inequality, whatever rho is.  The
homomorphism property itself is what ``check_operation_preservation``
checks.

Euclidean norms of rational vectors are irrational in general; all
Euclidean assertions compare squares, and ratios by integer
cross-multiplication, so every check stays exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .lp import InexactDivision
from .norm_ext import scalar_shift
from .scalars import DY_ONE, fraction_str
from .terms import UNIT_ID

Vec = tuple[Fraction, ...]

KINDS = ("abs", "max", "euclid")


@dataclass(frozen=True)
class TargetSpace:
    """A finite-dimensional commutative target with an exact norm scheme."""

    kind: str
    image: Vec  # phi(x), the image of the generator

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == "abs" and len(self.image) != 1:
            raise ValueError("absolute-value targets are one-dimensional")

    @classmethod
    def real(cls, y: Fraction) -> "TargetSpace":
        return cls(kind="abs", image=(y,))

    @classmethod
    def maximum(cls, image: Vec) -> "TargetSpace":
        return cls(kind="max", image=tuple(image))

    @classmethod
    def euclidean(cls, image: Vec) -> "TargetSpace":
        return cls(kind="euclid", image=tuple(image))

    @property
    def dim(self) -> int:
        return len(self.image)

    def norm_exact(self, v: Vec) -> Fraction | None:
        """The norm as a rational, when the kind admits one."""
        if self.kind == "abs":
            return abs(v[0])
        if self.kind == "max":
            return max(map(abs, v), default=Fraction(0))
        return None

    def norm_sq(self, v: Vec) -> Fraction:
        if self.kind == "euclid":
            return sum(x * x for x in v)
        n = self.norm_exact(v)
        return n * n

    def y_norm_sq(self) -> Fraction:
        return self.norm_sq(self.image)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "image": [fraction_str(x) for x in self.image],
        }

    def label(self) -> str:
        return f"{self.kind}[{', '.join(fraction_str(x) for x in self.image)}]"


class PhiMap:
    """S times the unique operation-preserving map into a target, as int
    vectors by id; ``scale`` is S (see the module docstring).  It is filled
    once, stage by stage: the unit to 0, x to the image, a norm stage by
    one product, each new word-stage member by the sum of its letters.  A
    call is a lookup; an id in no sealed stage raises ``NotBuiltError``."""

    def __init__(self, universe, target: TargetSpace):
        self.target = target
        sealed = [stage for stage in universe.stages if stage.sealed]
        k = sum(scalar_shift(stage) for stage in sealed if stage.kind == "vector" and stage.basis)
        self.scale = lcm(*(q.denominator for q in target.image)) << k
        self.image = tuple(int(q * self.scale) for q in target.image)
        values = self._values = {UNIT_ID: (0,) * target.dim, universe.x_id: self.image}
        for stage in sealed:
            if stage.kind == "word":
                for m in stage.member_set - values.keys():  # new words, over filled letters
                    letters = [[sign * w for w in values[b]] for b, sign in universe.store.word_of(m)]
                    values[m] = tuple(map(sum, zip(*letters)))
            elif stage.basis:
                shift = scalar_shift(stage)
                images = np.array([values[b] for b in stage.basis], dtype=object)
                for m, row in zip(stage.members, (stage.coordinates(shift) @ images).tolist()):
                    if any(v & ((1 << shift) - 1) for v in row):
                        raise InexactDivision(f"phi' of {m} is not a multiple of 1/{self.scale}")
                    values[m] = tuple(v >> shift for v in row)

    def __call__(self, eid: int) -> tuple[int, ...]:
        try:
            return self._values[eid]
        except KeyError:
            from .stages import NotBuiltError

            raise NotBuiltError(f"phi' of {eid}: the id is in no sealed stage") from None


def phi_eval(universe, eid: int, target: TargetSpace) -> Vec:
    phi = PhiMap(universe, target)
    return tuple(Fraction(v, phi.scale) for v in phi(eid))


@dataclass
class SigmaTable:
    """Pullback (pseudo)metric and (pseudo)norm per stage, stored squared so
    Euclidean targets remain exact."""

    target: TargetSpace
    metric_sq: dict[int, dict[tuple[int, int], Fraction]]
    norm_sq: dict[int, dict[int, Fraction]]


def _entries(universe, stage, phi):
    """(table key, report field, S^2 ||phi(.)||^2, table value) for each
    entry of a sealed stage: its members on a norm stage, its pairs on a
    word stage."""
    norm_sq = phi.target.norm_sq
    if stage.kind == "vector":
        for z in stage.members:
            yield z, ("element", z), norm_sq(phi(z)), stage.table[z]
        return
    members = stage.members
    for i, a in enumerate(members):
        va = phi(a)
        for b in members[i + 1 :]:
            diff = tuple(p - q for p, q in zip(va, phi(b)))
            key = (a, b) if a <= b else (b, a)
            yield key, ("pair", (a, b)), norm_sq(diff), universe.rho(stage, a, b)


def _bound_pass(universe, target: TargetSpace):
    """One pass of phi' over every sealed stage: the morphism-bound report,
    the squared pullback tables times S^2 (by stage kind, then index), and
    S^2.  For a table value p/q the bound is lhs q^2 <= Y p^2 with
    Y = S^2 ||y||^2; the worst ratio is kept as an int pair."""
    from .verify import VerificationReport

    phi = PhiMap(universe, target)
    y_sq = target.norm_sq(phi.image)
    s_sq = phi.scale * phi.scale
    report = VerificationReport(suite=f"morphism bound {target.label()}")
    tables: dict[str, dict[int, dict]] = {"word": {}, "vector": {}}
    worst: tuple[int, int] | None = None
    for stage in universe.stages:
        if not stage.sealed:
            continue
        table = tables[stage.kind][stage.index] = {}
        for key, (field, where), lhs, value in _entries(universe, stage, phi):
            table[key] = lhs
            lhs_q = lhs * value.denominator**2
            rhs = y_sq * value.numerator**2
            report.attempted += 1
            if lhs_q <= rhs:
                report.passed += 1
                if rhs and (worst is None or lhs_q * worst[1] > worst[0] * rhs):
                    worst = (lhs_q, rhs)
            else:
                report.add_counterexample(
                    stage=stage.index, **{field: where},
                    lhs_sq=str(Fraction(lhs, s_sq)),
                    rhs_sq=str(Fraction(y_sq, s_sq) * value * value),
                )
    report.meta["worst_ratio_sq"] = str(Fraction(*worst)) if worst is not None else None
    return report, tables, s_sq


def check_morphism_bound(universe, target: TargetSpace):
    """||phi(z)|| <= ||y|| * ||z|| on norm stages, and the metric analogue
    sigma(a, b) <= ||y|| * rho(a, b) on metric stages; compares squares so
    Euclidean targets stay exact.  Reports the worst squared ratio."""
    return _bound_pass(universe, target)[0]


def sigma_table(universe, target: TargetSpace):
    """The sigma tables, and the morphism-bound report of the same pass."""
    report, tables, s_sq = _bound_pass(universe, target)
    metric_sq, norm_sq = (
        {n: {k: Fraction(v, s_sq) for k, v in t.items()} for n, t in tables[kind].items()}
        for kind in ("word", "vector")
    )
    return SigmaTable(target=target, metric_sq=metric_sq, norm_sq=norm_sq), report


def check_operation_preservation(universe, target: TargetSpace, samples: int = 200, seed: int = 0):
    """phi preserves both structures: products map to sums, inverses to
    negations, combinations to weighted sums (sampled in-stage instances:
    products and inverses on each word stage, then sums on each norm stage)."""
    from .verify import VerificationReport

    phi = PhiMap(universe, target)
    store = universe.store
    rng = random.Random(seed)
    report = VerificationReport(suite=f"operation preservation {target.label()}")

    def sample(stage, op: str, arity: int, operate, image) -> None:
        members = list(stage.members)
        for _ in range(samples):
            args = tuple(rng.choice(members) for _ in range(arity))
            out = store.lookup(operate(*args))
            if out is None or out not in stage.member_set:
                continue
            report.attempted += 1
            if phi(out) == image(*map(phi, args)):
                report.passed += 1
            else:
                where = {"pair": args} if arity == 2 else {"element": args[0]}
                report.add_counterexample(stage=stage.index, op=op, **where)

    def add(u, v):
        return tuple(x + y for x, y in zip(u, v))

    for stage in (s for s in universe.stages if s.sealed and s.kind == "word"):
        sample(stage, "mul", 2, store.group_mul, add)
        sample(stage, "inv", 1, store.group_inv, lambda v: tuple(-x for x in v))
    for stage in (s for s in universe.stages if s.sealed and s.kind == "vector" and s.basis):
        sample(stage, "add", 2, lambda a, b: store.lin_combine([(DY_ONE, a), (DY_ONE, b)]), add)
    return report
