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
dividing S.  So ``PhiMap`` holds S phi' of each sealed stage as one
integer array, a row per member in member order.  On a norm stage it is
one product, the members' ``Stage.coordinates`` (numerators over 2^k)
times the basis images, divided by 2^k exactly: a remainder raises
``InexactDivision`` rather than rounding.  On a word stage it is the
letter sums of the members' words.  Every array is int64 while the
explicit bound of ``lp._fit`` covers each partial result, and Python ints
(object arrays) past it, so nothing wraps.

Each property is checked once.  ``check_morphism_bound`` checks that phi'
never increases norms, entry for entry: ||phi(z)|| <= ||y|| ||z|| and
sigma(a, b) <= ||y|| rho(a, b).  It compares the rows with the tables as
integer arrays too, one pass per stage (``_bound_pass``).
``sigma_table`` returns the pullback tables computed by the same pass,
with the same report; ``check_operation_preservation`` samples the two
structures on the same rows.  The
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
from functools import cached_property
from fractions import Fraction
from math import lcm

import numpy as np

from .lp import InexactDivision, _absmax, _fit, _ints
from .norm_ext import scalar_shift
from .scalars import DY_ONE, fraction_str
from .terms import pair_key

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
    """S times the unique operation-preserving map into a target, as integer
    rows; ``scale`` is S (see the module docstring).  ``rows[n]`` holds S phi'
    of sealed stage n's members in member order, one row each, in int64 or,
    past ``lp._fit``'s bound, Python ints: stage 0 the zero row, a word stage
    the letter sums of its members' words, a norm stage one product.  A call
    reads the row of the id in the first sealed stage that holds it; an id
    in no sealed stage raises ``NotBuiltError``."""

    def __init__(self, universe, target: TargetSpace):
        self.target = target
        sealed = [stage for stage in universe.stages if stage.sealed]
        k = sum(scalar_shift(stage) for stage in sealed if stage.kind == "vector" and stage.basis)
        self.scale = lcm(*(q.denominator for q in target.image)) << k
        self.image = tuple(int(q * self.scale) for q in target.image)
        self.stages: list = []  # the sealed stages filled so far, in order
        self.rows: dict[int, np.ndarray] = {}
        self._positions: dict[int, dict[int, int]] = {}
        for stage in sealed:
            if stage.kind == "word":
                rows = self._letter_sums(universe, stage)
            elif stage.basis:
                rows = self._product(stage)
            else:
                rows = np.zeros((len(stage.members), target.dim), dtype=np.int64)
            self.rows[stage.index] = rows
            self.stages.append(stage)

    def _letter_sums(self, universe, stage) -> np.ndarray:
        """Each member's letters' images, signed and summed; x's image is
        the target's, every other letter is a member of a filled stage."""
        words = [universe.store.word_of(m) for m in stage.members]
        letters = {b: self.image if b == universe.x_id else self(b) for b in {b for w in words for b, _ in w}}
        return _ints([[sum(sign * letters[b][i] for b, sign in w) for i in range(self.target.dim)] for w in words])

    def _product(self, stage) -> np.ndarray:
        """The members' coordinates (numerators over 2^shift) times S phi'
        of the basis, then divided by 2^shift exactly."""
        shift = scalar_shift(stage)
        images = _ints([self(b) for b in stage.basis])
        top = max(abs(d.num) << (shift - d.log2den) for d in stage.scalar_set)  # the largest |coordinate|
        most = _absmax(images)
        coords, images = _fit(max(len(stage.basis) * top * most, top, most), stage.coordinates(shift), images)
        rows = coords @ images
        inexact = np.flatnonzero((rows & ((1 << shift) - 1)).any(axis=1))
        if inexact.size:
            raise InexactDivision(f"phi' of {stage.members[inexact[0]]} is not a multiple of 1/{self.scale}")
        return rows >> shift

    def position(self, stage) -> dict[int, int]:
        """Member id -> its row in ``rows[stage.index]``, built on first use."""
        found = self._positions.get(stage.index)
        if found is None:
            found = self._positions[stage.index] = dict(zip(stage.members, range(len(stage.members))))
        return found

    def __call__(self, eid: int) -> tuple[int, ...]:
        for stage in self.stages:
            if eid in stage.member_set:
                return tuple(self.rows[stage.index][self.position(stage)[eid]].tolist())
        from .stages import NotBuiltError

        raise NotBuiltError(f"phi' of {eid}: the id is in no sealed stage")


def phi_eval(universe, eid: int, target: TargetSpace) -> Vec:
    phi = PhiMap(universe, target)
    return tuple(Fraction(v, phi.scale) for v in phi(eid))


@dataclass
class SigmaTable:
    """Pullback (pseudo)metric and (pseudo)norm per stage, stored squared so
    Euclidean targets remain exact.  ``scaled[kind][n]`` holds sealed stage
    n's entry keys (members of a norm stage, member pairs of a word stage)
    and S^2 sigma^2 of each, as the bound pass left them, and ``s_sq`` is
    S^2; ``metric_sq`` and ``norm_sq`` are the Fraction tables, built on
    first read."""

    target: TargetSpace
    scaled: dict[str, dict[int, tuple[list, np.ndarray]]]
    s_sq: int

    @cached_property
    def metric_sq(self) -> dict[int, dict[tuple[int, int], Fraction]]:
        return {
            n: {pair_key(a, b): Fraction(v, self.s_sq) for (a, b), v in zip(keys, lhs.tolist())}
            for n, (keys, lhs) in self.scaled["word"].items()
        }

    @cached_property
    def norm_sq(self) -> dict[int, dict[int, Fraction]]:
        return {
            n: {z: Fraction(v, self.s_sq) for z, v in zip(keys, lhs.tolist())}
            for n, (keys, lhs) in self.scaled["vector"].items()
        }


def _squares(kind: str, rows: np.ndarray) -> np.ndarray:
    """S^2 ||phi'(.)||^2 of each row of S phi'."""
    if kind == "abs":
        return rows[:, 0] * rows[:, 0]
    if kind == "max":
        top = np.abs(rows).max(axis=1, initial=0)
        return top * top
    return (rows * rows).sum(axis=1)


def _argmax_ratio(num: np.ndarray, den: np.ndarray) -> int:
    """The position of a greatest num / den (every den > 0), by rounds of
    exact cross-multiplied comparisons, each halving the field."""
    field = np.arange(len(num))
    while len(field) > 1:
        half = len(field) // 2
        a, b = field[:half], field[half : 2 * half]
        wins = num[a] * den[b] >= num[b] * den[a]
        field = np.concatenate([np.where(wins, a, b), field[2 * half :]])
    return int(field[0])


def _bound_pass(universe, target: TargetSpace):
    """One pass of phi' over every sealed stage, in integer arrays: the
    morphism-bound report and the ``SigmaTable``.  A norm stage's entries
    are its members, a word stage's its member pairs i < j in row-major
    order.  For a table value p/q the bound is lhs q^2 <= Y p^2, with
    lhs = S^2 ||phi'(.)||^2 and Y = S^2 ||y||^2; one explicit bound on every
    partial result, the worst ratio's cross products included, picks int64
    or Python ints (``lp._fit``).  The worst ratio is kept as an int pair."""
    from .verify import VerificationReport

    phi = PhiMap(universe, target)
    y_sq = target.norm_sq(phi.image)
    s_sq = phi.scale * phi.scale
    report = VerificationReport(suite=f"morphism bound {target.label()}")
    scaled: dict[str, dict] = {"word": {}, "vector": {}}
    worst: tuple[int, int] | None = None
    for stage in phi.stages:
        rows, members = phi.rows[stage.index], stage.members
        if stage.kind == "vector":
            field, keys = "element", members
            values = [stage.table[z] for z in members]
        else:
            i, j = np.triu_indices(len(members), 1)
            field, keys = "pair", [(members[a], members[b]) for a, b in zip(i.tolist(), j.tolist())]
            rows = rows[i] - rows[j]
            values = [universe.rho(stage, a, b) for a, b in keys]
        nums, dens = [v.numerator for v in values], [v.denominator for v in values]
        top_p, top_q = max([1, *map(abs, nums)]), max([1, *dens])
        top_lhs = max(1, target.dim * _absmax(rows) ** 2)
        bound = max(top_lhs * top_q**2, y_sq) * top_p**2
        rows, p, q = _fit(bound, rows, np.array(nums, dtype=object), np.array(dens, dtype=object))
        lhs = _squares(target.kind, rows)
        lhs_q, p_sq = lhs * q * q, p * p
        ok = lhs_q <= y_sq * p_sq
        scaled[stage.kind][stage.index] = (keys, lhs)
        report.attempted += len(values)
        report.passed += int(ok.sum())
        for k in np.flatnonzero(~ok).tolist():
            report.add_counterexample(
                stage=stage.index, **{field: keys[k]},
                lhs_sq=str(Fraction(int(lhs[k]), s_sq)),
                rhs_sq=str(Fraction(y_sq, s_sq) * values[k] * values[k]),
            )
        live = np.flatnonzero(ok & (p_sq > 0)) if y_sq else []
        if len(live):
            k = live[_argmax_ratio(lhs_q[live], p_sq[live])]
            lhs_k, rhs_k = int(lhs_q[k]), y_sq * int(p_sq[k])
            if worst is None or lhs_k * worst[1] > worst[0] * rhs_k:
                worst = (lhs_k, rhs_k)
    report.meta["worst_ratio_sq"] = str(Fraction(*worst)) if worst is not None else None
    return report, SigmaTable(target=target, scaled=scaled, s_sq=s_sq)


def check_morphism_bound(universe, target: TargetSpace):
    """||phi(z)|| <= ||y|| * ||z|| on norm stages, and the metric analogue
    sigma(a, b) <= ||y|| * rho(a, b) on metric stages; compares squares so
    Euclidean targets stay exact.  Reports the worst squared ratio."""
    return _bound_pass(universe, target)[0]


def sigma_table(universe, target: TargetSpace):
    """The sigma tables, and the morphism-bound report of the same pass."""
    report, table = _bound_pass(universe, target)
    return table, report


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
        members, rows, at = stage.members, phi.rows[stage.index].tolist(), phi.position(stage)
        for _ in range(samples):
            args = tuple(rng.choice(members) for _ in range(arity))
            out = at.get(store.lookup(operate(*args)))
            if out is None:  # not in the stage
                continue
            report.attempted += 1
            if rows[out] == image(*(rows[at[a]] for a in args)):
                report.passed += 1
            else:
                where = {"pair": args} if arity == 2 else {"element": args[0]}
                report.add_counterexample(stage=stage.index, op=op, **where)

    def add(u, v):
        return [x + y for x, y in zip(u, v)]

    for stage in (s for s in universe.stages if s.sealed and s.kind == "word"):
        sample(stage, "mul", 2, store.group_mul, add)
        sample(stage, "inv", 1, store.group_inv, lambda v: [-x for x in v])
    for stage in (s for s in universe.stages if s.sealed and s.kind == "vector" and s.basis):
        sample(stage, "add", 2, lambda a, b: store.lin_combine([(DY_ONE, a), (DY_ONE, b)]), add)
    return report
