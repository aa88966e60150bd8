"""The freeness property at desk scale.

Every element of the tower is produced from the single generator by group
multiplication, inversion, formal addition and dyadic scaling, so a choice
of image vector y in a commutative target determines a unique
operation-preserving map phi'.  Commutative Banach spaces (R^d with the
absolute-value, maximum, or Euclidean norm, multiplication taken to be
addition) already exercise the norm inequality nontrivially.

Each property is checked once.  ``check_morphism_bound`` checks that phi'
never increases norms, entry for entry: ||phi(z)|| <= ||y|| ||z|| and
sigma(a, b) <= ||y|| rho(a, b).  ``sigma_table`` returns the pullback tables
with sampled checks of the splitting inequality sigma inherits from the
target; ``check_operation_preservation`` samples the two structures.

Euclidean norms of rational vectors are irrational in general; all
Euclidean assertions compare squares, so every check stays exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .scalars import fraction_str
from .terms import ComboTerm, GenTerm, UnitTerm, WordTerm

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
            return max((abs(x) for x in v), default=Fraction(0))
        return None

    def norm_sq(self, v: Vec) -> Fraction:
        if self.kind == "euclid":
            return sum((x * x for x in v), Fraction(0))
        n = self.norm_exact(v)
        return n * n

    def y_norm_exact(self) -> Fraction | None:
        return self.norm_exact(self.image)

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
    """The unique operation-preserving map into a target, memoized by id."""

    def __init__(self, universe, target: TargetSpace):
        self.universe = universe
        self.target = target
        self._memo: dict[int, Vec] = {}

    def __call__(self, eid: int) -> Vec:
        out = self._memo.get(eid)
        if out is not None:
            return out
        term = self.universe.store.term(eid)
        d = self.target.dim
        if isinstance(term, UnitTerm):
            out = tuple(Fraction(0) for _ in range(d))
        elif isinstance(term, GenTerm):
            out = self.target.image
        elif isinstance(term, WordTerm):
            acc = [Fraction(0)] * d
            for base, sign in term.letters:
                sub = self(base)
                for i in range(d):
                    acc[i] += sub[i] if sign > 0 else -sub[i]
            out = tuple(acc)
        elif isinstance(term, ComboTerm):
            acc = [Fraction(0)] * d
            for base, coeff in term.coeffs:
                sub = self(base)
                c = coeff.as_fraction()
                for i in range(d):
                    acc[i] += c * sub[i]
            out = tuple(acc)
        else:
            raise TypeError(f"unknown term {term!r}")
        self._memo[eid] = out
        return out


def phi_eval(universe, eid: int, target: TargetSpace) -> Vec:
    return PhiMap(universe, target)(eid)


def _vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def check_morphism_bound(universe, target: TargetSpace):
    """||phi(z)|| <= ||y|| * ||z|| on norm stages, and the metric analogue
    sigma(a, b) <= ||y|| * rho(a, b) on metric stages; compares squares so
    Euclidean targets stay exact.  Reports the worst squared ratio."""
    from .verify import VerificationReport

    phi = PhiMap(universe, target)
    y_sq = target.y_norm_sq()
    report = VerificationReport(suite=f"morphism bound {target.label()}")
    worst: Fraction | None = None
    for stage in universe.stages:
        if not stage.sealed:
            continue
        if stage.kind == "vector":
            for z in stage.members:
                lhs_sq = target.norm_sq(phi(z))
                rhs_sq = y_sq * stage.table[z] * stage.table[z]
                report.attempted += 1
                if lhs_sq <= rhs_sq:
                    report.passed += 1
                    if rhs_sq > 0:
                        ratio = lhs_sq / rhs_sq
                        if worst is None or ratio > worst:
                            worst = ratio
                else:
                    report.add_counterexample(
                        stage=stage.index, element=z,
                        lhs_sq=str(lhs_sq), rhs_sq=str(rhs_sq),
                    )
        else:
            members = stage.members
            for i, a in enumerate(members):
                va = phi(a)
                for b in members[i + 1 :]:
                    lhs_sq = target.norm_sq(_vec_sub(va, phi(b)))
                    r = universe.rho(stage, a, b)
                    rhs_sq = y_sq * r * r
                    report.attempted += 1
                    if lhs_sq <= rhs_sq:
                        report.passed += 1
                        if rhs_sq > 0:
                            ratio = lhs_sq / rhs_sq
                            if worst is None or ratio > worst:
                                worst = ratio
                    else:
                        report.add_counterexample(
                            stage=stage.index, pair=(a, b),
                            lhs_sq=str(lhs_sq), rhs_sq=str(rhs_sq),
                        )
    report.meta["worst_ratio_sq"] = str(worst) if worst is not None else None
    return report


@dataclass
class SigmaTable:
    """Pullback (pseudo)metric and (pseudo)norm per stage, normalized by
    ||y|| following the construction's without-loss-of-generality step.
    Values are stored squared so Euclidean targets remain exact."""

    target: TargetSpace
    metric_sq: dict[int, dict[tuple[int, int], Fraction]]
    norm_sq: dict[int, dict[int, Fraction]]


def _sum_of_roots_dominates(lhs_sq: Fraction, a_sq: Fraction, b_sq: Fraction) -> bool:
    """sqrt(lhs_sq) <= sqrt(a_sq) + sqrt(b_sq), decided exactly by squaring
    twice (all quantities nonnegative)."""
    rest = lhs_sq - a_sq - b_sq
    if rest <= 0:
        return True
    return rest * rest <= 4 * a_sq * b_sq


def sigma_table(universe, target: TargetSpace):
    """The sigma tables, and a report of the splitting inequality the
    pullback inherits from the target, spot-checked on sampled in-stage
    quadruples.  That sigma <= ||y|| rho and |||.||| <= ||y|| ||.|| hold
    entrywise is ``check_morphism_bound``'s report."""
    from .verify import VerificationReport

    phi = PhiMap(universe, target)
    report = VerificationReport(suite=f"sigma splitting {target.label()}")
    metric_sq: dict[int, dict[tuple[int, int], Fraction]] = {}
    norm_sq: dict[int, dict[int, Fraction]] = {}
    for stage in universe.stages:
        if not stage.sealed:
            continue
        if stage.kind == "word":
            members = stage.members
            metric_sq[stage.index] = {
                (a, b) if a <= b else (b, a): target.norm_sq(_vec_sub(phi(a), phi(b)))
                for i, a in enumerate(members)
                for b in members[i + 1 :]
            }
        else:
            norm_sq[stage.index] = {z: target.norm_sq(phi(z)) for z in stage.members}
    _sigma_spot_checks(universe, phi, target, report)
    return SigmaTable(target=target, metric_sq=metric_sq, norm_sq=norm_sq), report


def _sigma_spot_checks(universe, phi, target, report, samples: int = 300) -> None:
    """Sampled instances of sigma(ab, cd) <= sigma(a, c) + sigma(b, d)."""
    store = universe.store
    rng = random.Random(universe.cfg.seed)
    for stage in universe.stages:
        if not stage.sealed or stage.kind != "word":
            continue
        members = list(stage.members)
        for _ in range(samples):
            a, b, c, d = (rng.choice(members) for _ in range(4))
            ab = store.lookup(store.group_mul(a, b))
            cd = store.lookup(store.group_mul(c, d))
            if ab is None or cd is None:
                continue
            if ab not in stage.member_set or cd not in stage.member_set:
                continue
            lhs_sq = target.norm_sq(_vec_sub(phi(ab), phi(cd)))
            ac_sq = target.norm_sq(_vec_sub(phi(a), phi(c)))
            bd_sq = target.norm_sq(_vec_sub(phi(b), phi(d)))
            report.attempted += 1
            if _sum_of_roots_dominates(lhs_sq, ac_sq, bd_sq):
                report.passed += 1
            else:
                report.add_counterexample(
                    stage=stage.index, op="sigma splitting", quadruple=(a, b, c, d)
                )


def check_operation_preservation(universe, target: TargetSpace, samples: int = 200, seed: int = 0):
    """phi preserves both structures: products map to sums, inverses to
    negations, combinations to weighted sums (sampled in-stage instances)."""
    from .verify import VerificationReport

    phi = PhiMap(universe, target)
    store = universe.store
    rng = random.Random(seed)
    report = VerificationReport(suite=f"operation preservation {target.label()}")
    word_stages = [s for s in universe.stages if s.sealed and s.kind == "word"]
    for stage in word_stages:
        members = list(stage.members)
        for _ in range(samples):
            a, b = rng.choice(members), rng.choice(members)
            p = store.lookup(store.group_mul(a, b))
            if p is None or p not in stage.member_set:
                continue
            report.attempted += 1
            want = tuple(x + y for x, y in zip(phi(a), phi(b)))
            if phi(p) == want:
                report.passed += 1
            else:
                report.add_counterexample(stage=stage.index, op="mul", pair=(a, b))
        for _ in range(samples):
            a = rng.choice(members)
            inv = store.lookup(store.group_inv(a))
            if inv is None or inv not in stage.member_set:
                continue
            report.attempted += 1
            if phi(inv) == tuple(-x for x in phi(a)):
                report.passed += 1
            else:
                report.add_counterexample(stage=stage.index, op="inv", element=a)
    vec_stages = [s for s in universe.stages if s.sealed and s.kind == "vector" and s.basis]
    for stage in vec_stages:
        members = list(stage.members)
        for _ in range(samples):
            a, b = rng.choice(members), rng.choice(members)
            s = store.combine_id(a, b, sign=1)
            if s is None or s not in stage.member_set:
                continue
            report.attempted += 1
            want = tuple(x + y for x, y in zip(phi(a), phi(b)))
            if phi(s) == want:
                report.passed += 1
            else:
                report.add_counterexample(stage=stage.index, op="add", pair=(a, b))
    return report
