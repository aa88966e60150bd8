"""The freeness property at desk scale, through the one real map tau.

An image y of the generator in a commutative Banach space (R^d with the
absolute-value, maximum or Euclidean norm, multiplication taken to be
addition) determines a unique operation-preserving map phi' on the tower.
Each such phi' is tau y, where tau is the map into (R, |.|) with x -> 1.
By induction over the stages: e goes to 0; a word goes to the signed sum
of its letters' images, each tau(letter) y (x's is 1 y); a combination
sum c_b b goes to sum c_b tau(b) y.  So, for every norm,

    ||phi'(a) - phi'(b)|| = |tau(a) - tau(b)| ||y||,

and a target's morphism bound (||phi'(z)|| <= ||y|| ||z|| on norm stages,
sigma(a, b) <= ||y|| rho(a, b) on word stages) is tau's bound
(|tau(z)| <= ||z||, |tau(a) - tau(b)| <= rho(a, b)) times ||y||, met by
every entry when y = 0.  phi' preserves an operation instance
exactly when tau does, or y = 0.  So tau is checked once, and
``for_target`` renders each target's report by ||y||^2, rational for
every kind.  The pullback's splitting inequality needs no check: it is
the triangle inequality of the reals, whatever rho is.  Commutative
targets cannot see commutators, since tau(ab) = tau(ba).  The tower
itself is a non-commutative target, under the involution sigma fixed by
x -> x^-1.  sigma is an automorphism, sigma(ab) = sigma(a) sigma(b), not
order-reversing, and no section checks it yet.  The order-reversing
g -> g^-1, (ab)^-1 = b^-1 a^-1, is condition 3's inversion, which
``verify`` already checks.

Operation preservation is checked on every instance.  On a word stage it
is one array comparison on the stage's group law (``TermStore.group_law``):
S tau(P[i, j]) = S tau(i) + S tau(j) wherever the product P[i, j] is a
member, and S tau(inv[i]) = -S tau(i) wherever the inverse is.  On a norm
stage sums go to sums by a proof, not a check: condition 1
(``stages.off_grid_cells``) fixes each member's coefficients to its row
of ``Stage.coordinates``, and tau's column is those rows times tau of the
basis (``TauMap._product``), a linear map.  So whenever a + b is a member,
its row is the sum of a's and b's rows, and tau(a + b) = tau(a) + tau(b).

S tau is exact in Python ints, with S = 2^K and K the sum, over the norm
stages with a basis, of the largest denominator exponent of their scalar
set: every coefficient function into that set is a member, so member
images have denominators dividing S.  ``TauMap`` holds one integer column
per stage: letter sums on a word stage; on a norm stage the
members' ``Stage.coordinates`` (numerators over 2^k) times the basis
images, divided by 2^k exactly (a remainder raises ``InexactDivision``).
Every array is int64 while ``lp._fit``'s explicit bound covers each
partial result, and Python ints past it, so nothing wraps.

tau is derived once per built tower: the checks and ``phi_eval`` read one
``TauMap`` per universe, its bound pass and its preservation pass, rebuilt
only when the universe holds other stage objects or another store;
stages are frozen with read-only tables, and no id's term ever changes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from itertools import combinations

import numpy as np

from .lp import InexactDivision, _absmax, _fit, _ints
from .norm_ext import scalar_shift
from .scalars import fraction_str
from .terms import pair_key

Vec = tuple[Fraction, ...]

KINDS = ("abs", "max", "euclid")


@dataclass(frozen=True)
class TargetSpace:
    """A finite-dimensional commutative target with an exact squared norm."""

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

    def norm_sq(self, v: Vec) -> Fraction:
        if self.kind == "euclid":
            return sum(x * x for x in v)
        top = max(map(abs, v), default=Fraction(0))
        return top * top

    def y_norm_sq(self) -> Fraction:
        return self.norm_sq(self.image)

    def describe(self) -> dict:
        return {"kind": self.kind, "image": [fraction_str(x) for x in self.image]}

    def label(self) -> str:
        return f"{self.kind}[{', '.join(fraction_str(x) for x in self.image)}]"


class TauMap:
    """S tau, ``scale`` = S (module docstring): ``columns[n]`` holds stage
    n's members' values in member order.  A call reads an id's value in the
    first stage that holds it; an id in no built stage raises
    ``NotBuiltError``."""

    def __init__(self, universe):
        self.store, x = universe.store, universe.x_id
        self.stages = list(universe.stages)
        self.scale = 1 << sum(scalar_shift(s) for s in self.stages if s.kind == "vector" and s.basis)
        self.columns: dict[int, np.ndarray] = {}
        self._of: dict[int, int] = {}
        for stage in self.stages:
            if stage.kind == "word":  # each word's letters' images, signed and summed
                words = map(self.store.word_of, stage.members)
                column = _ints([sum(sign * (self.scale if b == x else self(b)) for b, sign in w) for w in words])
            elif stage.basis:
                column = self._product(stage)
            else:
                column = np.zeros(len(stage.members), dtype=np.int64)
            self.columns[stage.index] = column
            for m, v in zip(stage.members, column.tolist()):
                self._of.setdefault(m, v)

    def _product(self, stage) -> np.ndarray:
        """The members' coordinates (numerators over 2^shift) times S tau
        of the basis, then divided by 2^shift exactly."""
        shift = scalar_shift(stage)
        images = _ints([self(b) for b in stage.basis])
        top = max(abs(d.num) << (shift - d.log2den) for d in stage.scalar_set)  # the largest |coordinate|
        most = _absmax(images)
        coords, images = _fit(max(len(stage.basis) * top * most, top, most), stage.coordinates(shift), images)
        column = coords @ images
        inexact = np.flatnonzero(column & ((1 << shift) - 1))
        if inexact.size:
            raise InexactDivision(f"tau of {stage.members[inexact[0]]} is not a multiple of 1/{self.scale}")
        return column >> shift

    def __call__(self, eid: int) -> int:
        if eid not in self._of:
            from .stages import NotBuiltError

            raise NotBuiltError(f"tau of {eid}: the id is in no built stage")
        return self._of[eid]

    def bound_pass(self):
        """tau's bound on every entry of every stage (a norm stage's
        members, a word stage's member pairs i < j in row-major order): for
        an entry T/L of ``Stage.scaled_table`` and d = S tau, |d| L <= S |T|,
        in int64 or Python ints by one ``lp._fit`` bound that covers the
        worst ratio's cross products too.  Counterexample squares are tau's."""
        from .verify import VerificationReport

        s = self.scale
        report = VerificationReport(suite="morphism bound")
        best = []  # per stage, a greatest S |tau| / |table value| over its passing entries
        for stage in self.stages:
            d, members = self.columns[stage.index], stage.members
            table, scale = stage.scaled_table()
            if stage.kind == "vector":
                field, keys = "element", members
            else:
                field, keys = "pair", list(combinations(members, 2))
                i, j = np.triu_indices(len(members), 1)
                d, table = d[i] - d[j], table[i, j]
            bound = max(max(1, _absmax(d)) * scale, s) * max(1, _absmax(table))
            d, p = _fit(bound, d, table)
            lhs, p = np.abs(d) * scale, np.abs(p)
            ok = lhs <= s * p
            report.attempted += len(keys)
            report.passed += int(ok.sum())
            for k in np.flatnonzero(~ok).tolist():
                lhs_sq, rhs_sq = Fraction(int(d[k]) ** 2, s * s), Fraction(int(p[k]), scale) ** 2
                report.add_counterexample(stage=stage.index, **{field: keys[k]}, lhs_sq=lhs_sq, rhs_sq=rhs_sq)
            live = np.flatnonzero(ok & (p > 0))
            if len(live):
                k = live[_argmax_ratio(lhs[live], p[live])]
                best.append(Fraction(int(lhs[k]), int(p[k])))
        report.meta["worst_ratio_sq"] = str((max(best) / s) ** 2) if best else None
        return report

    def preservation_pass(self):
        """tau maps every in-stage product to the sum and every in-stage
        inverse to the negation, on each word stage's group law; a word
        stage's column is below 2^62 in int64 (``lp._ints``), so a sum of
        two entries does not wrap.  Sums on norm stages hold by the module
        docstring's proof, which the meta names."""
        from .verify import VerificationReport

        report = VerificationReport(suite="operation preservation")
        report.meta["proof"] = "norm-stage sums: tau is linear on the grid condition 1 checks (universal docstring)"
        for stage in (s for s in self.stages if s.kind == "word"):
            col, members = self.columns[stage.index], stage.members
            P, inv = self.store.group_law(members)
            i, j = np.nonzero(P >= 0)
            [h] = np.nonzero(inv >= 0)
            for op, args, ok in (("mul", np.stack([i, j], 1), col[P[i, j]] == col[i] + col[j]),
                                 ("inv", h[:, None], col[inv[h]] == -col[h])):
                report.attempted += len(ok)
                report.passed += int(ok.sum())
                for t in np.flatnonzero(~ok):
                    ids = tuple(members[k] for k in args[t])
                    where = {"pair": ids} if op == "mul" else {"element": ids[0]}
                    report.add_counterexample(stage=stage.index, op=op, **where)
        return report


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


def for_target(tau_report, target: TargetSpace):
    """tau's report as a target's: the suite named for the target, the same
    counts and meta, counterexample squares times ||y||^2.  With y = 0
    every entry passes, and a bound's worst ratio is None."""
    y_sq = target.y_norm_sq()
    suite = f"{tau_report.suite} {target.label()}"
    if not y_sq:
        meta = {k: None if k == "worst_ratio_sq" else v for k, v in tau_report.meta.items()
                if k != "counterexample_count"}
        return replace(tau_report, suite=suite, passed=tau_report.attempted, counterexamples=[], meta=meta)
    scaled = [{k: str(y_sq * v) if k.endswith("_sq") else v for k, v in ce.items()}
              for ce in tau_report.counterexamples]
    return replace(tau_report, suite=suite, counterexamples=scaled, meta=dict(tau_report.meta))


_TAUS = weakref.WeakKeyDictionary()  # universe -> (its TauMap, tau's reports by key)


def _tau(universe, key=None, make=None):
    """The universe's one ``TauMap`` (module docstring), or with ``key``
    tau's report ``make(tau)`` under that key, made once.  The memo holds
    the store and stages, never the universe, and reports leave it only
    through ``for_target``, which copies them."""
    tau, reports = _TAUS.get(universe, (None, None))
    if tau is None or tau.store is not universe.store or list(map(id, tau.stages)) != list(map(id, universe.stages)):
        tau, reports = _TAUS[universe] = TauMap(universe), {}
    if key is not None and key not in reports:
        reports[key] = make(tau)
    return tau if key is None else reports[key]


def phi_eval(universe, eid: int, target: TargetSpace) -> Vec:
    """phi'(eid) = tau(eid) y, exactly."""
    tau = _tau(universe)
    return tuple(Fraction(tau(eid), tau.scale) * c for c in target.image)


@dataclass
class SigmaTable:
    """One target's pullback metric and norm per stage, squared:
    ||y||^2 (tau(a) - tau(b))^2 per member pair of a word stage and
    ||y||^2 tau(z)^2 per member of a norm stage, built on first read."""

    target: TargetSpace
    tau: TauMap

    def _tables(self, kind: str) -> dict:
        y_sq, s_sq, out = self.target.y_norm_sq(), self.tau.scale**2, {}
        for stage in (s for s in self.tau.stages if s.kind == kind):
            at = dict(zip(stage.members, self.tau.columns[stage.index].tolist()))
            if kind == "word":
                at = {pair_key(a, b): at[a] - at[b] for a, b in combinations(stage.members, 2)}
            out[stage.index] = {key: y_sq * Fraction(d * d, s_sq) for key, d in at.items()}
        return out

    @cached_property
    def metric_sq(self) -> dict[int, dict[tuple[int, int], Fraction]]:
        return self._tables("word")

    @cached_property
    def norm_sq(self) -> dict[int, dict[int, Fraction]]:
        return self._tables("vector")


def check_morphism_bound(universe, target: TargetSpace):
    """||phi(z)|| <= ||y|| ||z|| and sigma(a, b) <= ||y|| rho(a, b), with the
    worst squared ratio: tau's bound pass, rendered for the target."""
    return for_target(_tau(universe, "bound", TauMap.bound_pass), target)


def sigma_table(universe, target: TargetSpace):
    """The sigma tables, and the morphism-bound report of the same map."""
    return SigmaTable(target=target, tau=_tau(universe)), for_target(_tau(universe, "bound", TauMap.bound_pass), target)


def check_operation_preservation(universe, target: TargetSpace, seed: int = 0):
    """phi preserves both structures: tau's preservation pass, rendered for
    the target.  The pass is exhaustive, so ``seed`` is read by nothing; it
    stays while the benchmark's workload (``perfbench/workloads.py``) and
    its contract test still pass ``seed=``."""
    return for_target(_tau(universe, "preservation", TauMap.preservation_pass), target)
