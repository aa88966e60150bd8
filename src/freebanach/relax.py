"""Greatest-fixpoint relaxation of downward-closure constraint systems.

Both table extensions are characterized as the pointwise-greatest
nonnegative function lying below given initial upper bounds and closed
under a family of inequalities.  The engine here computes that function by
synchronous sweeps that replace f(i) with min(f(i), rule bound) until a
full sweep changes nothing.  Updates are monotone non-increasing and
bounded below by zero; if the sweep cap is hit before stability the run
fails hard rather than returning an unconverged table.

Three realizations share those semantics:

* ``relax_fixpoint``      -- explicit ``Rule`` lists over arbitrary hashable
                             indices (exact ``Fraction`` arithmetic);
* ``PairComposition``     -- the word-pair composition family
                             D(P.Q) <= D(P) + D(Q) used by the metric
                             extension, vectorized over scaled integers;
* ``LatticeSystem``       -- coefficient-lattice step/homogeneity families,
                             same scaling.  The build no longer calls it:
                             the norm is the molecule gauge gamma, and a
                             stage with an inverse-convex instance is
                             refused (see ``norm_ext``).

The bulk families are evaluated against the previous round's snapshot in a
fixed order, so results are independent of rule order and bit-identical
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

from .scalars import common_denominator

Index = Hashable
INF = None  # +infinity bound is represented as None in explicit systems

_INT_INF = 1 << 62


class RelaxError(RuntimeError):
    pass


class NonConvergenceError(RelaxError):
    """Sweep cap reached before a stable fixpoint; the table is not returned."""


class ScaleOverflowError(RelaxError):
    """Scaled-integer arithmetic would exceed the int64 safety margin."""


@dataclass(frozen=True)
class Equality:
    """f(left) = f(right), applied as min-propagation in both directions."""

    left: Index
    right: Index


@dataclass(frozen=True)
class UpperCombo:
    """f(target) <= sum of coeff * f(source) with nonnegative coefficients."""

    target: Index
    terms: tuple[tuple[Fraction, Index], ...]

    def __post_init__(self):
        for c, _ in self.terms:
            if c < 0:
                raise ValueError("UpperCombo coefficients must be >= 0")


Rule = Equality | UpperCombo


@dataclass
class ConstraintSystem:
    indices: tuple[Index, ...]
    bounds: dict  # Index -> Fraction | None (None = unconstrained / +inf)
    rules: list = field(default_factory=list)

    def validate(self) -> None:
        known = set(self.indices)
        for i in self.bounds:
            if i not in known:
                raise ValueError(f"bound on unknown index {i!r}")
        for rule in self.rules:
            if isinstance(rule, Equality):
                refs = (rule.left, rule.right)
            else:
                refs = (rule.target,) + tuple(j for _, j in rule.terms)
            for r in refs:
                if r not in known:
                    raise ValueError(f"rule references unknown index {r!r}")


@dataclass
class RelaxResult:
    values: dict  # Index -> Fraction for every index with a finite value
    unconstrained: tuple  # indices still at +inf at the fixpoint
    sweeps: int

    def __getitem__(self, i: Index) -> Fraction:
        return self.values[i]


def _combo_value(rule: UpperCombo, f: dict) -> Optional[Fraction]:
    total = Fraction(0)
    for c, j in rule.terms:
        if c == 0:
            continue
        v = f.get(j)
        if v is None:
            return None
        total += c * v
    return total


def relax_fixpoint(sys: ConstraintSystem, sweep_cap: Optional[int] = None) -> RelaxResult:
    """Greatest f <= bounds satisfying every rule, by sweeping to stability.

    Values are exact rationals and every update strictly decreases one of
    them, but convergence in finitely many sweeps is asserted, not proved:
    after ``sweep_cap`` sweeps (default 10 * |indices|) a NonConvergenceError
    is raised so that a counterexample is visible instead of silent.
    """
    sys.validate()
    if sweep_cap is None:
        sweep_cap = max(10, 10 * len(sys.indices))
    f: dict = {i: v for i, v in sys.bounds.items() if v is not None}
    sweeps = 0
    while True:
        if sweeps > sweep_cap:
            raise NonConvergenceError(
                f"no stable fixpoint after {sweeps - 1} sweeps over {len(sys.indices)} indices"
            )
        sweeps += 1
        snapshot = dict(f)
        for rule in sys.rules:
            if isinstance(rule, Equality):
                a = snapshot.get(rule.left)
                b = snapshot.get(rule.right)
                for tgt, other in ((rule.left, b), (rule.right, a)):
                    if other is None:
                        continue
                    cur = f.get(tgt)
                    if cur is None or other < cur:
                        f[tgt] = other
            else:
                v = _combo_value(rule, snapshot)
                if v is None:
                    continue
                cur = f.get(rule.target)
                if cur is None or v < cur:
                    f[rule.target] = v
        if f == snapshot:
            break
    unconstrained = tuple(i for i in sys.indices if i not in f)
    return RelaxResult(values=f, unconstrained=unconstrained, sweeps=sweeps)


def brute_force_oracle(sys: ConstraintSystem, depth: int, budget: int = 2_000_000) -> dict:
    """Minimum bound reachable per index by rule-application trees of the
    given depth; equals relax_fixpoint output once depth covers the rule
    dependency diameter.  Exhaustive and memoized; small systems only."""
    sys.validate()
    by_target: dict = {}
    for rule in sys.rules:
        if isinstance(rule, Equality):
            by_target.setdefault(rule.left, []).append(UpperCombo(rule.left, ((Fraction(1), rule.right),)))
            by_target.setdefault(rule.right, []).append(UpperCombo(rule.right, ((Fraction(1), rule.left),)))
        else:
            by_target.setdefault(rule.target, []).append(rule)
    memo: dict = {}
    calls = 0

    def best(i: Index, d: int) -> Optional[Fraction]:
        nonlocal calls
        calls += 1
        if calls > budget:
            raise RelaxError(f"oracle budget {budget} exceeded")
        key = (i, d)
        if key in memo:
            return memo[key]
        out = sys.bounds.get(i)
        if d > 0:
            for rule in by_target.get(i, ()):
                total = Fraction(0)
                ok = True
                for c, j in rule.terms:
                    if c == 0:
                        continue
                    sub = best(j, d - 1)
                    if sub is None:
                        ok = False
                        break
                    total += c * sub
                if ok and (out is None or total < out):
                    out = total
        memo[key] = out
        return out

    return {i: v for i in sys.indices if (v := best(i, depth)) is not None}


# ---------------------------------------------------------------------------
# scaled-integer helpers shared by the bulk engines
# ---------------------------------------------------------------------------


def _scale_for(values: Iterable[Fraction], extra_denoms: Iterable[int] = ()) -> int:
    from math import gcd

    scale = common_denominator(values)
    for d in extra_denoms:
        if d:
            scale = scale * d // gcd(scale, d)
    return scale


def _to_scaled(value: Fraction, scale: int) -> int:
    num = value.numerator * scale
    if num % value.denominator:
        raise ScaleOverflowError(f"{value} not representable at scale {scale}")
    out = num // value.denominator
    if abs(out) >= _INT_INF // 4:
        raise ScaleOverflowError(f"scaled value {out} too large")
    return out


class FractionRules:
    """Explicit UpperCombo instances evaluated exactly against a scaled-int
    snapshot; used for the convex-coefficient rule families inside the bulk
    engines, which stay small enough to never need vectorizing."""

    def __init__(self, scale: int):
        self.scale = scale
        self.rules: list[tuple[int, tuple[tuple[Fraction, int], ...]]] = []

    def add(self, target: int, terms: Sequence[tuple[Fraction, int]]) -> None:
        self.rules.append((target, tuple(terms)))

    def apply(self, flat: np.ndarray) -> bool:
        """One synchronous pass; returns True if anything changed."""
        if not self.rules:
            return False
        snapshot = flat.copy()
        changed = False
        for target, terms in self.rules:
            total = Fraction(0)
            ok = True
            for c, j in terms:
                v = int(snapshot[j])
                if v >= _INT_INF:
                    ok = False
                    break
                total += c * Fraction(v, self.scale)
            if not ok:
                continue
            new = _to_scaled(total, self.scale)
            if new < flat[target]:
                flat[target] = new
                changed = True
        return changed


# ---------------------------------------------------------------------------
# pair-composition engine (metric side)
# ---------------------------------------------------------------------------


class PairComposition:
    """Min-plus closure of seeded word-pair cells under composition
    D((uw)', (vz)') <= D(u, v) + D(w, z), with optional simultaneous-inverse
    equality and explicit convex instances.

    ``prod[u, w]`` maps a word pair to the index of its reduced product, or
    -1 when the product leaves the ambient word set; composition is
    restricted to a generator cell list, which is complete for derivations
    whose left-to-right partial products stay inside the ambient set.
    """

    def __init__(self, n_words: int, prod: np.ndarray, inv: Optional[np.ndarray] = None):
        self.n = n_words
        self.prod = prod
        self.inv = inv
        self.seeds: dict[tuple[int, int], Fraction] = {}
        self.generators: list[tuple[int, int]] = []
        self.fraction_rules: list[tuple[tuple[int, int], tuple[tuple[Fraction, tuple[int, int]], ...]]] = []

    def seed(self, u: int, v: int, value: Fraction) -> None:
        key = (u, v)
        cur = self.seeds.get(key)
        if cur is None or value < cur:
            self.seeds[key] = value

    def add_generator(self, u: int, v: int) -> None:
        self.generators.append((u, v))

    def add_convex(self, target: tuple[int, int], terms: Sequence[tuple[Fraction, tuple[int, int]]]) -> None:
        self.fraction_rules.append((target, tuple(terms)))

    def solve(self, sweep_cap: int = 200) -> tuple[dict[tuple[int, int], Fraction], int]:
        coeff_denoms = [c.denominator for _, terms in self.fraction_rules for c, _ in terms]
        scale = _scale_for(self.seeds.values(), coeff_denoms)
        for attempt in range(6):
            try:
                return self._solve_scaled(scale, sweep_cap)
            except ScaleOverflowError:
                scale *= 4
        raise ScaleOverflowError("could not find a workable common denominator")

    def _solve_scaled(self, scale: int, sweep_cap: int) -> tuple[dict[tuple[int, int], Fraction], int]:
        n = self.n
        D = np.full(n * n, _INT_INF, dtype=np.int64)
        for (u, v), val in self.seeds.items():
            s = _to_scaled(val, scale)
            idx = u * n + v
            if s < D[idx]:
                D[idx] = s
        gen = [(u, v) for (u, v) in self.generators]
        frac = FractionRules(scale)
        for target, terms in self.fraction_rules:
            frac.add(target[0] * n + target[1], [(c, j[0] * n + j[1]) for c, j in terms])

        prod = self.prod
        sweeps = 0
        while True:
            if sweeps > sweep_cap:
                raise NonConvergenceError(f"pair composition unstable after {sweeps - 1} sweeps")
            sweeps += 1
            before = D.copy()
            finite = np.nonzero(D < _INT_INF)[0]
            fu, fv = finite // n, finite % n
            fval = D[finite]
            for w, z in gen:
                gval = D[w * n + z]
                if gval >= _INT_INF:
                    continue
                # right composition: (u, v) . (w, z)
                pu = prod[fu, w]
                pv = prod[fv, z]
                ok = (pu >= 0) & (pv >= 0)
                if ok.any():
                    tgt = pu[ok].astype(np.int64) * n + pv[ok]
                    np.minimum.at(D, tgt, fval[ok] + gval)
                # left composition: (w, z) . (u, v)
                pu = prod[w, fu]
                pv = prod[z, fv]
                ok = (pu >= 0) & (pv >= 0)
                if ok.any():
                    tgt = pu[ok].astype(np.int64) * n + pv[ok]
                    np.minimum.at(D, tgt, gval + fval[ok])
            if self.inv is not None:
                sq = D.reshape(n, n)
                mirrored = sq[self.inv][:, self.inv]
                np.minimum(sq, mirrored, out=sq)
            frac.apply(D)
            if np.array_equal(D, before):
                break
        out = {}
        for idx in np.nonzero(D < _INT_INF)[0]:
            out[(int(idx) // n, int(idx) % n)] = Fraction(int(D[idx]), scale)
        return out, sweeps


# ---------------------------------------------------------------------------
# coefficient-lattice engine (norm side)
# ---------------------------------------------------------------------------


class LatticeSystem:
    """Relaxation over a uniform coefficient lattice: cells are coefficient
    vectors with entries from one sorted dyadic value list per coordinate.

    Families: step rules f(v) <= f(v - u) + f(u) for designated step cells u
    (realizing unbounded-summand subadditivity by composition), two-sided
    homogeneity maps f(alpha v) = |alpha| f(v) on in-lattice pairs, and
    explicit convex instances.
    """

    def __init__(self, radix: int, dim: int):
        self.radix = radix
        self.dim = dim
        self.size = radix**dim
        self.shape = (radix,) * dim
        self.seeds: dict[int, Fraction] = {}
        self.steps: list[tuple[tuple[int, ...], int]] = []  # (digit offset, weight cell)
        self.homogeneity: list[tuple[np.ndarray, np.ndarray, Fraction]] = []
        self.fraction_rules: list[tuple[int, tuple[tuple[Fraction, int], ...]]] = []

    def cell(self, digits: Sequence[int]) -> int:
        idx = 0
        for d in digits:
            idx = idx * self.radix + d
        return idx

    def seed(self, cell: int, value: Fraction) -> None:
        cur = self.seeds.get(cell)
        if cur is None or value < cur:
            self.seeds[cell] = value

    def add_step(self, offset: Sequence[int], weight_cell: int) -> None:
        """Step by a member vector: ``offset`` is its digit displacement from
        the zero cell and ``weight_cell`` the cell holding its own (current)
        value, which is the step weight."""
        self.steps.append((tuple(offset), weight_cell))

    def add_homogeneity(self, src_cells: np.ndarray, dst_cells: np.ndarray, factor: Fraction) -> None:
        """f(dst) <= factor * f(src) entrywise (pair each map with its inverse
        to encode the equality)."""
        self.homogeneity.append((src_cells, dst_cells, factor))

    def add_convex(self, target: int, terms: Sequence[tuple[Fraction, int]]) -> None:
        self.fraction_rules.append((target, tuple(terms)))

    def _apply_step(self, f: np.ndarray, offset: tuple[int, ...], weight: int) -> bool:
        src: list[slice] = []
        dst: list[slice] = []
        for o in offset:
            if o >= 0:
                src.append(slice(0, self.radix - o))
                dst.append(slice(o, self.radix))
            else:
                src.append(slice(-o, self.radix))
                dst.append(slice(0, self.radix + o))
        s = f[tuple(src)]
        d = f[tuple(dst)]
        finite = s < _INT_INF
        if not finite.any():
            return False
        cand = np.where(finite, s + weight, _INT_INF)
        improved = cand < d
        if improved.any():
            np.minimum(d, cand, out=d)
            return True
        return False

    def solve(self, sweep_cap: int = 200) -> tuple[dict[int, Fraction], int]:
        coeff_denoms = [c.denominator for _, terms in self.fraction_rules for c, _ in terms]
        coeff_denoms += [f.denominator for _, _, f in self.homogeneity]
        scale = _scale_for(self.seeds.values(), coeff_denoms)
        for attempt in range(6):
            try:
                return self._solve_scaled(scale, sweep_cap)
            except ScaleOverflowError:
                scale *= 4
        raise ScaleOverflowError("could not find a workable common denominator")

    def _solve_scaled(self, scale: int, sweep_cap: int) -> tuple[dict[int, Fraction], int]:
        flat = np.full(self.size, _INT_INF, dtype=np.int64)
        for cell, val in self.seeds.items():
            s = _to_scaled(val, scale)
            if s < flat[cell]:
                flat[cell] = s
        frac = FractionRules(scale)
        for target, terms in self.fraction_rules:
            frac.add(target, terms)

        f = flat.reshape(self.shape)
        sweeps = 0
        while True:
            if sweeps > sweep_cap:
                raise NonConvergenceError(f"lattice relax unstable after {sweeps - 1} sweeps")
            sweeps += 1
            before = flat.copy()
            for off, cell in self.steps:
                w = int(flat[cell])
                if w >= _INT_INF:
                    continue
                self._apply_step(f, off, w)
            for src, dst, factor in self.homogeneity:
                vals = flat[src]
                finite = vals < _INT_INF
                if not finite.any():
                    continue
                num, den = factor.numerator, factor.denominator
                scaled = vals[finite] * num
                if np.any(scaled % den):
                    raise ScaleOverflowError("homogeneity step not representable")
                cand = scaled // den
                tgt = dst[finite]
                np.minimum.at(flat, tgt, cand)
            frac.apply(flat)
            if np.array_equal(flat, before):
                break
        out = {int(i): Fraction(int(flat[i]), scale) for i in np.nonzero(flat < _INT_INF)[0]}
        return out, sweeps
