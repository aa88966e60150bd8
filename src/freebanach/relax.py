"""Greatest-fixpoint relaxation of downward-closure constraint systems.

Both table extensions are characterized as the pointwise-greatest
nonnegative function lying below given initial upper bounds and closed
under a family of inequalities.  The engine here computes that function by
synchronous sweeps that replace f(i) with min(f(i), rule bound) until a
full sweep changes nothing.  Updates are monotone non-increasing and
bounded below by zero; if the sweep cap is hit before stability the run
fails hard rather than returning an unconverged table.

Two realizations share those semantics:

* ``relax_fixpoint``      -- explicit ``Rule`` lists over arbitrary hashable
                             indices (exact ``Fraction`` arithmetic);
* ``PairComposition``     -- the word-pair composition family
                             D(P.Q) <= D(P) + D(Q) used by the metric
                             extension (rho, and the rank-0 delta_0
                             its verification certifies against), over
                             scaled integers and block-sparse: per
                             generator word and side one dense block of
                             the word pairs whose products stay in the
                             word space, against all of the word's
                             generators at once and written by a minimum
                             per target, cut to the sources that can
                             still lower a target (see the class); plus
                             the inverse mirror, explicit convex instances
                             and a triangle pass over a registered member
                             set.

``PairComposition`` evaluates its bulk families against the previous
round's snapshot in a fixed order, so results are independent of rule
order and bit-identical across runs.  It reads its generator costs live,
once per generator word; the order in which values fall depends on that,
the greatest fixpoint does not.  It runs at the common denominator of its
seeds and convex coefficients, and retries at four times the scale, up to
six attempts, while a value is not exact there.

``to_scaled`` is the closure's own Fraction -> int64 conversion: it raises
``ScaleInexactError`` unless the value is exact at the scale, and
``ScaleOverflowError``, which no larger scale mends, unless it is below
2^60 in magnitude, so a sum of two converted values cannot wrap in int64.
Only ``PairComposition`` uses it; the checks read ``Stage.scaled_table``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

from .scalars import common_denominator

Index = Hashable

_INT_INF = 1 << 62
_CHUNK_CELLS = 1 << 16  # cells in a composed chunk, at most (``PairComposition``)


class RelaxError(RuntimeError):
    pass


class NonConvergenceError(RelaxError):
    """Sweep cap reached before a stable fixpoint; the table is not returned."""


class ScaleOverflowError(RelaxError):
    """Scaled-integer arithmetic would exceed the int64 safety margin."""


class ScaleInexactError(RelaxError):
    """A value is not a whole number at the scale; a larger one may fix it."""


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
# scaled-integer helpers
# ---------------------------------------------------------------------------


def to_scaled(value: Fraction, scale: int) -> int:
    """value * scale as an int, exact and below 2^60 in magnitude, or
    ScaleInexactError or ScaleOverflowError."""
    return _whole(value.numerator * scale, value.denominator)


def _whole(num: int, den: int) -> int:
    """num / den under ``to_scaled``'s two refusals."""
    out, rem = divmod(num, den)
    if rem:
        raise ScaleInexactError(f"{num}/{den} is not whole at the scale")
    if abs(out) >= _INT_INF // 4:
        raise ScaleOverflowError(f"scaled value {out} too large")
    return out


class FractionRules:
    """Explicit UpperCombo instances evaluated exactly against a scaled-int
    snapshot; used for the convex instances inside ``PairComposition``,
    which stay small enough to never need vectorizing.  An instance keeps
    its coefficients as integers over their lcm, so a pass sums Python ints
    and divides once per instance."""

    def __init__(self, scale: int):
        self.scale = scale
        # (target, lcm, terms): terms name a source cell by its position
        # among the distinct source cells, in first-use order (``_position``'s keys)
        self.rules: list[tuple[int, int, tuple[tuple[int, int], ...]]] = []
        self._position: dict[int, int] = {}

    def add(self, target: int, terms: Sequence[tuple[Fraction, int]]) -> None:
        position = self._position
        den = lcm(*(c.denominator for c, _ in terms))
        ints = tuple((c.numerator * (den // c.denominator), position.setdefault(j, len(position))) for c, j in terms)
        self.rules.append((target, den, ints))

    def apply(self, flat: np.ndarray) -> bool:
        """One synchronous pass, reading every source from one gather taken
        before the first write; returns True if anything changed."""
        if not self.rules:
            return False
        snapshot = flat[list(self._position)].tolist()
        changed = False
        for target, den, terms in self.rules:
            total = 0
            for c, j in terms:
                v = snapshot[j]
                if v >= _INT_INF:
                    break
                total += c * v
            else:
                new = _whole(total, den)
                if new < flat[target]:
                    flat[target] = new
                    changed = True
        return changed


# ---------------------------------------------------------------------------
# pair-composition engine (metric side)
# ---------------------------------------------------------------------------


class ClosureTable:
    """Closure values by word pair, converted to ``Fraction`` only for the
    cells a caller reads: ``get((u, v))`` is the value, or None at +inf."""

    def __init__(self, values: np.ndarray, scale: int):
        self._values = values
        self._scale = scale

    def get(self, cell: tuple[int, int]) -> Optional[Fraction]:
        v = int(self._values[cell])
        return None if v >= _INT_INF else Fraction(v, self._scale)


def _shift_map(line: np.ndarray, word: int, side: str) -> tuple[np.ndarray, np.ndarray]:
    """Sources whose product with ``word`` stays in the word space, and
    their products; RelaxError if two sources share a product, which a
    free group's multiplication never does."""
    src = np.nonzero(line >= 0)[0]
    tgt = line[src]
    if np.unique(tgt).size != tgt.size:
        raise RelaxError(f"{side} product with word {word} is not injective")
    return src, tgt


class PairComposition:
    """Min-plus closure of seeded word-pair cells under composition
    D((uw)', (vz)') <= D(u, v) + D(w, z), with optional simultaneous-inverse
    equality, explicit convex instances and a triangle family.

    ``space`` is a ``WordSpace``: ``space.product_lines(w)`` gives, for
    every word u, the index of the reduced product u.w (and of w.u), or -1
    when it leaves the space.  Composition is restricted to a generator
    cell list, which is complete for derivations whose left-to-right
    partial products stay inside the space.

    Blocks.  Each word's (source, target) map per side is read once off its
    product lines; a line that is not injective is no free group's product
    and is refused (RelaxError).  Per generator word w and side, one block
    puts w's sources against the concatenated sources of w's z's, each
    column at its own cost D(w, z).  v.z = v'.z' can hold across z's, so
    the block is written by ``np.minimum.at``, which keeps the least
    candidate of each target whatever the column order: the block is exact
    as the per-generator blocks were.  It is written in chunks of whole
    rows, at most min(n^2, ``_CHUNK_CELLS``) cells, so each of a chunk's
    three 8-byte temporaries (source index, block, target index) is at most
    512 KiB; or one row when a row is longer, and a row holds at most n
    cells per z, so at most n^2.

    Triangle family.  ``add_triangle(words)`` adds D(a, b) <= D(a, m) +
    D(m, b) for a, b and m among those words only, applied in place, one
    pivot m at a time (O(n^2) memory), over the finite entries of m's column
    and row: a sum of two finite values stays below 2^63, so +inf never
    wraps.

    Sweeps.  Each sweep reads sources from the snapshot ``before`` taken at
    its start, and a word's costs D(w, z) live, once per word, in
    first-generator order; then applies the inverse mirror, the triangle
    family and the convex instances.  A generator composes only the rows of
    src_w and the columns of src_z that hold a source able to lower a target
    (semi-naive evaluation: Bancilhon & Ramakrishnan, SIGMOD 1986): when its
    cost equals the cost it was last applied at, the lines that changed over
    the previous sweep; otherwise (its first application, or after its cost
    dropped) the finite lines.  So a word has at most two blocks per side,
    and the cut maps are worked out once per sweep and kind.  Skipping the
    rest is exact.  A skipped candidate before[u, v] + g either has a +inf
    source, which lies above every target (_INT_INF + g < 2^63), or has a
    source unchanged since the previous sweep at an unchanged cost.  A
    finite cost never returns to +inf, so the generator was applied in that
    sweep too, where the same candidate was either composed or skipped by
    the same argument one sweep earlier; and D has only fallen since.
    ``entries`` counts the block cells (candidates) composed over all
    sweeps of the last ``solve``.
    """

    def __init__(self, space, inverse: bool = False):
        self.space = space
        self.n = len(space)
        self.inv = space.inverse_map() if inverse else None
        self.seeds: dict[tuple[int, int], Fraction] = {}
        self.generators: list[tuple[int, int]] = []
        self.fraction_rules: list[tuple[tuple[int, int], tuple[tuple[Fraction, tuple[int, int]], ...]]] = []
        self.triangle = np.empty(0, dtype=np.intp)
        self.entries = 0

    def seed(self, u: int, v: int, value: Fraction) -> None:
        key = (u, v)
        cur = self.seeds.get(key)
        if cur is None or value < cur:
            self.seeds[key] = value

    def add_generator(self, u: int, v: int) -> None:
        self.generators.append((u, v))

    def add_convex(self, target: tuple[int, int], terms: Sequence[tuple[Fraction, tuple[int, int]]]) -> None:
        self.fraction_rules.append((target, tuple(terms)))

    def add_triangle(self, words: Iterable[int]) -> None:
        self.triangle = np.fromiter(words, dtype=np.intp)

    def _words(self) -> dict[int, list[int]]:
        """Per generator word w, its z's in generator order."""
        words: dict[int, list[int]] = {}
        for w, z in self.generators:
            words.setdefault(w, []).append(z)
        return words

    def _maps(self) -> tuple[dict, dict]:
        """Per word of a generator, its right and left (source, target)
        maps, read once off its product lines."""
        right: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        left: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for w in dict.fromkeys(word for gen in self.generators for word in gen):
            right_line, left_line = self.space.product_lines(w)
            right[w] = _shift_map(right_line, w, "right")
            left[w] = _shift_map(left_line, w, "left")
        return right, left

    def solve(self, sweep_cap: int = 200) -> tuple[ClosureTable, int]:
        """The closure table and its sweep count; ``entries`` is then the
        number of block cells composed over all sweeps."""
        coeff_denoms = [c.denominator for _, terms in self.fraction_rules for c, _ in terms]
        scale = lcm(common_denominator(self.seeds.values()), *coeff_denoms)
        maps, words = self._maps(), self._words()
        for attempt in range(6):
            try:
                return self._solve_scaled(scale, sweep_cap, maps, words)
            except ScaleInexactError:
                scale *= 4
        raise ScaleInexactError("could not find a workable common denominator")

    def _solve_scaled(self, scale: int, sweep_cap: int, maps, words) -> tuple[ClosureTable, int]:
        n, tri = self.n, self.triangle
        D = np.full((n, n), _INT_INF, dtype=np.int64)
        for (u, v), val in self.seeds.items():
            s = to_scaled(val, scale)
            if s < D[u, v]:
                D[u, v] = s
        frac = FractionRules(scale)
        for target, terms in self.fraction_rules:
            frac.add(target[0] * n + target[1], [(c, j[0] * n + j[1]) for c, j in terms])

        flat = D.reshape(-1)
        limit = min(n * n, _CHUNK_CELLS)
        last = {w: [_INT_INF] * len(zs) for w, zs in words.items()}
        changed = None  # the rows and columns of the cells the last sweep changed
        entries = sweeps = 0
        while True:
            if sweeps > sweep_cap:
                raise NonConvergenceError(f"pair composition unstable after {sweeps - 1} sweeps")
            sweeps += 1
            before = D.copy()
            before_flat = before.reshape(-1)
            # the maps cut to the changed cells' and the finite cells' lines,
            # each built when a word first needs them this sweep
            cut: dict[bool, list] = {}
            for w, zs in words.items():
                costs = D[w, zs].tolist()
                # the finite-cost z's and their costs, split by whether the
                # cost is the one the generator was last applied at
                split: dict[bool, tuple[list, list]] = {True: ([], []), False: ([], [])}
                for z, g, g_last in zip(zs, costs, last[w]):
                    if g < _INT_INF:
                        picked, picked_costs = split[g == g_last]
                        picked.append(z)
                        picked_costs.append(g)
                last[w] = costs
                for same, (picked, picked_costs) in split.items():
                    if not picked:
                        continue
                    sides = cut.get(same)
                    if sides is None:
                        sides = cut[same] = _cut_maps(maps, *(changed if same else _lines(before < _INT_INF)))
                    for rows, cols in sides:
                        entries += _compose(before_flat, flat, rows[w], [cols[z] for z in picked], picked_costs, limit)
            if self.inv is not None:
                np.minimum(D, D[self.inv][:, self.inv], out=D)
            for m in tri:
                a, b = tri[D[tri, m] < _INT_INF], tri[D[m, tri] < _INT_INF]
                block = (a[:, None], b)
                D[block] = np.minimum(D[block], D[a, m][:, None] + D[m, b])
            frac.apply(flat)
            changed = _lines(D != before)
            if not changed[0].any():
                break
        self.entries = entries
        return ClosureTable(D, scale), sweeps


def _compose(before: np.ndarray, flat: np.ndarray, row_map, col_maps: list, costs: list[int], limit: int) -> int:
    """One word's block on one side: flat[tgt] = min(flat[tgt], before[src]
    + cost) over its row map against the concatenated column maps, each at
    its cost, in chunks of whole rows (the class); returns the block cells
    composed."""
    src_w, tgt_w = row_map
    if len(col_maps) == 1:  # no copy: most words of an ambient space have one z
        [(src_z, tgt_z)], [cost] = col_maps, costs
    else:
        src_z = np.concatenate([src for src, _ in col_maps])
        tgt_z = np.concatenate([tgt for _, tgt in col_maps])
        cost = np.repeat(costs, [src.size for src, _ in col_maps])
    if not (src_w.size and src_z.size):
        return 0
    step = max(1, limit // src_z.size)
    for r in range(0, src_w.size, step):
        block = before.take(src_w[r : r + step] + src_z)
        block += cost  # +inf sources stay above every target: _INT_INF + g < 2^63
        np.minimum.at(flat, (tgt_w[r : r + step] + tgt_z).reshape(-1), block.reshape(-1))
        del block  # before the next chunk's temporaries
    return src_w.size * src_z.size


def _lines(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows and the columns that hold a cell of the boolean ``cells``."""
    return cells.any(axis=1), cells.any(axis=0)


def _cut_maps(maps, rows: np.ndarray, cols: np.ndarray) -> list[tuple[dict, dict]]:
    """Per side, every word's map cut to the sources in a marked row, as
    flat row offsets in a column vector, and to those in a marked column,
    as column indices: a block's flat cells are then one broadcast sum."""
    n = cols.size
    sides = []
    for side in maps:
        by_row, by_col = {}, {}
        for w, (src, tgt) in side.items():
            keep = rows[src]
            by_row[w] = (src[keep][:, None] * n, tgt[keep][:, None] * n)
            keep = cols[src]
            by_col[w] = (src[keep], tgt[keep])
        sides.append((by_row, by_col))
    return sides


# ---------------------------------------------------------------------------
# retired coefficient-lattice engine
# ---------------------------------------------------------------------------


class LatticeSystem:
    """A name without an engine.  The coefficient-lattice relaxation that
    norms once needed is gone: every norm is the molecule gauge gamma (see
    ``norm_ext``).  The stub keeps the benchmark tracer's row
    ``relax.LatticeSystem.solve`` resolvable, at 0 calls, until the
    benchmark's next revision retires that row."""

    def solve(self, *args, **kwargs):
        raise NotImplementedError("the coefficient-lattice engine was removed: every norm is the molecule gauge")
