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
                             scaled integers and block-sparse: the
                             generator words that share a z-set compose
                             together, per side in dense blocks of the
                             word pairs whose products stay in the word
                             space, each cell at its own generator's cost
                             and written by a minimum per target, cut to
                             the sources that can still lower a target
                             (see the class); plus the inverse mirror,
                             explicit convex instances and a triangle pass
                             over a registered member set.

``relax_fixpoint`` is semi-naive too (Bancilhon & Ramakrishnan, SIGMOD
1986): each sweep sets f_k = min(f_(k-1), R(f_(k-1))) over the rules R,
and after the first sweep it evaluates only the rules with a source that
the previous sweep changed.  That is exact: a rule whose sources did not
change gives the value it gave one sweep earlier, which f already lies
below, so values and sweep counts are those of evaluating every rule.
``brute_force_oracle``, its reference, enumerates rule trees in Python
ints at one scale at which every value of the recursion is whole (its
docstring proves it), and builds ``Fraction``s only for its answer.

``PairComposition`` evaluates its bulk families against the previous
round's snapshot in a fixed order, so results are independent of rule
order and bit-identical across runs.  It reads its generator costs from
that snapshot too, so a sweep depends on the snapshot alone: how the
generators are ordered, grouped or chunked changes no table, sweep count
or candidate count.  It runs at the common denominator of its seeds and
convex coefficients, and retries at four times the scale, up to six
attempts, while a value is not exact there.

``to_scaled`` is the closure's own Fraction -> int64 conversion: it raises
``ScaleInexactError`` unless the value is exact at the scale, and
``ScaleOverflowError``, which no larger scale mends, unless it is below
2^60 in magnitude, so a sum of two converted values cannot wrap in int64.
Only ``PairComposition`` uses it; a word stage stores its closure's
integers, reduced by one gcd (``Stage.with_ints``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

from .scalars import common_denominator

Index = Hashable

_INT_INF = 1 << 62
_INT_MIN = -(1 << 63)
_CLIP = _INT_INF - 1  # +inf in the triangle pass: 2 * _CLIP < 2^63 (``PairComposition``)
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


def _sources(rule: Rule) -> tuple:
    """The indices a rule's value reads: both sides of an Equality, the
    terms of an UpperCombo with a nonzero coefficient."""
    if isinstance(rule, Equality):
        return (rule.left, rule.right)
    return tuple(j for c, j in rule.terms if c != 0)


def relax_fixpoint(sys: ConstraintSystem, sweep_cap: Optional[int] = None) -> RelaxResult:
    """Greatest f <= bounds satisfying every rule, by sweeping to stability.

    Values are exact rationals and every update strictly decreases one of
    them, but convergence in finitely many sweeps is asserted, not proved:
    after ``sweep_cap`` sweeps (default 10 * |indices|) a NonConvergenceError
    is raised so that a counterexample is visible instead of silent.

    Semi-naive (see the module docstring): after the first sweep only the
    rules with a source that the previous sweep changed are evaluated.
    """
    sys.validate()
    if sweep_cap is None:
        sweep_cap = max(10, 10 * len(sys.indices))
    rules = sys.rules
    readers: dict = {}  # index -> positions of the rules that read it
    for k, rule in enumerate(rules):
        for j in _sources(rule):
            readers.setdefault(j, []).append(k)
    f: dict = {i: v for i, v in sys.bounds.items() if v is not None}
    due: Iterable[int] = range(len(rules))
    sweeps = 0
    while True:
        if sweeps > sweep_cap:
            raise NonConvergenceError(
                f"no stable fixpoint after {sweeps - 1} sweeps over {len(sys.indices)} indices"
            )
        sweeps += 1
        # f is this sweep's snapshot: rules read it, and lowered values wait
        # in ``new`` until the sweep ends
        new: dict = {}
        for k in due:
            rule = rules[k]
            if isinstance(rule, Equality):
                pairs = ((rule.left, f.get(rule.right)), (rule.right, f.get(rule.left)))
            else:
                pairs = ((rule.target, _combo_value(rule, f)),)
            for tgt, v in pairs:
                if v is None:
                    continue
                cur = new.get(tgt, f.get(tgt))
                if cur is None or v < cur:
                    new[tgt] = v
        if not new:
            break
        f.update(new)
        # in rule order, so that f gains its keys in a full sweep's order
        due = sorted({k for i in new for k in readers.get(i, ())})
    unconstrained = tuple(i for i in sys.indices if i not in f)
    return RelaxResult(values=f, unconstrained=unconstrained, sweeps=sweeps)


def brute_force_oracle(sys: ConstraintSystem, depth: int, budget: int = 2_000_000) -> dict:
    """Minimum bound reachable per index by rule-application trees of the
    given depth; equals relax_fixpoint output once depth covers the rule
    dependency diameter.  Exhaustive and memoized; small systems only.

    The recursion runs in Python ints at the scale S = L_b * L_c^depth,
    where L_b is the lcm of the finite bounds' denominators and L_c that of
    the coefficients' (1 for an Equality).  A value at depth d' <= depth is
    a bound, or a sum of c * (a value at depth d' - 1), so by induction its
    denominator divides L_b * L_c^d'.  Write c = a / L_c with a an int.  A
    value y at depth d' - 1 has S * y = x, a multiple of L_c^(depth - d' +
    1) and so of L_c, hence S * c * y = a * x / L_c is an int, and so is a
    sum of them.  Each such sum is divided by L_c with its remainder
    checked (RelaxError if it is not 0), and the ``Fraction``s x / S are
    built only for the returned dict.  ``budget`` caps the calls of the
    recursion, memo hits included (RelaxError past it)."""
    sys.validate()
    by_target: dict = {}
    for rule in sys.rules:
        if isinstance(rule, Equality):
            by_target.setdefault(rule.left, []).append(((Fraction(1), rule.right),))
            by_target.setdefault(rule.right, []).append(((Fraction(1), rule.left),))
        else:
            by_target.setdefault(rule.target, []).append(rule.terms)
    lc = lcm(*(c.denominator for rules in by_target.values() for terms in rules for c, _ in terms))
    lb = lcm(*(b.denominator for b in sys.bounds.values() if b is not None))
    scale = lb * lc**depth
    bounds = {i: b.numerator * (scale // b.denominator) for i, b in sys.bounds.items() if b is not None}
    # per target its rules, each as (a, source) for the nonzero c = a / L_c
    scaled = {
        i: [tuple((c.numerator * (lc // c.denominator), j) for c, j in terms if c != 0) for terms in rules]
        for i, rules in by_target.items()
    }
    memo: dict = {}
    calls = 0

    def best(i: Index, d: int) -> Optional[int]:
        nonlocal calls
        calls += 1
        if calls > budget:
            raise RelaxError(f"oracle budget {budget} exceeded")
        key = (i, d)
        if key in memo:
            return memo[key]
        out = bounds.get(i)
        if d > 0:
            for terms in scaled.get(i, ()):
                total = 0
                for a, j in terms:
                    sub = best(j, d - 1)
                    if sub is None:
                        break
                    total += a * sub
                else:
                    value, rem = divmod(total, lc)
                    if rem:
                        raise RelaxError(f"{total}/{lc} is not whole at depth {d} of {depth}")
                    if out is None or value < out:
                        out = value
        memo[key] = out
        return out

    return {i: Fraction(x, scale) for i in sys.indices if (x := best(i, depth)) is not None}


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
    cells a caller reads: ``get((u, v))`` is the value, or None at +inf, and
    ``pairs(words)`` reads every pair of some words at once, as integers."""

    inf = _INT_INF  # the scaled value that stands for +inf

    def __init__(self, values: np.ndarray, scale: int):
        self._values = values
        self._scale = scale

    def get(self, cell: tuple[int, int]) -> Optional[Fraction]:
        v = int(self._values[cell])
        return None if v >= _INT_INF else Fraction(v, self._scale)

    def pairs(self, words: Sequence[int]) -> tuple[np.ndarray, int]:
        """The cells (words[i], words[j]) for i < j, in ``combinations``
        order, read in one gather: their scaled values (``inf`` at +inf)
        and the scale."""
        idx = np.asarray(words, dtype=np.intp)
        pos = np.arange(idx.size)
        i, j = np.nonzero(pos[:, None] < pos)
        return self._values[idx[i], idx[j]], self._scale


def _shift_map(line: np.ndarray, word: int, side: str) -> tuple[np.ndarray, np.ndarray]:
    """Sources whose product with ``word`` stays in the word space, and
    their products; RelaxError if two sources share a product, which a
    free group's multiplication never does.  The repeat test counts the
    targets (``np.bincount``) rather than sorting them: ``np.unique`` sorts,
    and its first call in a process imports ``numpy.ma`` (about 13 ms)."""
    src = np.nonzero(line >= 0)[0]
    tgt = line[src]
    if np.bincount(tgt).max(initial=0) > 1:
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
    and is refused (RelaxError).  Once per ``solve`` the generator words
    are grouped by their z-set.  A group's block on one side puts its words'
    sources (rows, in word order) against its z's sources (columns, in z
    order), and the cell of source (u, v), word w and z is the candidate
    before[u, v] + D(w, z).  u.w = u'.w' and v.z = v'.z' can hold across
    words and z's, so a block is written by ``np.minimum.at``, which keeps
    the least candidate of each target whatever the order: it is exact as
    per-generator blocks were.  A group is composed in chunks of
    consecutive words:
    - several words whose rows fit a chunk: one 2-D block over the columns
      of the z's those words pick, its costs the group's k x m cost table
      spread over the rows and columns (``np.repeat``).  A cell whose
      (w, z) is not picked (the other kind's, or at a +inf cost) adds 0 and
      is lifted to +inf by ``np.maximum``, so it is no candidate, and a
      +inf cost never meets a +inf source (their sum would wrap int64).
    - one word (each word alone in its group, and each word whose rows
      alone fill a chunk): only the columns of its picked z's,
      concatenated, at one cost per column, in chunks of whole rows.
    A chunk holds at most min(4 n^2, ``_CHUNK_CELLS``) cells, or one row of
    one word when a row is longer; a row holds at most n cells per z, so
    at most n^2.  So each of a chunk's 8-byte temporaries (source index,
    block, target index, spread table; at most four live at once) is at
    most min(32 n^2 bytes, 512 KiB), or 8 n^2 bytes for one long row.

    Triangle family.  ``add_triangle(words)`` adds D(a, b) <= D(a, m) +
    D(m, b) for a, b and m among those n_m words only.  Once per sweep it
    is one complete Floyd-Warshall pass (Floyd, "Algorithm 97: Shortest
    path", CACM 5(6), 1962) over the words' submatrix M of D: M is
    gathered, +inf is clipped to C = 2^62 - 1, and for each pivot m in word
    order M = min(M, M[:, m] + M[m]) in place, the sums written into one
    n_m x n_m buffer allocated per solve; then every entry >= C is +inf
    again and M is scattered back.  A sum of two clipped entries is at most
    2C < 2^63, so nothing wraps.  Reading a sum >= C as +inf is exact when
    every finite entry of M lies in [0, top] with max(n_m - 1, 1) top < C.
    With nonnegative entries, after each pivot an entry is the least length
    of a path between its ends through the pivots so far (in place too: row
    and column m do not change at pivot m, as D(m, m) >= 0), and a least
    path is simple, so it has at most n_m - 1 edges of at most top each.
    So every finite entry stays below C, a sum >= C lowers no entry, and
    the pass equals a per-pivot loop over the finite entries of m's column
    and row with +inf at 2^62.  The seeds alone do not bound top: a
    composed value is a sum along its derivation, and convex instances
    mix values with coefficients below 1.  So the pass checks the bound
    on M, and raises ScaleOverflowError where it fails (or an entry is
    negative) rather than reading a finite value as +inf.

    Sweeps.  Each sweep reads sources and generator costs D(w, z) alike from
    the snapshot ``before`` taken at its start, composes every group, then
    applies the inverse mirror, the triangle family and the convex
    instances.  A generator composes only the rows of src_w and the columns
    of src_z that hold a source able to lower a target (semi-naive
    evaluation: Bancilhon & Ramakrishnan, SIGMOD 1986): when its cost equals
    its cost at the previous sweep's snapshot, the lines that changed over
    the previous sweep; otherwise (its first application, or after its cost
    dropped) the finite lines.  So a group has at most two kinds per side,
    and the cut maps are worked out once per sweep and kind.  Skipping the
    rest is exact.  A skipped candidate before[u, v] + g either has a +inf
    source, which lies above every target (_INT_INF + g < 2^63), or has a
    source unchanged since the previous snapshot at the cost g it had
    there.  A finite cost never returns to +inf, so the generator composed
    at cost g in the previous sweep too, where the same candidate was
    either composed or skipped by the same argument one sweep earlier; and
    D has only fallen since.  ``entries`` counts the candidate cells of
    generators at a finite cost composed over all sweeps of the last
    ``solve``; a chunk's unpicked cells are not counted, so chunking does
    not move it.
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

    def _groups(self, maps) -> tuple[list, list]:
        """The generator words grouped by their z-set, once per ``solve``:
        a word alone in its group as (w, its z's), a group of several words
        as (its words, its z's, their maps per side as ``_group_maps``).
        Words keep their first-generator order, and a group's z's ascend."""
        zsets: dict[int, dict[int, None]] = {}
        for w, z in self.generators:
            zsets.setdefault(w, {})[z] = None
        groups: dict[tuple[int, ...], list[int]] = {}
        for w, zs in zsets.items():
            groups.setdefault(tuple(sorted(zs)), []).append(w)
        lone = [(ws[0], list(zs)) for zs, ws in groups.items() if len(ws) == 1]
        shared = [(np.array(ws), np.array(zs), _group_maps(maps, ws, zs)) for zs, ws in groups.items() if len(ws) > 1]
        return lone, shared

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
        number of candidate cells composed over all sweeps."""
        coeff_denoms = [c.denominator for _, terms in self.fraction_rules for c, _ in terms]
        scale = lcm(common_denominator(self.seeds.values()), *coeff_denoms)
        maps = self._maps()
        groups = self._groups(maps)
        for attempt in range(6):
            try:
                return self._solve_scaled(scale, sweep_cap, maps, groups)
            except ScaleInexactError:
                scale *= 4
        raise ScaleInexactError("could not find a workable common denominator")

    def _solve_scaled(self, scale: int, sweep_cap: int, maps, groups) -> tuple[ClosureTable, int]:
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
        limit = min(4 * n * n, _CHUNK_CELLS)
        lone, shared = groups
        lone_rows, lone_cols = [w for w, _ in lone], list(dict.fromkeys(z for _, zs in lone for z in zs))
        # each generator's cost at the previous sweep's snapshot
        lone_last = [[_INT_INF] * len(zs) for _, zs in lone]
        shared_last = [np.full((ws.size, zs.size), _INT_INF) for ws, zs, _ in shared]
        buf = np.empty((tri.size, tri.size), dtype=np.int64)  # the triangle pass's candidates
        changed = None  # the rows and columns of the cells the last sweep changed
        entries = sweeps = 0
        while True:
            if sweeps > sweep_cap:
                raise NonConvergenceError(f"pair composition unstable after {sweeps - 1} sweeps")
            sweeps += 1
            before = D.copy()
            before_flat = before.reshape(-1)
            # per kind (True: a cost unchanged since the previous snapshot)
            # the lines its sources are cut to, and the lone words' maps cut
            # to them, built when a word first needs them this sweep
            lines = {True: changed, False: _lines(before < _INT_INF)}
            cut: dict[bool, list] = {}
            for i, (w, zs) in enumerate(lone):
                costs = before[w, zs].tolist()
                # the finite-cost z's and their costs, split by kind
                split: dict[bool, tuple[list, list]] = {True: ([], []), False: ([], [])}
                for z, g, g_last in zip(zs, costs, lone_last[i]):
                    if g < _INT_INF:
                        picked, picked_costs = split[g == g_last]
                        picked.append(z)
                        picked_costs.append(g)
                lone_last[i] = costs
                for same, (picked, picked_costs) in split.items():
                    if not picked:
                        continue
                    sides = cut.get(same)
                    if sides is None:
                        sides = cut[same] = _cut_maps(maps, *lines[same], lone_rows, lone_cols)
                    for rows, cols in sides:
                        entries += _compose(before_flat, flat, rows[w], *_columns([cols[z] for z in picked], picked_costs), limit)
            for i, (ws, zs, sides) in enumerate(shared):
                costs = before[ws[:, None], zs]
                finite = costs < _INT_INF
                same = finite & (costs == shared_last[i])
                shared_last[i] = costs
                for kind, picked in ((True, same), (False, finite & ~same)):
                    if picked.any():
                        for side in sides:
                            entries += _compose_group(before_flat, flat, side, *lines[kind], costs, picked, limit)
            if self.inv is not None:
                np.minimum(D, D[self.inv][:, self.inv], out=D)
            if tri.size:
                _triangle_pass(D, tri, buf)
            frac.apply(flat)
            changed = _lines(D != before)
            if not changed[0].any():
                break
        self.entries = entries
        return ClosureTable(D, scale), sweeps


def _triangle_pass(D: np.ndarray, tri: np.ndarray, buf: np.ndarray) -> None:
    """The triangle family over the words ``tri`` as one Floyd-Warshall
    pass on their submatrix of D, in place, ``buf`` holding a pivot's sums;
    the class states the clip and the bound it checks."""
    block = (tri[:, None], tri)
    M = D[block]
    edges = max(tri.size - 1, 1)  # of a simple path, at most
    low, top = int(M.min(initial=0)), int(M.max(initial=0, where=M < _INT_INF))
    if low < 0 or edges * top >= _CLIP:
        raise ScaleOverflowError(f"triangle pass over {tri.size} words: finite values {low}..{top}, "
                                 f"not all in [0, (2^62 - 1) / {edges})")
    np.minimum(M, _CLIP, out=M)
    for m in range(tri.size):
        np.add(M[:, m, None], M[m], out=buf)
        np.minimum(M, buf, out=M)
    M[M >= _CLIP] = _INT_INF
    D[block] = M


def _compose(before: np.ndarray, flat: np.ndarray, row_map, col_map, cost, limit: int) -> int:
    """One word's block on one side: flat[tgt] = min(flat[tgt], before[src]
    + cost) over its row map against a column map, at one cost or a cost
    per column, in chunks of whole rows (the class); returns the block cells
    composed."""
    (src_w, tgt_w), (src_z, tgt_z) = row_map, col_map
    if not (src_w.size and src_z.size):
        return 0
    step = max(1, limit // src_z.size)
    for r in range(0, src_w.size, step):
        block = before.take(src_w[r : r + step] + src_z)
        block += cost  # +inf sources stay above every target: _INT_INF + g < 2^63
        np.minimum.at(flat, (tgt_w[r : r + step] + tgt_z).reshape(-1), block.reshape(-1))
        del block  # before the next chunk's temporaries
    return src_w.size * src_z.size


def _columns(col_maps: list, costs: list[int]) -> tuple[tuple[np.ndarray, np.ndarray], object]:
    """A lone word's picked z's as one column map and its cost: one z's map
    and cost as they are (most words of an ambient space have one z), or
    the maps concatenated with a cost per column."""
    if len(col_maps) == 1:
        return col_maps[0], costs[0]
    src = np.concatenate([src for src, _ in col_maps])
    tgt = np.concatenate([tgt for _, tgt in col_maps])
    return (src, tgt), np.repeat(costs, [src.size for src, _ in col_maps])


def _compose_group(before: np.ndarray, flat: np.ndarray, side, rows: np.ndarray, cols: np.ndarray,
                   costs: np.ndarray, picked: np.ndarray, limit: int) -> int:
    """One kind of a word group's blocks on one side: flat[tgt] =
    min(flat[tgt], before[src] + costs[w, z]) for every picked (w, z), over
    w's sources in a marked row against z's sources in a marked column, in
    chunks of consecutive words (the class); returns the candidate cells of
    the picked (w, z)."""
    r_src, r_tgt, r_word, c_src, c_tgt, c_z = side
    keep = rows[r_src] & picked.any(axis=1)[r_word]
    r_src, r_tgt, r_word = r_src[keep], r_tgt[keep], r_word[keep]
    keep = cols[c_src] & picked.any(axis=0)[c_z]
    c_src, c_tgt, c_z = c_src[keep], c_tgt[keep], c_z[keep]
    if not (r_src.size and c_src.size):
        return 0
    k, m = picked.shape
    row_counts, col_counts = np.bincount(r_word, minlength=k), np.bincount(c_z, minlength=m)
    candidates = int(row_counts @ picked @ col_counts)
    n = cols.size
    r_src, r_tgt = r_src[:, None] * n, r_tgt[:, None] * n
    ends = np.cumsum(row_counts).tolist()  # one past each word's last row
    step = max(1, limit // c_src.size)  # rows in a chunk of several words
    r = 0
    while r < r_src.size:
        w = int(r_word[r])
        last = bisect_right(ends, r + step)  # one past the last word that fits
        if last > w + 1 and ends[last - 1] > ends[w]:  # several words: the columns of their picked z's
            ws, rs = slice(w, last), slice(r, ends[last - 1])
            zs = picked[ws].any(axis=0)
            sel = zs[c_z]
            block = before.take(r_src[rs] + c_src[sel])
            tgt = r_tgt[rs] + c_tgt[sel]
            counts = row_counts[ws], col_counts[zs]
            on = picked[ws][:, zs]
            block += _spread(np.where(on, costs[ws][:, zs], 0), *counts)
            if not on.all():  # an unpicked (w, z) added 0 and is no candidate: lift it to +inf
                np.maximum(block, _spread(np.where(on, _INT_MIN, _INT_INF), *counts), out=block)
            np.minimum.at(flat, tgt.reshape(-1), block.reshape(-1))
            del block, tgt  # before the next chunk's temporaries
            r = rs.stop
        else:  # one word: its picked columns, one cost each, as ``_compose``
            sel = picked[w][c_z]
            _compose(before, flat, (r_src[r : ends[w]], r_tgt[r : ends[w]]), (c_src[sel], c_tgt[sel]), costs[w][c_z[sel]], limit)
            r = ends[w]
    return candidates


def _spread(table: np.ndarray, row_counts: np.ndarray, col_counts: np.ndarray) -> np.ndarray:
    """A table over a chunk's words and z's spread over the chunk's block,
    whose rows and columns run in word and z order: each row repeated as
    often as its word has rows, each column as its z has columns."""
    return table.repeat(col_counts, axis=1).repeat(row_counts, axis=0)


def _lines(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows and the columns that hold a cell of the boolean ``cells``."""
    return cells.any(axis=1), cells.any(axis=0)


def _group_maps(maps, words: list[int], zs: tuple[int, ...]) -> list[tuple]:
    """Per side, a word group's row maps concatenated in word order, and its
    column maps in z order, each source with its word's or z's position:
    (row sources, row targets, row words, column sources, column targets,
    column z's)."""
    return [_concat([side[w] for w in words]) + _concat([side[z] for z in zs]) for side in maps]


def _concat(maps: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(source, target) maps concatenated, with each source's map position."""
    return (np.concatenate([src for src, _ in maps]), np.concatenate([tgt for _, tgt in maps]),
            np.repeat(np.arange(len(maps)), [src.size for src, _ in maps]))


def _cut_maps(maps, rows: np.ndarray, cols: np.ndarray, row_words, col_words) -> list[tuple[dict, dict]]:
    """Per side, each of ``row_words``' maps cut to the sources in a marked
    row, as flat row offsets in a column vector, and each of ``col_words``'
    to those in a marked column, as column indices: a block's flat cells
    are then one broadcast sum."""
    n = cols.size
    sides = []
    for side in maps:
        by_row, by_col = {}, {}
        for w in row_words:
            src, tgt = side[w]
            keep = rows[src]
            by_row[w] = (src[keep][:, None] * n, tgt[keep][:, None] * n)
        for z in col_words:
            src, tgt = side[z]
            keep = cols[src]
            by_col[z] = (src[keep], tgt[keep])
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
