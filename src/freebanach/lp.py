"""Exact rational linear programming for the weighted-l1 molecule problem.

The norm extension repeatedly minimizes  sum_j |beta_j| * cost_j  subject to
sum_j beta_j * molecule_j = target,  over real beta.  Optima of rational
data are rational and attained at basic solutions, so everything here is
exact; no floating point touches any stored value.

``MoleculeLP`` scales the molecules and the costs to integers by their
common denominators, row-reduces the constraints once, and pivots in
integers only throughout (integer-preserving elimination: Edmonds 1967,
Bareiss 1968; one ``_pivot`` serves the reduction, the simplex and the
oracle).  For the current basis B it keeps d = |det B| > 0 and the
tableau d * B^-1 [A | I | v] under its cost row,

    [ N A | N       | N v       ]      N = d * B^-1, which is +-adj B,
    [ R   | -c_B N  | -c_B N v  ]      R = d * cbar, the scaled reduced costs,

for the current target v.  A pivot on row r, entering column e with
col = the tableau's column e and pivot entry p = col_r, sets every row

    T_i  <-  (|p| T_i - sgn(p) col_i T_r) / d     for i != r,
    T_r  <-  sgn(p) T_r,        d  <-  |p|,

the cost row included, so N, R and N v come out updated together.  The
new d is |det B'| and the new entries are minors of the integer system,
so each division is exact; a remainder means the invariant broke and
raises ``InexactDivision``.  Every denominator is d > 0 (times positive
scales), so signs and ratios are compared by integer cross-multiplication
and Fractions are built only for the returned value, solution and dual.

The tableaux are numpy arrays.  Each product runs in int64 while an
explicit bound on its entries and partial results holds (``_fit``: for a
pivot, 2 max|col| max|T| and d below 2^62; for a matrix product, inner
length * max|a| * max|b|), and past the bound the same code runs on object
arrays of Python ints, which never wrap.  Arrays leave for Python ints
through ``tolist`` or ``int``, so no numpy scalar reaches a Fraction.

A two-phase simplex with Bland's rule, pivoting the same tableau with one
more cost row for phase one, finds the first basis; it is dual feasible
whatever the right-hand side, so each further target warm-starts with
dual-simplex pivots (``solve_full``).

``solve_many`` resolves a batch of targets from a cache of optimal bases
(the multiple-right-hand-side basis reuse of parametric programming:
Chvatal, *Linear Programming*, 1983, ch. 10; Gal, *Postoptimal Analyses,
Parametric Programming and Related Topics*, 1979).  Dual feasibility of a
basis B, R >= 0, does not involve the target.  So a basis that was optimal
once is optimal for every target v with B^-1 v >= 0, being primal and dual
feasible there, at value c_B B^-1 v.  A program's optimal value is unique,
so every covering basis gives a target the value a warm solve would.  Each
cached basis is tested against all uncovered targets in one exact integer
matrix product; the first target left uncovered is solved warm, and the
basis it ends on is new (an old one would have covered it).  The desk
tower's 4-stage build resolves 3284 +- classes with 369 warm solves and
1351 pivots (``pivots``).

``certificate`` reads a target's solution and dual off a cached basis, and
``Certifier`` checks them against the original molecules in integers,
trusting none of the above.

``basic_solution_values`` is the cross-check required of the LP route: it
enumerates every basis (every independent set of rank-many molecules; the
docstring proves that bases suffice), eliminates each one once in integers
with all targets as right-hand sides, a chunk of subsets at a time as one
stack of tableaux, and counts a candidate only after an exact residual
check, so it shares the pivot formula but no trust in it.
``basic_solution_oracle`` is its one-target call.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from math import lcm
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

Vec = tuple[Fraction, ...]

# every partial result of an int64 array operation stays below this in magnitude
_INT64_SAFE = 1 << 62
# entries of the subset tableaux ``basic_solution_values`` eliminates at once
_ORACLE_CELLS = 1 << 18


def _scaled(v: Iterable, den: int) -> list[int]:
    """x * den for each rational x of v; each denominator divides den."""
    return [x.numerator * (den // x.denominator) for x in v]


class InfeasibleLP(ValueError):
    """Target vector outside the span of the elementary differences."""


class InexactDivision(ArithmeticError):
    """An exact integer division left a remainder: the invariant that made
    it exact (the pivot's d/N, or phi's scale S) broke."""


def _absmax(a: np.ndarray) -> int:
    """max |a| over an integer array, as a Python int (0 when empty); the
    reshape keeps a 0-d object array an array under ``np.abs``."""
    return int(np.abs(a.reshape(-1)).max(initial=0))


def _fit(bound: int, *arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays in int64 when ``bound`` < 2^62 bounds every entry and
    every partial result of the operation they enter, else as object
    arrays of Python ints, which never wrap; the operation then runs the
    same code on either."""
    dtype = np.int64 if bound < _INT64_SAFE else object
    return [a.astype(dtype, copy=False) for a in arrays]


def _ints(x) -> np.ndarray:
    """An integer array as it is, or nested lists of Python ints as one:
    in int64 when every entry is below the bound, else as an object
    array.  (``np.array`` alone would give uint64 past 2^63.)"""
    if isinstance(x, np.ndarray):
        return x
    a = np.array(x, dtype=object)
    return _fit(_absmax(a), a)[0]


def _matmul(a, b) -> np.ndarray:
    """a @ b exactly, for integer arrays (or lists, see ``_ints``): in
    int64 when inner length * max|a| * max|b| < 2^62 bounds every partial
    sum, else in Python ints (object arrays), which never wrap."""
    a, b = _ints(a), _ints(b)
    ma, mb = _absmax(a), _absmax(b)
    a, b = _fit(max(a.shape[-1] * ma * mb, ma, mb), a, b)
    return a @ b


def _pivot(rows, d, col, r):
    """Integer-preserving pivot of an integer tableau (k x n) on row r,
    where col is its entering column through its rows.  With p = col_r,
    each other row becomes (|p| row_i - sgn(p) col_i row_r) / d, whose
    division must be exact, and row r becomes sgn(p) row_r; returns the
    new tableau and the new d = |p| > 0.  A stack of tableaux (S x k x n,
    with d and r arrays of one entry per tableau) pivots each on its own
    row, all at once.  In int64 while 2 max|col| max|rows| and max d stay
    below 2^62 (``_fit``), else in Python ints."""
    rows, col = _ints(rows), _ints(col)
    at = r if rows.ndim == 2 else (np.arange(len(rows)), r)  # the pivot rows
    p, d = np.asarray(col[at]), np.asarray(d)
    mc = _absmax(col)
    rows, col, p, d = _fit(max(2 * mc * _absmax(rows), mc, _absmax(d)), rows, col, p, d)
    # ufuncs on 0-d object arrays return Python ints, so keep arrays
    q, sign, prow, d = np.asarray(np.abs(p)), np.asarray(np.sign(p)), rows[at], d[..., None, None]
    num = q[..., None, None] * rows - (sign[..., None] * col)[..., None] * prow[..., None, :]
    out = num // d
    if (num - out * d).any():
        raise InexactDivision("pivot update left a remainder")
    out[at] = sign[..., None] * prow
    return out, q.tolist() if q.ndim == 0 else q


def _eliminate(tableaux, ncols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer-preserving Gauss-Jordan by ``_pivot`` over the first
    ``ncols`` columns of a stack of integer tableaux (S x k x n), all at
    once.  Returns the tableaux, d > 0 of each and, per tableau and column,
    its pivot row, or -1 where the column depends on the columns before
    it."""
    work = _ints(tableaux).copy()  # pivots write into it
    S, k = work.shape[:2]
    d = np.ones(S, dtype=np.int64)
    used = np.zeros((S, k), dtype=bool)
    pivot_rows = np.full((S, ncols), -1)
    for c in range(ncols):
        candidates = (work[:, :, c] != 0) & ~used
        has = np.flatnonzero(candidates.any(axis=1))
        if not has.size:
            continue
        r = candidates[has].argmax(axis=1)  # the first unused nonzero row
        out, q = _pivot(work[has], d[has], work[has, :, c], r)
        if out.dtype == object:
            work, d = work.astype(object), d.astype(object)
        work[has], d[has] = out, q
        used[has, r] = True
        pivot_rows[has, c] = r
    return work, d, pivot_rows


def _least_ratio(num: np.ndarray, den: np.ndarray, order) -> int:
    """The index in ``order`` whose num/den is least (den > 0 there), the
    first in ``order`` on a tie.  For L the lcm of those dens, the ints
    num * (L / den) order the ratios exactly, in int64 while L max|num|
    stays below 2^62 (``_fit``)."""
    order = np.asarray(order)
    a, b = num[order], den[order]
    L = lcm(*b.tolist())
    a, b = _fit(max(L * _absmax(a), L), a, b)
    return int(order[np.argmin(a * (L // b))])


class OptimalBasis(NamedTuple):
    """A basis the dual simplex ended on: its signed column per row,
    d = |det B| > 0 and N = d * B^-1 of the scaled reduced system."""

    columns: tuple[int, ...]
    det: int
    adj: np.ndarray


class MoleculeLP:
    """min sum c_j |beta_j| s.t. sum beta_j m_j = v, resolved for many v.

    Molecules and targets are tuples of Fractions or of ints (ints have
    denominator 1).  Columns are the signed molecules (+m_j and -m_j, each
    at cost c_j >= 0).
    The constraint matrix is row-reduced once so the working system has full
    row rank; targets inconsistent with the dropped rows are infeasible.
    ``pivots`` counts the dual-simplex pivots over all solves; ``bases``
    caches the optimal bases ``solve_many`` has solved for.
    """

    def __init__(self, molecules: Sequence[Vec], costs: Sequence[Fraction]):
        if not molecules:
            raise ValueError("no molecules")
        self.dim = len(molecules[0])
        self.molecules = [tuple(m) for m in molecules]
        self.costs = list(costs)
        if any(c < 0 for c in self.costs):
            raise ValueError("negative molecule cost")

        # Coordinate rows of the constraint matrix may be dependent: scale the
        # molecules to integers by their lcm s and eliminate [A^T | s I], so
        # the operator E (the right block) maps each target onto the scale of
        # the reduced columns.  The pivot rows, in pivot-column order, are the
        # working system; E's other rows vanish on targets in the span.
        d, J = self.dim, len(self.molecules)
        scale = lcm(*(x.denominator for mol in self.molecules for x in mol))
        work = [[int(x * scale) for x in row] + [scale * (i == k) for k in range(d)]
                for i, row in enumerate(zip(*self.molecules))]
        work, _, pivot_rows = _eliminate([work], J)
        work = work[0].tolist()
        pivots = [r for r in pivot_rows[0].tolist() if r >= 0]
        work = [work[r] for r in pivots] + [row for i, row in enumerate(work) if i not in pivots]
        self.m = len(pivots)
        self.ncols = 2 * J
        # the reduced rows are a positive multiple of the reduced row echelon
        # form, which leaves every pivot choice, and phase one's, unchanged
        self._op = _ints([row[J:] for row in work])
        cols = [row[:J] for row in work[: self.m]]
        self._cols = [row + [-x for x in row] for row in cols]  # signed columns, m x 2J
        self._cost_den = lcm(*(c.denominator for c in self.costs))
        self._cost = _scaled(self.costs, self._cost_den) * 2  # scaled c
        self.pivots = 0
        self.bases: list[OptimalBasis] = []
        self._basis: Optional[list[int]] = None
        # the warm tableau d * B^-1 [A | I | v] under its cost row, that is
        # [N A | N | N v ; R | -c_B N | -c_B N v], and d = |det B|, from phase one
        self._T, self._det = np.zeros((0, 0), dtype=np.int64), 1

    def _reduce(self, targets: Sequence[Vec]) -> tuple[np.ndarray, list[int]]:
        """The integer right-hand sides of the scaled reduced system, one
        column per target (an m x T matrix), and each target's common
        denominator; raises if a target leaves the span."""
        dens = [lcm(*(x.denominator for x in t)) for t in targets]
        scaled = _ints([_scaled(t, den) for t, den in zip(targets, dens)]).T
        image = _matmul(self._op, scaled)
        if image[self.m :].any():
            raise InfeasibleLP("target outside molecule span")
        return image[: self.m], dens

    # -- simplex core ----------------------------------------------------

    def _phase_one(self, rhs: np.ndarray) -> None:
        """Dense two-phase start on the integer tableau d * B^-1 [A | I | rhs]
        (rows sign-fixed so rhs >= 0) under its two objective rows, which
        ``_pivot`` updates with the rest: d times the reduced costs of the
        artificial cost and of the molecule costs.  Establishes a
        dual-feasible optimal basis and the warm tableau: the artificial
        block is N = d * B^-1 up to the signs, the second objective row R."""
        m, n = self.m, self.ncols
        signs = [-1 if b < 0 else 1 for b in rhs.tolist()]
        rows = [
            [s * x for x in col] + [int(i == k) for k in range(m)] + [s * b]
            for i, (s, col, b) in enumerate(zip(signs, self._cols, rhs.tolist()))
        ]
        art = [-sum(col) for col in zip(*rows)]  # c - c_B T at the artificial basis
        art[n : n + m] = [0] * m
        T = _ints(rows + [art, self._cost + [0] * (m + 1)])
        det = 1
        basis = list(range(n, n + m))

        def pivot(r: int, e: int) -> None:
            nonlocal T, det
            T, det = _pivot(T, det, T[:, e], r)
            basis[r] = e

        def run(z: int, limit: int) -> None:
            while True:
                # Bland: first improving column, d * reduced cost < 0
                free = T[z, :limit] < 0
                free[[b for b in basis if b < limit]] = False
                improving = np.flatnonzero(free)
                if not improving.size:
                    return
                e = int(improving[0])
                # least ratio rhs_i / t_i over t_i > 0, then least basis index
                eligible = sorted(np.flatnonzero(T[:m, e] > 0).tolist(), key=basis.__getitem__)
                if not eligible:
                    raise InfeasibleLP("unbounded phase; molecule costs degenerate")
                pivot(_least_ratio(T[:m, -1], T[:m, e], eligible), e)

        run(m, n + m)
        if any(T[i, -1] for i in range(m) if basis[i] >= n):
            raise InfeasibleLP("phase one optimum positive")
        # drive zero-level artificials out of the basis
        for i in range(m):
            if basis[i] >= n:
                pivot_col = next((j for j in np.flatnonzero(T[i, :n]).tolist() if j not in basis), None)
                if pivot_col is None:
                    raise InfeasibleLP("redundant row survived row reduction")
                pivot(i, pivot_col)
        run(m + 1, n)
        if any(b >= n for b in basis):
            raise InfeasibleLP("artificial column stuck in basis")
        # the artificial block is d * (diag(signs) B)^-1 = N diag(signs)
        self._basis, self._det = basis, det
        self._T = T[[*range(m), m + 1]] * _ints([1] * n + signs + [1])

    def solve(self, target: Vec) -> Fraction:
        return self.solve_full(target)

    def solve_full(self, target: Vec, reduced: Optional[tuple[np.ndarray, int]] = None) -> Fraction:
        """The program's value at one target.  ``reduced`` is the target's
        column of ``_reduce`` and its denominator, when the caller has them
        already.  Warm-starts from the previous basis (dual feasibility is
        independent of the target).

        Each dual-simplex pivot is one ``_pivot`` of the warm tableau, whose
        last column is set to N v and -c_B N v for the target v: the pivot
        row is row r of N A, the ratio test reads R, and N, R and
        x_B = N v / d come out updated together."""
        if reduced is None:
            image, [den] = self._reduce([target])
            reduced = image[:, 0], den
        rhs, den = reduced
        m, n = self.m, self.ncols
        if self._basis is None:
            self._phase_one(rhs)
        else:
            T = self._T[:, :-1]
            self._T = np.concatenate([T, _matmul(T[:, n:], rhs)[:, None]], axis=1)
        basis = self._basis
        guard = 0
        while True:
            guard += 1
            if guard > 10_000:
                raise InfeasibleLP("dual simplex failed to terminate")
            T, det = self._T, self._det
            negative = np.flatnonzero(T[:m, -1] < 0).tolist()  # x_B * d * den < 0
            if not negative:
                break
            row_leave = min(negative, key=basis.__getitem__)
            # enter on the least ratio R_j / -a_j over the a_j < 0 of the
            # pivot row off the basis, ties to the lower j
            arow = T[row_leave, :n]
            free = arow < 0
            free[basis] = False
            candidates = np.flatnonzero(free)
            if not candidates.size:
                raise InfeasibleLP("dual unbounded: target infeasible")
            enter = _least_ratio(T[m, :n], -arow, candidates)
            self._T, self._det = _pivot(T, det, T[:, enter], row_leave)
            basis[row_leave] = enter
            self.pivots += 1

        return self._value(basis, det, T[:m, -1].tolist(), den)

    def _value(self, columns: Sequence[int], det: int, xb: list[int], den: int) -> Fraction:
        """c_B x_B on the basis of these columns and d = det, from
        xb = N * rhs = x_B * d * den."""
        return Fraction(sum(self._cost[j] * x for j, x in zip(columns, xb)), det * den * self._cost_den)

    def _certificate(self, basis: OptimalBasis, xb: list[int], den: int):
        """(value, signed molecule solution, dual) on a basis, from
        xb = N * rhs = x_B * d * den, in Python ints."""
        J = self.ncols // 2
        scale = basis.det * den
        value = self._value(basis.columns, basis.det, xb, den)
        # +m_j and -m_j are dependent, so a basis holds at most one of them
        beta = {j % J: Fraction(x if j < J else -x, scale) for x, j in zip(xb, basis.columns) if x}
        # lift the dual c_B N (times d) into original coordinates through the operator E
        u = _matmul([self._cost[j] for j in basis.columns], basis.adj)
        y = _matmul(u, self._op[: self.m]).tolist()
        return value, beta, tuple(Fraction(x, basis.det * self._cost_den) for x in y)

    def certificate(self, k: int, target: Vec):
        """(value, signed molecule solution, dual) for a target on cached
        basis k, or None where B^-1 v has a negative entry: the basis is
        then not primal feasible for the target and certifies nothing.

        The dual y satisfies |<y, molecule_j>| <= cost_j for all j and
        <y, target> = value, so it witnesses optimality by weak duality
        without trusting the pivoting path (``Certifier`` checks both)."""
        basis = self.bases[k]
        image, [den] = self._reduce([target])
        xb = _matmul(basis.adj, image[:, 0])
        if (xb < 0).any():
            return None
        return self._certificate(basis, xb.tolist(), den)

    def solve_many(self, targets: Sequence[Vec]) -> list[tuple[Fraction, int]]:
        """(value, index into ``bases``) for each target, from the cache of
        optimal bases (module docstring).  The targets are reduced once
        into an integer m x T matrix r.  Each cached basis, old ones first,
        covers every uncovered target with N r >= 0 at value
        c_B N r / (d * den * cost_den), in one exact product (``_matmul``);
        then the first target still uncovered is solved warm by
        ``solve_full`` from its reduced column, its final basis is
        cached, and the loop repeats.
        Raises ``InfeasibleLP`` if any target leaves the molecule span."""
        out: list = [None] * len(targets)
        if not targets:
            return out
        rhs, dens = self._reduce(targets)
        uncovered = np.arange(len(targets))
        tested = 0
        while True:
            for k in range(tested, len(self.bases)):
                basis = self.bases[k]
                x = _matmul(basis.adj, rhs[:, uncovered])
                ok = (x >= 0).all(axis=0)
                if ok.any():
                    cost_b = [[self._cost[j] for j in basis.columns]]
                    nums = _matmul(cost_b, x[:, ok])[0]
                    for t, num in zip(uncovered[ok].tolist(), nums.tolist()):
                        out[t] = (Fraction(num, basis.det * dens[t] * self._cost_den), k)
                    uncovered = uncovered[~ok]
            tested = len(self.bases)
            if not uncovered.size:
                return out
            first = int(uncovered[0])
            value = self.solve_full(targets[first], (rhs[:, first], dens[first]))
            N = np.ascontiguousarray(self._T[: self.m, self.ncols : -1])
            self.bases.append(OptimalBasis(tuple(self._basis), self._det, N))
            out[first] = (value, tested)
            uncovered = uncovered[1:]


class Certifier:
    """Exact optimality checks of molecule-program solutions against the
    original molecules, independent of the pivoting that produced them.
    Molecules are scaled to integers by their lcm s and costs by theirs, and
    each check clears the remaining denominators, so it is one identity or
    inequality in Python ints."""

    def __init__(self, molecules: Sequence[Vec], costs: Sequence[Fraction]):
        self.scale = lcm(*(x.denominator for m in molecules for x in m))
        self.mols = [_scaled(m, self.scale) for m in molecules]
        self.cost_den = lcm(*(c.denominator for c in costs))
        self.costs = _scaled(costs, self.cost_den)

    def dual_feasible(self, dual: Vec) -> bool:
        """|<y, molecule_j>| <= cost_j for every j: by weak duality, <y, v> is
        then a lower bound on the program's value at every target v.  It does
        not depend on the target, so many targets can share one check."""
        den = lcm(*(y.denominator for y in dual))
        y = _scaled(dual, den)
        return all(abs(sum(map(mul, y, m))) * self.cost_den <= c * den * self.scale
                   for m, c in zip(self.mols, self.costs))

    def certifies(self, target: Vec, value: Fraction, beta: dict[int, Fraction], dual: Vec) -> bool:
        """The per-target half of a certificate: the primal solution
        reproduces the target at the claimed cost, and the dual meets it
        there.  Proves optimality together with ``dual_feasible(dual)``."""
        v_den = lcm(*(x.denominator for x in target))
        v = _scaled(target, v_den)
        b_den = lcm(*(b.denominator for b in beta.values()))
        acc = [0] * len(v)
        cost = 0
        for j, b in zip(beta, _scaled(beta.values(), b_den)):
            acc = [a + b * x for a, x in zip(acc, self.mols[j])]
            cost += abs(b) * self.costs[j]
        # acc = b_den * s * sum_j beta_j m_j, and cost = b_den * cost_den * sum_j |beta_j| c_j
        if any(a * v_den != b_den * self.scale * x for a, x in zip(acc, v)):
            return False
        if cost * value.denominator != value.numerator * b_den * self.cost_den:
            return False
        y_den = lcm(*(y.denominator for y in dual))
        dot = sum(map(mul, _scaled(dual, y_den), v))
        return dot * value.denominator == value.numerator * y_den * v_den


def basic_solution_values(
    molecules: Sequence[Vec], costs: Sequence[Fraction], targets: Sequence[Vec]
) -> list[Optional[Fraction]]:
    """min sum_j |beta_j| cost_j s.t. sum_j beta_j m_j = t for each target t,
    by exhaustive enumeration of bases; None where t leaves the span.

    Bases suffice.  With beta = beta+ - beta-, the program is a linear
    program in nonnegative variables whose objective is bounded below by 0
    (costs are nonnegative), so a feasible target attains its optimum at a
    vertex; a vertex's columns +-m_j are linearly independent, so its
    support S' is an independent molecule set.  Let r be the rank of all
    molecules.  S' extends to an independent set S of exactly r molecules
    (exchange lemma), and M_S has full column rank, so the unique solution
    of M_S beta = t is the vertex's solution padded with zeros, at the same
    cost.  Every basis solution is feasible, hence no cheaper than the
    optimum, so the minimum over the size-r subsets that are independent
    and consistent with t is the optimum.  A target outside the span is
    consistent with no subset; the zero target gets 0 on any basis.

    Molecules and targets are scaled to integers by one lcm (which leaves
    every solution beta unchanged) and each size-r subset is eliminated
    once, all targets riding along as right-hand-side columns, by the
    integer-preserving pivot ``_pivot`` the simplex uses; the subsets go
    through ``_eliminate`` as stacks of tableaux, at most ``_ORACLE_CELLS``
    entries at a time.  Afterwards the pivot block is d * I, so d * beta is
    read off the pivot rows.  A target counts a subset only when the
    non-pivot rows vanish in its column and the candidate passes the exact
    residual check M_S (d beta) = d t in ints; the least such candidate
    (``_least_ratio``) is the value.  So a fault in the shared pivot can
    only raise a value, never lower it, and a comparison with the simplex
    reports it as a mismatch.  Exponential in the molecule count: intended
    for small instances only.
    """
    targets = [tuple(Fraction(x) for x in t) for t in targets]
    if not targets:
        return []
    dim, T = len(targets[0]), len(targets)
    mols = [tuple(Fraction(x) for x in m) for m in molecules]
    scale = lcm(*(x.denominator for v in (*mols, *targets) for x in v))
    cols = _ints([[int(x * scale) for x in m] for m in mols]).reshape(len(mols), dim)
    rhs = _ints([[int(x * scale) for x in t] for t in targets]).T  # dim x T
    cost_den = lcm(*(Fraction(c).denominator for c in costs))
    cost = _ints([int(Fraction(c) * cost_den) for c in costs])
    _, _, pivot_rows = _eliminate(cols.T[None], len(mols))
    rank = int((pivot_rows >= 0).sum())
    # per target: sum |d beta_j| cost_j and its d, the value times d * cost_den
    best: list[Optional[tuple[int, int]]] = [None] * T
    subsets = combinations(range(len(mols)), rank)
    size = max(1, _ORACLE_CELLS // (dim * (rank + T)))
    while chunk := list(islice(subsets, size)):
        S = np.array(chunk, dtype=np.intp).reshape(len(chunk), rank)
        M = cols[S].transpose(0, 2, 1)  # subset x dim x rank
        tableaux = np.concatenate([M, np.broadcast_to(rhs, (len(S), dim, T))], axis=2)
        tableaux, d, pivot_rows = _eliminate(tableaux, rank)
        independent = (pivot_rows >= 0).all(axis=1)
        tableaux, d, pivot_rows = tableaux[independent], d[independent], pivot_rows[independent]
        S, M = S[independent], M[independent]
        n = np.arange(len(S))[:, None]
        x = tableaux[n, pivot_rows, rank:]  # d * beta: subset x rank x target
        free = np.ones((len(S), dim), dtype=bool)
        free[n, pivot_rows] = False
        consistent = ~(free[:, :, None] & (tableaux[:, :, rank:] != 0)).any(axis=1)
        nums = _matmul(cost[S][:, None, :], np.abs(x))[:, 0]
        # the residual check M_S (d beta) = d t, in ints: a faulty pivot never counts
        md, mr = _absmax(d), _absmax(rhs)
        dd, v = _fit(max(md * mr, md, mr), d, rhs)
        solved = (_matmul(M, x) == dd[:, None, None] * v).all(axis=1)
        valid = consistent & solved
        for k in range(T):
            ok = np.flatnonzero(valid[:, k])
            if ok.size:
                i = _least_ratio(nums[:, k], d, ok)
                num, den = int(nums[i, k]), int(d[i])
                if best[k] is None or num * best[k][1] < best[k][0] * den:
                    best[k] = (num, den)
    return [None if b is None else Fraction(b[0], b[1] * cost_den) for b in best]


def basic_solution_oracle(
    molecules: Sequence[Vec], costs: Sequence[Fraction], target: Vec
) -> Optional[Fraction]:
    """``basic_solution_values`` for one target: the least cost over the
    bases of the molecules (which suffice, as proved there), each eliminated
    in integers and residual-checked; None outside the span."""
    return basic_solution_values(molecules, costs, [target])[0]
