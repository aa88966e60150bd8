"""Exact rational linear programming for the weighted-l1 molecule problem.

The norm extension repeatedly minimizes  sum_j |beta_j| * cost_j  subject to
sum_j beta_j * molecule_j = target,  over real beta.  Optima of rational
data are rational and attained at basic solutions, so everything here is
exact; no floating point touches any stored value.

``MoleculeLP`` scales the molecules and the costs to integers by their
common denominators, row-reduces the constraints once, and pivots in
integers only throughout (integer-preserving elimination: Edmonds 1967,
Bareiss 1968; one ``_pivot`` serves the reduction, the simplex and the
oracle).  For the current basis B it keeps
d = |det B| > 0 and N = d * B^-1, which is +-adj B, plus the reduced costs
scaled as R = d * cbar.  A pivot on row r, entering column a_e with
col = N a_e and pivot entry p = col_r, sets

    N_i  <-  (|p| N_i - sgn(p) col_i N_r) / d     for i != r,
    N_r  <-  sgn(p) N_r,        d  <-  |p|,

and R likewise against the pivot row N_r A.  The new d is |det B'| and the
new N is +-adj B', a matrix of minors of the integer system, so each
division is exact; a remainder means the invariant broke and raises
``InexactDivision``.  Every denominator is d > 0 (times positive scales),
so signs and ratios are compared by integer cross-multiplication and
Fractions are built only for the returned value, solution and dual.

A two-phase simplex with Bland's rule, pivoting the same way, finds the
first basis; it is dual feasible whatever the right-hand side, so each
further target warm-starts with dual-simplex pivots (``solve_full``).

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

``Certifier`` checks a solution and its dual against the original
molecules in integers, trusting none of the above; ``verify_certificate``
is its one-target call.

``basic_solution_values`` is the cross-check required of the LP route: it
enumerates every basis (every independent set of rank-many molecules; the
docstring proves that bases suffice), eliminates each one once in integers
with all targets as right-hand sides, and counts a candidate only after an
exact residual check, so it shares the pivot formula but no trust in it.
``basic_solution_oracle`` is its one-target call.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

Vec = tuple[Fraction, ...]

# every partial sum of an int64 product stays below this in magnitude
_INT64_SAFE = 1 << 62


def _scaled(v: Iterable, den: int) -> list[int]:
    """x * den for each rational x of v; each denominator divides den."""
    return [x.numerator * (den // x.denominator) for x in v]


class InfeasibleLP(ValueError):
    """Target vector outside the span of the elementary differences."""


class InexactDivision(ArithmeticError):
    """An exact integer division left a remainder: the invariant that made
    it exact (the pivot's d/N, or phi's scale S) broke."""


def _exact_update(p: int, row: list[int], f: int, prow: Sequence[int], d: int) -> list[int]:
    """(p * row - f * prow) / d entrywise; the quotient must be exact."""
    out = []
    for a, b in zip(row, prow):
        q, rem = divmod(p * a - f * b, d)
        if rem:
            raise InexactDivision(f"pivot update left remainder {rem} modulo {d}")
        out.append(q)
    return out


def _pivot(rows: list[list[int]], d: int, col: list[int], r: int) -> tuple[list[list[int]], int]:
    """Integer-preserving pivot of d * B^-1 rows on row r, where col is the
    entering column through those rows; returns the new rows and d > 0."""
    p, prow = col[r], rows[r]
    s = 1 if p > 0 else -1
    return [
        [s * x for x in prow] if i == r else _exact_update(abs(p), row, s * f, prow, d)
        for i, (row, f) in enumerate(zip(rows, col))
    ], abs(p)


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], int, list[Optional[int]]]:
    """Integer-preserving Gauss-Jordan by ``_pivot`` over the first
    ``ncols`` columns; returns the rows, d > 0 and, per column, its pivot
    row, or None where the column depends on the columns before it."""
    d = 1
    pivot_rows: list[Optional[int]] = []
    for c in range(ncols):
        r = next((i for i, row in enumerate(rows) if row[c] and i not in pivot_rows), None)
        if r is not None:
            rows, d = _pivot(rows, d, [row[c] for row in rows], r)
        pivot_rows.append(r)
    return rows, d, pivot_rows


def _matmul(a: Sequence[Sequence[int]], b: np.ndarray) -> np.ndarray:
    """a @ b exactly, for Python-int rows a and an int64 or object array b:
    in int64 when inner length * max|a| * max|b| < 2^62 bounds every
    partial sum, else in Python ints (object arrays), which never wrap."""
    if b.dtype != object:
        a_max = max(abs(x) for row in a for x in row)
        if len(a[0]) * a_max * int(np.abs(b).max(initial=0)) < _INT64_SAFE:
            return np.array(a, dtype=np.int64) @ b
        b = b.astype(object)
    return np.array(a, dtype=object) @ b


class OptimalBasis(NamedTuple):
    """A basis the dual simplex ended on: its signed column per row,
    d = |det B| > 0 and N = d * B^-1 of the scaled reduced system."""

    columns: tuple[int, ...]
    det: int
    adj: list[list[int]]


class MoleculeLP:
    """min sum c_j |beta_j| s.t. sum beta_j m_j = v, resolved for many v.

    Columns are the signed molecules (+m_j and -m_j, each at cost c_j >= 0).
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
        self.costs = [Fraction(c) for c in costs]
        if any(c < 0 for c in self.costs):
            raise ValueError("negative molecule cost")

        # Coordinate rows of the constraint matrix may be dependent: scale the
        # molecules to integers by their lcm s and eliminate [A^T | s I], so
        # the operator E (the right block) maps each target onto the scale of
        # the reduced columns.  The pivot rows, in pivot-column order, are the
        # working system; E's other rows vanish on targets in the span.
        d, J = self.dim, len(self.molecules)
        scale = lcm(*(Fraction(x).denominator for mol in self.molecules for x in mol))
        work = [[int(x * scale) for x in row] + [scale * (i == k) for k in range(d)]
                for i, row in enumerate(zip(*self.molecules))]
        work, _, pivot_rows = _eliminate(work, J)
        pivots = [r for r in pivot_rows if r is not None]
        work = [work[r] for r in pivots] + [row for i, row in enumerate(work) if i not in pivots]
        self.m = len(pivots)
        self.ncols = 2 * J
        # the reduced rows are a positive multiple of the reduced row echelon
        # form, which leaves every pivot choice, and phase one's, unchanged
        self._op = [row[J:] for row in work]
        cols = [tuple(work[i][j] for i in range(self.m)) for j in range(J)]
        self._cols = cols + [tuple(-x for x in col) for col in cols]  # signed columns
        self._cost_den = lcm(*(c.denominator for c in self.costs))
        self._cost = [int(c * self._cost_den) for c in self.costs] * 2  # scaled c
        self.pivots = 0
        self.bases: list[OptimalBasis] = []
        self._basis: Optional[list[int]] = None
        # N = d * B^-1, d = |det B| and R = d * reduced costs, set by phase one
        self._adj, self._det, self._red = [], 1, []

    def _reduce(self, targets: Sequence[Vec]) -> tuple[np.ndarray, list[int]]:
        """The integer right-hand sides of the scaled reduced system, one
        column per target (an m x T matrix), and each target's common
        denominator; raises if a target leaves the span."""
        dens = [lcm(*(x.denominator for x in t)) for t in targets]
        scaled = np.array([_scaled(t, den) for t, den in zip(targets, dens)], dtype=object).T
        if np.abs(scaled).max() < _INT64_SAFE:
            scaled = scaled.astype(np.int64)
        image = _matmul(self._op, scaled)
        if image[self.m :].any():
            raise InfeasibleLP("target outside molecule span")
        return image[: self.m], dens

    def _reduce_vec(self, v: Vec) -> tuple[list[int], int]:
        """``_reduce`` for one target, as Python ints."""
        rhs, [den] = self._reduce([v])
        return rhs[:, 0].tolist(), den

    # -- simplex core ----------------------------------------------------

    def _phase_one(self, rhs: list[int]) -> None:
        """Dense two-phase start on the integer tableau d * B^-1 [A | I | rhs]
        (rows sign-fixed so rhs >= 0); establishes a dual-feasible optimal
        basis, whose N is read off the artificial block."""
        m, n = self.m, self.ncols
        cols = self._cols
        signs = [-1 if b < 0 else 1 for b in rhs]
        T = [
            [s * col[i] for col in cols] + [int(i == k) for k in range(m)] + [s * rhs[i]]
            for i, s in enumerate(signs)
        ]
        det = 1
        basis = [n + i for i in range(m)]

        def pivot(r: int, e: int) -> None:
            nonlocal T, det
            T, det = _pivot(T, det, [row[e] for row in T], r)
            basis[r] = e

        def run(cost: list[int], limit: int) -> None:
            while True:
                # Bland: first improving column, d * red_j < 0
                entering = next((j for j in range(limit) if j not in basis and det * cost[j]
                                 < sum(cost[basis[i]] * T[i][j] for i in range(m))), None)
                if entering is None:
                    return
                r = None  # least ratio rhs_i / t_i over t_i > 0, then least basis index
                for i in range(m):
                    t = T[i][entering]
                    if t > 0 and (r is None or (T[i][-1] * T[r][entering], basis[i])
                                  < (T[r][-1] * t, basis[r])):
                        r = i
                if r is None:
                    raise InfeasibleLP("unbounded phase; molecule costs degenerate")
                pivot(r, entering)

        art_cost = [0] * n + [1] * m
        run(art_cost, n + m)
        if sum(T[i][-1] * art_cost[basis[i]] for i in range(m)) != 0:
            raise InfeasibleLP("phase one optimum positive")
        # drive zero-level artificials out of the basis
        for i in range(m):
            if basis[i] >= n:
                pivot_col = next((j for j in range(n) if T[i][j] != 0 and j not in basis), None)
                if pivot_col is None:
                    raise InfeasibleLP("redundant row survived row reduction")
                pivot(i, pivot_col)
        run(self._cost + [0] * m, n)
        if any(b >= n for b in basis):
            raise InfeasibleLP("artificial column stuck in basis")
        # the artificial block is d * (diag(signs) B)^-1
        self._basis, self._det = basis, det
        self._adj = [[T[i][n + k] * signs[k] for k in range(m)] for i in range(m)]
        u = self._dual_row(basis, self._adj)
        self._red = [det * cj - sum(map(mul, u, col)) for cj, col in zip(self._cost, cols)]

    def _dual_row(self, columns: Sequence[int], N: list[list[int]]) -> list[int]:
        """c_B N, the dual of the scaled reduced system times d."""
        c = self._cost
        return [sum(c[columns[i]] * N[i][k] for i in range(self.m)) for k in range(self.m)]

    def solve(self, target: Vec) -> Fraction:
        return self.solve_full(target)[0]

    def solve_full(self, target: Vec):
        """(value, signed molecule solution, dual certificate) for one target.

        The dual certificate y satisfies |<y, molecule_j>| <= cost_j for all
        j and <y, target> = value, so it witnesses optimality by weak
        duality without trusting the pivoting path.  Warm-starts from the
        previous basis (dual feasibility is independent of the target)."""
        rhs, den = self._reduce_vec(target)
        if self._basis is None:
            self._phase_one(rhs)
        m, J = self.m, self.ncols // 2
        basis = self._basis
        guard = 0
        while True:
            guard += 1
            if guard > 10_000:
                raise InfeasibleLP("dual simplex failed to terminate")
            N, det, R = self._adj, self._det, self._red
            xb = [sum(map(mul, row, rhs)) for row in N]  # x_B * d * den
            negative = [i for i in range(m) if xb[i] < 0]
            if not negative:
                break
            row_leave = min(negative, key=basis.__getitem__)
            # pivot row over all columns (the second half negates the first)
            half = [sum(map(mul, N[row_leave], col)) for col in self._cols[:J]]
            arow = half + [-a for a in half]
            in_basis = set(basis)
            enter = None
            for j, a in enumerate(arow):
                if a >= 0 or j in in_basis:
                    continue
                # ratio R_j / -a_j below the best so far; ties keep the lower j
                if enter is None or R[j] * -arow[enter] < R[enter] * -a:
                    enter = j
            if enter is None:
                raise InfeasibleLP("dual unbounded: target infeasible")
            # p = arow[enter] < 0, so sgn(p) = -1 in the R update
            p = arow[enter]
            self._red = _exact_update(-p, R, -R[enter], arow, det)
            col = [sum(map(mul, row, self._cols[enter])) for row in N]
            self._adj, self._det = _pivot(N, det, col, row_leave)
            basis[row_leave] = enter
            self.pivots += 1

        return self._certificate(OptimalBasis(tuple(basis), det, N), xb, den)

    def _certificate(self, basis: OptimalBasis, xb: list[int], den: int):
        """(value, signed molecule solution, dual) on a basis, from
        xb = N * rhs = x_B * d * den."""
        J = self.ncols // 2
        scale = basis.det * den
        value = Fraction(sum(self._cost[j] * x for j, x in zip(basis.columns, xb)),
                         scale * self._cost_den)
        beta: dict[int, Fraction] = {}
        for x, j in zip(xb, basis.columns):
            if x:
                mol, sgn = (j, 1) if j < J else (j - J, -1)
                beta[mol] = beta.get(mol, Fraction(0)) + sgn * Fraction(x, scale)
        # lift the dual into original coordinates through the operator E
        u = self._dual_row(basis.columns, basis.adj)
        y = tuple(
            Fraction(sum(u[i] * self._op[i][k] for i in range(self.m)), basis.det * self._cost_den)
            for k in range(self.dim)
        )
        return value, beta, y

    def certificate(self, k: int, target: Vec):
        """``solve_full``'s (value, solution, dual) for a target on cached
        basis k, or None where B^-1 v has a negative entry: the basis is
        then not primal feasible for the target and certifies nothing."""
        basis = self.bases[k]
        rhs, den = self._reduce_vec(target)
        xb = [sum(map(mul, row, rhs)) for row in basis.adj]
        if any(x < 0 for x in xb):
            return None
        return self._certificate(basis, xb, den)

    def solve_many(self, targets: Sequence[Vec]) -> list[tuple[Fraction, int]]:
        """(value, index into ``bases``) for each target, from the cache of
        optimal bases (module docstring).  The targets are reduced once
        into an integer m x T matrix r.  Each cached basis, old ones first,
        covers every uncovered target with N r >= 0 at value
        c_B N r / (d * den * cost_den), in one exact product (``_matmul``);
        then the first target still uncovered is solved warm by
        ``solve_full``, its final basis is cached, and the loop repeats.
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
            value = self.solve_full(targets[first])[0]
            self.bases.append(OptimalBasis(tuple(self._basis), self._det, self._adj))
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


def verify_certificate(
    molecules: Sequence[Vec],
    costs: Sequence[Fraction],
    target: Vec,
    value: Fraction,
    beta: dict[int, Fraction],
    dual: Vec,
) -> bool:
    """Exact optimality proof: the primal solution reproduces the target at
    the claimed cost, and the dual functional shows no decomposition can be
    cheaper.  Independent of the pivoting that produced the solution."""
    check = Certifier(molecules, costs)
    return check.certifies(target, value, beta, dual) and check.dual_feasible(dual)


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
    integer-preserving pivot ``_pivot`` the simplex uses: afterwards the
    pivot block is d * I, so d * beta is read off the pivot rows.  A target
    counts a subset only when the non-pivot rows vanish in its column and
    the candidate passes the exact residual check M_S (d beta) = d t in
    ints, so a fault in the shared pivot can only raise a value, never
    lower it, and a comparison with the simplex reports it as a mismatch.
    Exponential in the molecule count: intended for small instances only.
    """
    targets = [tuple(Fraction(x) for x in t) for t in targets]
    if not targets:
        return []
    dim = len(targets[0])
    mols = [tuple(Fraction(x) for x in m) for m in molecules]
    scale = lcm(*(x.denominator for v in (*mols, *targets) for x in v))
    cols = [[int(x * scale) for x in m] for m in mols]
    rhs = [[int(x * scale) for x in t] for t in targets]
    cost_den = lcm(*(Fraction(c).denominator for c in costs))
    cost = [int(Fraction(c) * cost_den) for c in costs]
    _, _, pivot_rows = _eliminate([[c[i] for c in cols] for i in range(dim)], len(cols))
    rank = len(pivot_rows) - pivot_rows.count(None)
    # per target: sum |d beta_j| cost_j and its d, the value times d * cost_den
    best: list[Optional[tuple[int, int]]] = [None] * len(targets)
    for subset in combinations(range(len(cols)), rank):
        tableau = [[cols[j][i] for j in subset] + [t[i] for t in rhs] for i in range(dim)]
        tableau, d, pivot_rows = _eliminate(tableau, rank)
        if None in pivot_rows:
            continue  # dependent subset
        free = [i for i in range(dim) if i not in pivot_rows]
        for k, t in enumerate(rhs):
            c = rank + k
            if any(tableau[i][c] for i in free):
                continue  # inconsistent: t leaves the span of the subset
            x = [tableau[i][c] for i in pivot_rows]  # d * beta
            num = sum(abs(b) * cost[j] for b, j in zip(x, subset))
            if best[k] is not None and num * best[k][1] >= best[k][0] * d:
                continue
            if any(sum(cols[j][i] * b for j, b in zip(subset, x)) != d * t[i] for i in range(dim)):
                continue  # residual check: a faulty pivot never counts
            best[k] = (num, d)
    return [None if b is None else Fraction(b[0], b[1] * cost_den) for b in best]


def basic_solution_oracle(
    molecules: Sequence[Vec], costs: Sequence[Fraction], target: Vec
) -> Optional[Fraction]:
    """``basic_solution_values`` for one target: the least cost over the
    bases of the molecules (which suffice, as proved there), each eliminated
    in integers and residual-checked; None outside the span."""
    return basic_solution_values(molecules, costs, [target])[0]
