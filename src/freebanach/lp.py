"""Exact rational linear programming for the weighted-l1 molecule problem.

The norm extension repeatedly minimizes  sum_j |beta_j| * cost_j  subject to
sum_j beta_j * molecule_j = target,  over real beta.  Optima of rational
data are rational and attained at basic solutions, so everything here is
exact; no floating point touches any stored value.

``MoleculeLP`` row-reduces the constraints once in ``Fraction``, scales the
reduced system and the costs to integers by their common denominators, and
from then on pivots in integers only (integer-preserving elimination:
Edmonds 1967, Bareiss 1968).  For the current basis B it keeps
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
further target warm-starts with dual-simplex pivots (the desk tower makes
7112 over 3284 solves, ``pivots``).
``basic_solution_oracle`` independently enumerates all candidate supports
and is the cross-check required of the LP route.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Optional, Sequence

Vec = tuple[Fraction, ...]


class InfeasibleLP(ValueError):
    """Target vector outside the span of the elementary differences."""


class InexactDivision(ArithmeticError):
    """An integer-preserving pivot left a remainder: the d/N invariant broke."""


def _row_reduce(matrix: list[list[Fraction]], ncols: Optional[int] = None):
    """Gauss-Jordan elimination over the first ``ncols`` columns (all by
    default); returns (all rows, pivot column indices).  Rows past the
    pivots vanish on the eliminated columns."""
    rows = [row[:] for row in matrix]
    pivots: list[int] = []
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width if ncols is None else ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


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


class MoleculeLP:
    """min sum c_j |beta_j| s.t. sum beta_j m_j = v, resolved for many v.

    Columns are the signed molecules (+m_j and -m_j, each at cost c_j >= 0).
    The constraint matrix is row-reduced once so the working system has full
    row rank; targets inconsistent with the dropped rows are infeasible.
    ``pivots`` counts the dual-simplex pivots over all solves.
    """

    def __init__(self, molecules: Sequence[Vec], costs: Sequence[Fraction]):
        if not molecules:
            raise ValueError("no molecules")
        self.dim = len(molecules[0])
        self.molecules = [tuple(m) for m in molecules]
        self.costs = [Fraction(c) for c in costs]
        if any(c < 0 for c in self.costs):
            raise ValueError("negative molecule cost")

        # Coordinate rows of the constraint matrix may be dependent; eliminate
        # to full row rank, remembering the operator E so each target can be
        # mapped into the reduced system and checked for consistency.
        d, J = self.dim, len(self.molecules)
        work = [list(row) + [Fraction(int(i == k)) for k in range(d)]
                for i, row in enumerate(zip(*self.molecules))]
        work, pivots = _row_reduce(work, J)
        self.m = len(pivots)
        self.ncols = 2 * J
        # one common scale makes the reduced rows and E integer; scaling all
        # rows alike leaves every pivot choice, and phase one's, unchanged
        scale = lcm(*(x.denominator for row in work for x in row))
        self._op = [[int(x * scale) for x in row[J:]] for row in work]
        cols = [tuple(int(work[i][j] * scale) for i in range(self.m)) for j in range(J)]
        self._cols = cols + [tuple(-x for x in col) for col in cols]  # signed columns
        self._cost_den = lcm(*(c.denominator for c in self.costs))
        self._cost = [int(c * self._cost_den) for c in self.costs] * 2  # scaled c
        self.pivots = 0
        self._basis: Optional[list[int]] = None
        # N = d * B^-1, d = |det B| and R = d * reduced costs, set by phase one
        self._adj, self._det, self._red = [], 1, []

    def _reduce_vec(self, v: Vec) -> tuple[list[int], int]:
        """Integer right-hand side of the scaled reduced system and the
        target's common denominator; raises if v leaves the span."""
        v = [Fraction(x) for x in v]
        den = lcm(*(x.denominator for x in v))
        vi = [x.numerator * (den // x.denominator) for x in v]
        image = [sum(map(mul, row, vi)) for row in self._op]
        if any(image[self.m :]):
            raise InfeasibleLP("target outside molecule span")
        return image[: self.m], den

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
        u = self._dual_row()
        self._red = [det * cj - sum(map(mul, u, col)) for cj, col in zip(self._cost, cols)]

    def _dual_row(self) -> list[int]:
        """c_B N, the dual of the scaled reduced system times d."""
        c, basis, N = self._cost, self._basis, self._adj
        return [sum(c[basis[i]] * N[i][k] for i in range(self.m)) for k in range(self.m)]

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

        scale = det * den
        cost_b = [self._cost[j] for j in basis]
        value = Fraction(sum(map(mul, cost_b, xb)), scale * self._cost_den)
        beta: dict[int, Fraction] = {}
        for x, j in zip(xb, basis):
            if x:
                mol, sgn = (j, 1) if j < J else (j - J, -1)
                beta[mol] = beta.get(mol, Fraction(0)) + sgn * Fraction(x, scale)
        # lift the dual into original coordinates through the operator E
        u = self._dual_row()
        y = tuple(
            Fraction(sum(u[i] * self._op[i][k] for i in range(m)), det * self._cost_den)
            for k in range(self.dim)
        )
        return value, beta, y


def dual_feasible(molecules: Sequence[Vec], costs: Sequence[Fraction], dual: Vec) -> bool:
    """|<y, molecule_j>| <= cost_j for every j: by weak duality, <y, v> is
    then a lower bound on the program's value at every target v.  It does
    not depend on the target, so many targets can share one check."""
    return all(abs(sum(y * x for y, x in zip(dual, mol))) <= c for mol, c in zip(molecules, costs))


def certifies_target(
    molecules: Sequence[Vec],
    costs: Sequence[Fraction],
    target: Vec,
    value: Fraction,
    beta: dict[int, Fraction],
    dual: Vec,
) -> bool:
    """The per-target half of a certificate: the primal solution reproduces
    the target at the claimed cost, and the dual meets it there.  Proves
    optimality together with ``dual_feasible(molecules, costs, dual)``."""
    dim = len(target)
    acc = [Fraction(0)] * dim
    cost = Fraction(0)
    for j, b in beta.items():
        for i in range(dim):
            acc[i] += b * molecules[j][i]
        cost += abs(b) * costs[j]
    if tuple(acc) != tuple(target) or cost != value:
        return False
    return sum(y * x for y, x in zip(dual, target)) == value


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
    return certifies_target(molecules, costs, target, value, beta, dual) and dual_feasible(
        molecules, costs, dual
    )


def basic_solution_oracle(
    molecules: Sequence[Vec], costs: Sequence[Fraction], target: Vec
) -> Optional[Fraction]:
    """Exhaustive enumeration of basic feasible supports.

    Any optimum of the weighted-l1 problem is attained on a linearly
    independent molecule subset, so trying every subset of size <= rank and
    solving exactly yields the true minimum.  Returns None when the target
    is not in the molecule span.  Intended for small instances only.
    """
    if all(x == 0 for x in target):
        return Fraction(0)
    dim = len(target)
    _, pivots = _row_reduce([list(col) for col in zip(*molecules)])
    rank = len(pivots)
    best: Optional[Fraction] = None
    idx = range(len(molecules))
    for k in range(1, rank + 1):
        for subset in combinations(idx, k):
            cols = [molecules[j] for j in subset]
            aug = [[cols[j][i] for j in range(k)] + [target[i]] for i in range(dim)]
            reduced, piv = _row_reduce(aug)
            if any(p == k for p in piv):
                continue  # inconsistent: pivot in the rhs column
            if len(piv) < k:
                continue  # dependent subset; a smaller one covers it
            beta = [Fraction(0)] * k
            for row, p in zip(reduced, piv):
                beta[p] = row[k]
            value = sum(abs(b) * costs[j] for b, j in zip(beta, subset))
            if best is None or value < best:
                best = value
    return best
