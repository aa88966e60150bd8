"""Extending the metric on an odd stage to a norm on the next vector stage.

The auxiliary function gamma assigns prev-stage distances to differences of
prev-stage elements, solves an exact weighted-l1 molecule program for the
genuinely new elements, and recurses convexly through formal inverses of
combinations.  The norm is the greatest function below gamma closed under
subadditivity-with-homogeneity and the inverse-convex inequality, realized
as a relaxation over a coefficient lattice slightly larger than the stage
so that partial sums of decompositions stay representable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

from .lp import MoleculeLP
from .relax import LatticeSystem, RelaxError
from .scalars import Dyadic
from .terms import UNIT_ID

Vec = tuple[Fraction, ...]


class NormExtensionError(RelaxError):
    pass


class OutOfStageError(ValueError):
    pass


def member_vector(universe, eid: int, basis_pos: dict[int, int], dim: int) -> Vec:
    return universe.store.vector_fractions(eid, basis_pos, dim)


def molecule_table(universe, prev, basis_pos: dict[int, int], dim: int) -> dict[Vec, Fraction]:
    """Elementary differences a - b over prev-stage pairs, each with the
    least metric value among the pairs realizing it; the zero vector is
    excluded."""
    out: dict[Vec, Fraction] = {}
    members = prev.members
    vecs = {m: member_vector(universe, m, basis_pos, dim) for m in members}
    for i, a in enumerate(members):
        va = vecs[a]
        for b in members:
            if a == b:
                continue
            vb = vecs[b]
            d = tuple(x - y for x, y in zip(va, vb))
            cost = universe.rho(prev, a, b)
            cur = out.get(d)
            if cur is None or cost < cur:
                out[d] = cost
    return out


def gamma_base(universe, x: int, y: int, prev) -> Fraction:
    """gamma(x - y) = rho(x, y) for prev-stage x, y; minimal over the pairs
    realizing the same difference only when called through the table."""
    if x not in prev.member_set or y not in prev.member_set:
        raise OutOfStageError("gamma_base arguments must lie in the previous stage")
    return universe.rho(prev, x, y)


def gamma_new(universe, x: int, y: int, stage, prev, cfg, lp: Optional[MoleculeLP] = None) -> Fraction:
    """gamma for x - y with x beyond the previous stage, by induction on the
    rank of y: rank zero solves the molecule program exactly; positive rank
    with y a formal inverse of a convex combination recurses convexly."""
    store = universe.store
    if x in prev.member_set:
        raise OutOfStageError("gamma_new requires x outside the previous stage")
    basis_pos = {b: i for i, b in enumerate(stage.basis)}
    dim = len(stage.basis)
    if lp is None:
        mols = molecule_table(universe, prev, basis_pos, dim)
        canon = _dedupe_sign(mols)
        lp = MoleculeLP(list(canon.keys()), list(canon.values()))

    def value(xv: Vec, yid: int) -> Fraction:
        r = store.rank(yid)
        if r == 0:
            yv = member_vector(universe, yid, basis_pos, dim)
            target = tuple(a - b for a, b in zip(xv, yv))
            return lp.solve(target)
        dec = store.inverse_convex_decomposition(yid)
        if dec is None:
            raise NormExtensionError(
                f"positive-rank gamma argument {yid} is not an inverse of a convex combination"
            )
        total = Fraction(0)
        for basis_id, coeff in dec:
            zi = store.lookup(store.group_inv(basis_id))
            if zi is None:
                raise NormExtensionError(f"inverse of basis element {basis_id} not interned")
            total += coeff.as_fraction() * value(xv, zi)
        return total

    return value(member_vector(universe, x, basis_pos, dim), y)


def _dedupe_sign(molecules: dict[Vec, Fraction]) -> dict[Vec, Fraction]:
    """Keep one representative per +-pair (the solver supplies both signs)."""
    out: dict[Vec, Fraction] = {}
    for d, cost in molecules.items():
        first = next(x for x in d if x != 0)
        canon = d if first > 0 else tuple(-x for x in d)
        cur = out.get(canon)
        if cur is None or cost < cur:
            out[canon] = cost
    return out


class CoefficientLattice:
    """Uniform dyadic value grid per basis coordinate, sized to hold the
    stage coefficients expanded by the configured factor."""

    def __init__(self, scalar_set: tuple[Dyadic, ...], dim: int, expansion: int, cell_budget: int):
        log2den = max(s.log2den for s in scalar_set)
        top = max(abs(s.as_fraction()) for s in scalar_set)
        step = Fraction(1, 1 << log2den)
        for factor in range(expansion, 0, -1):
            count = top * factor / step
            assert count.denominator == 1
            values = [step * k for k in range(-int(count), int(count) + 1)]
            if len(values) ** dim <= cell_budget:
                break
        else:
            raise NormExtensionError(
                f"coefficient lattice exceeds the cell budget even unexpanded (dim {dim})"
            )
        self.values = values
        self.expansion_used = factor
        self.radix = len(values)
        self.dim = dim
        self.digit = {v: i for i, v in enumerate(values)}
        self.zero_digit = self.digit[Fraction(0)]

    def digits(self, vec: Vec) -> Optional[tuple[int, ...]]:
        out = []
        for x in vec:
            d = self.digit.get(x)
            if d is None:
                return None
            out.append(d)
        return tuple(out)

    def cell(self, digits: tuple[int, ...]) -> int:
        idx = 0
        for d in digits:
            idx = idx * self.radix + d
        return idx

    def cell_of_vec(self, vec: Vec) -> Optional[int]:
        d = self.digits(vec)
        return None if d is None else self.cell(d)

    def all_scalings(self) -> list[Fraction]:
        """Candidate homogeneity factors: ratios of nonzero lattice values."""
        nz = sorted({abs(v) for v in self.values if v != 0})
        out = set()
        for a in nz:
            for b in nz:
                out.add(Fraction(a, b))
        factors = set()
        for q in out:
            factors.add(q)
            factors.add(-q)
        factors.discard(Fraction(1))
        return sorted(factors)


def norm_extend(universe, stage, prev, cfg) -> dict[int, Fraction]:
    """Norm table for a vector stage: gamma seeds plus relaxation under
    subadditive steps, homogeneity, and inverse-convex instances."""
    store = universe.store
    if stage.index == 0:
        return {UNIT_ID: Fraction(0)}
    basis = stage.basis
    dim = len(basis)
    basis_pos = {b: i for i, b in enumerate(basis)}
    lattice = CoefficientLattice(
        stage.scalar_set, dim, cfg.ambient_expansion, cfg.lattice_cell_budget
    )
    stage.notes["lattice_cells"] = lattice.radix**dim
    stage.notes["lattice_expansion"] = lattice.expansion_used

    molecules = molecule_table(universe, prev, basis_pos, dim)
    canon = _dedupe_sign(molecules)
    lp = MoleculeLP(list(canon.keys()), list(canon.values()))

    system = LatticeSystem(lattice.radix, dim)
    zero_cell = lattice.cell((lattice.zero_digit,) * dim)
    system.seed(zero_cell, Fraction(0))

    # gamma on members: base clause where the element is a prev difference,
    # molecule program for the genuinely new ones (warm-started in order).
    # The program value depends only on the target vector and is even under
    # negation, so each +-class is solved once.
    vecs = {m: member_vector(universe, m, basis_pos, dim) for m in stage.members}
    lp_solved = 0
    lp_memo: dict[Vec, Fraction] = {}
    gamma: dict[int, Fraction] = {UNIT_ID: Fraction(0)}
    for m in stage.members:
        if m == UNIT_ID:
            continue
        v = vecs[m]
        base = molecules.get(v)
        if m in prev.member_set:
            if base is None:
                raise NormExtensionError(f"prev member {m} is not a prev difference")
            g = base
        else:
            first = next(x for x in v if x != 0)
            canon_v = v if first > 0 else tuple(-x for x in v)
            g = lp_memo.get(canon_v)
            if g is None:
                g = lp.solve(canon_v)
                lp_memo[canon_v] = g
                lp_solved += 1
            if base is not None and base < g:
                g = base
        gamma[m] = g
        system.seed(lattice.cell_of_vec(v), g)
    stage.gamma = gamma
    stage.notes["gamma_lp_calls"] = lp_solved
    stage.notes["gamma_lp_pivots"] = lp.pivots

    # molecule bounds on in-lattice difference cells (rule (a))
    for d, cost in molecules.items():
        cell = lattice.cell_of_vec(d)
        if cell is not None:
            system.seed(cell, cost)

    # subadditive steps by every nonzero member
    for m in stage.members:
        if m == UNIT_ID:
            continue
        digits = lattice.digits(vecs[m])
        offset = tuple(d - lattice.zero_digit for d in digits)
        system.add_step(offset, lattice.cell(digits))

    _add_homogeneity(system, lattice)

    # inverse-convex instances (norm-side condition on formal inverses)
    instances = 0
    for y in stage.members:
        dec = store.inverse_convex_decomposition(y)
        if dec is None:
            continue
        yv = vecs[y]
        z_inv_vecs = []
        ok = True
        for basis_id, coeff in dec:
            zi = store.lookup(store.group_inv(basis_id))
            if zi is None or zi not in stage.member_set:
                ok = False
                break
            z_inv_vecs.append((coeff.as_fraction(), vecs[zi]))
        if not ok:
            continue
        for x in stage.members:
            xv = vecs[x]
            target = lattice.cell_of_vec(tuple(a - b for a, b in zip(xv, yv)))
            if target is None:
                continue
            terms = []
            for alpha, zv in z_inv_vecs:
                c = lattice.cell_of_vec(tuple(a - b for a, b in zip(xv, zv)))
                if c is None:
                    terms = None
                    break
                terms.append((alpha, c))
            if terms:
                system.add_convex(target, terms)
                instances += 1
    stage.notes["inverse_convex_instances"] = instances

    values, sweeps = system.solve()
    stage.notes["norm_sweeps"] = sweeps

    table: dict[int, Fraction] = {}
    for m in stage.members:
        cell = lattice.cell_of_vec(vecs[m])
        v = values.get(cell)
        if v is None:
            raise NormExtensionError(f"norm not finite on member {m}")
        if m == UNIT_ID:
            if v != 0:
                raise NormExtensionError("norm of the unit is nonzero")
        elif v <= 0:
            raise NormExtensionError(f"zero norm on non-unit member {m}")
        table[m] = v
    return table


def _add_homogeneity(system: LatticeSystem, lattice: CoefficientLattice) -> None:
    """Two-sided |alpha|-homogeneity maps for every ratio of lattice values."""
    radix, dim = lattice.radix, lattice.dim
    vals = lattice.values
    for alpha in lattice.all_scalings():
        digit_map = np.full(radix, -1, dtype=np.int64)
        for i, v in enumerate(vals):
            j = lattice.digit.get(v * alpha)
            if j is not None:
                digit_map[i] = j
        if (digit_map < 0).all():
            continue
        src, dst = _lattice_map_cells(digit_map, radix, dim)
        if src.size:
            system.add_homogeneity(src, dst, abs(alpha))


def _lattice_map_cells(digit_map: np.ndarray, radix: int, dim: int):
    """All cells whose every digit maps, paired with their images."""
    size = radix**dim
    idx = np.arange(size, dtype=np.int64)
    mapped = np.zeros(size, dtype=np.int64)
    ok = np.ones(size, dtype=bool)
    rest = idx.copy()
    for k in range(dim):
        weight = radix ** (dim - 1 - k)
        digit = rest // weight
        rest = rest % weight
        m = digit_map[digit]
        ok &= m >= 0
        mapped = mapped * radix + np.where(m >= 0, m, 0)
    return idx[ok], mapped[ok]


def check_extension_norm(universe, stage, prev):
    """The new norm agrees exactly with the previous metric on differences
    of previous-stage elements that land in this stage."""
    from .verify import VerificationReport
    from .metric_ext import _vector_diff_id

    report = VerificationReport(suite=f"extension norm_{stage.index}")
    members = prev.members
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            diff = _vector_diff_id(universe, a, b)
            if diff is None or diff not in stage.member_set:
                continue
            want = universe.rho(prev, a, b)
            got = stage.table.get(diff)
            report.attempted += 1
            if got == want:
                report.passed += 1
            else:
                report.add_counterexample(pair=(a, b), expected=str(want), got=str(got))
    return report


def norm_decomposition_oracle(universe, stage, targets, box: Fraction) -> dict[int, Fraction]:
    """Independent check: minimize the gamma-sum over decompositions of a
    target into stage members whose partial sums stay inside the coordinate
    box, by Dijkstra over partial sums (heap, dicts and Fractions only)."""
    import heapq

    basis_pos = {b: i for i, b in enumerate(stage.basis)}
    dim = len(stage.basis)
    gammas = []
    for m in stage.members:
        if m == UNIT_ID:
            continue
        gammas.append((member_vector(universe, m, basis_pos, dim), stage.gamma[m]))
    wanted = set(targets)
    cutoff = max(stage.gamma[m] for m in stage.members)
    start = tuple(Fraction(0) for _ in range(dim))
    dist: dict[Vec, Fraction] = {start: Fraction(0)}
    heap: list = [(Fraction(0), start)]
    settled: set[Vec] = set()
    found = 0
    while heap and found < len(wanted):
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node in wanted:
            found += 1
        for mv, cost in gammas:
            nd = d + cost
            if nd > cutoff:
                continue
            nv = tuple(a + b for a, b in zip(node, mv))
            if any(abs(x) > box for x in nv):
                continue
            cur = dist.get(nv)
            if cur is None or nd < cur:
                dist[nv] = nd
                heapq.heappush(heap, (nd, nv))
    return {i: dist[t] for i, t in enumerate(targets) if t in dist}
