"""Extending the metric on an odd stage to a norm on the next vector stage.

The auxiliary function gamma assigns prev-stage distances to differences of
prev-stage elements, solves an exact weighted-l1 molecule program for the
genuinely new elements, and recurses convexly through formal inverses of
combinations.  The norm is the greatest function below gamma closed under
subadditivity-with-homogeneity and the inverse-convex inequality.

Molecules are the differences a - b of prev-stage pairs, each costing the
least rho(a, b) that realizes it.  Their gauge

    G(v) = min { sum_j |beta_j| c_j : sum_j beta_j d_j = v }

is the molecule program's value.  It is a seminorm on the molecule span and
even, so it depends on the +- class of v only.  Without inverse-convex
instances the norm is G on every member:

* Every seed is >= G.  A molecule d costs c(d) >= G(d), since d decomposes
  as itself.  A member's gamma seed is G, or on a prev member the molecule
  cost base(v) of its own vector, which is >= G(v) for the same reason.
* Subadditive steps and homogeneity keep "f >= G": f(v - u) + f(u) >=
  G(v - u) + G(u) >= G(v), and |alpha| f(v) >= |alpha| G(v) = G(alpha v).
  So the greatest fixpoint is >= G everywhere.
* The fixpoint is also <= every seed, so it is G on each member whose seed
  is G.  On a prev member it lies between G(v) and base(v).  ``norm_extend``
  requires base(v) = G(v) there (the prev-member isometry check) and raises
  ``NormExtensionError`` otherwise.  So gamma, which is G(+-m) on every
  nonzero member, is the norm.

An inverse-convex instance is a member y = c^-1, with c a convex
combination (support >= 2) of basis elements whose inverses all lie in the
stage.  Its rule could push the norm below G, so ``norm_extend`` refuses a
stage that has one with ``NormExtensionError``.  No buildable tower reaches
such a stage:

* c comes from an earlier vector stage whose scalar set holds a value
  strictly between 0 and 1.  Being symmetric and holding 0 and +-1, that set
  has at least 5 values, and scalar sets only grow.
* If c lies in X_2, then X_2 has at least 5^2 members, 22 of them new.  X_3
  holds their 22 inverses as new words, so the basis of X_4 is x, x^-1 and
  those 22, and X_4 has at least 5^24 (about 6 * 10^16) members.
* If c first appears at a later vector stage, the first norm stage that
  holds c^-1 is later still, and larger.

Such a stage is far beyond ``member_budget``, so the refusal costs no
buildable configuration anything.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .lp import MoleculeLP
from .relax import RelaxError
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


def sign_class(v: Vec) -> Vec:
    """The member of {v, -v} whose first nonzero entry is positive (v != 0)."""
    first = next(x for x in v if x != 0)
    return v if first > 0 else tuple(-x for x in v)


def _dedupe_sign(molecules: dict[Vec, Fraction]) -> dict[Vec, Fraction]:
    """Keep one representative per +-pair (the solver supplies both signs)."""
    out: dict[Vec, Fraction] = {}
    for d, cost in molecules.items():
        canon = sign_class(d)
        cur = out.get(canon)
        if cur is None or cost < cur:
            out[canon] = cost
    return out


def norm_extend(universe, stage, prev, cfg) -> dict[int, Fraction]:
    """Norm table for a vector stage.

    gamma(m) is the molecule gauge of m's +- class on every nonzero member,
    one program per class, warm-started in member order.  On a prev member
    the gauge must equal the molecule cost of the member's own vector, its
    prev-metric value: otherwise the norm would not extend the metric, and
    ``NormExtensionError`` is raised.  Without an inverse-convex instance
    the norm is gamma (module docstring); a stage with one would need at
    least 5^24 members and is refused with ``NormExtensionError``.
    """
    if stage.index == 0:
        return {UNIT_ID: Fraction(0)}
    instances = inverse_convex_instances(universe, stage)
    if instances:
        raise NormExtensionError(
            f"stage {stage.index} has {len(instances)} inverse-convex instance(s), first at "
            f"member {instances[0][0]}: not built (such a stage needs at least 5^24 members)"
        )
    basis_pos = {b: i for i, b in enumerate(stage.basis)}
    dim = len(stage.basis)
    molecules = molecule_table(universe, prev, basis_pos, dim)
    canon = _dedupe_sign(molecules)
    lp = MoleculeLP(list(canon.keys()), list(canon.values()))

    gauge: dict[Vec, Fraction] = {}
    gamma: dict[int, Fraction] = {UNIT_ID: Fraction(0)}
    for m in stage.members:
        if m == UNIT_ID:
            continue
        v = member_vector(universe, m, basis_pos, dim)
        cls = sign_class(v)
        g = gauge.get(cls)
        if g is None:
            g = gauge[cls] = lp.solve(cls)
        if m in prev.member_set and molecules.get(v) != g:
            raise NormExtensionError(
                f"prev member {m}: molecule gauge {g} differs from its metric value {molecules.get(v)}"
            )
        gamma[m] = g
    stage.gamma = gamma
    stage.notes["gamma_lp_calls"] = len(gauge)
    stage.notes["gamma_lp_pivots"] = lp.pivots
    # counters perfbench's tracer still reads on every norm stage
    stage.notes["lattice_cells"] = 0
    stage.notes["inverse_convex_instances"] = 0

    for m, v in gamma.items():
        if m == UNIT_ID:
            if v != 0:
                raise NormExtensionError("norm of the unit is nonzero")
        elif v <= 0:
            raise NormExtensionError(f"zero norm on non-unit member {m}")
    return dict(gamma)


def inverse_convex_instances(universe, stage) -> list[tuple[int, tuple[tuple[Fraction, int], ...]]]:
    """Members y = c^-1 of the stage, with c a convex combination of basis
    elements whose inverses z all lie in the stage, as (y, ((alpha, z), ...))."""
    store = universe.store
    out = []
    for y in stage.members:
        dec = store.inverse_convex_decomposition(y)
        if dec is None:
            continue
        terms = tuple((coeff.as_fraction(), store.lookup(store.group_inv(b))) for b, coeff in dec)
        if all(z in stage.member_set for _, z in terms):
            out.append((y, terms))
    return out


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
