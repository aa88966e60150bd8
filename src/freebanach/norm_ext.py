"""Extending the metric on an odd stage to a norm on the next vector stage.

In the construction, the auxiliary function gamma assigns prev-stage
distances to differences of prev-stage elements, solves an exact
weighted-l1 molecule program for the genuinely new elements, and recurses
convexly through formal inverses of combinations; the norm is the greatest
function below gamma closed under subadditivity-with-homogeneity and the
inverse-convex inequality.  Here gamma is computed once per stage, by
``norm_extend``, as the molecule gauge below; the convex recursion is never
needed, because a stage where it would apply is refused (see the end of
this docstring).

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

Coordinates are integers.  Every coefficient of a member, and of a prev
member, is a numerator over 2^k, for k the largest exponent of the
stage's scalar set (scalar sets only grow); ``scalar_shift`` gives k.  The
member vectors are the rows of ``Stage.coordinates(k)``, and the prev
members' ``TermStore.vector_ints``: a word stage is no grid.  The scale
changes no gauge value: beta is feasible for the molecules d_j at target v
exactly when it is feasible for 2^k d_j at 2^k v, at the same cost.  Only
the dual certificates scale, by 2^-k.

The +- class of member k of an n-member stage is {k, n - 1 - k}, and the
unit is the centre cell.  The r scalars are sorted and symmetric, so
digits d and r - 1 - d are negatives.  Every digit of n - 1 is r - 1, so
n - 1 - k has digit r - 1 - d where k has d: its row is -(row k).
"""

from __future__ import annotations

from fractions import Fraction

from .lp import MoleculeLP
from .relax import RelaxError
from .terms import UNIT_ID

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


class NormExtensionError(RelaxError):
    pass


def scalar_shift(stage) -> int:
    """k with every member coefficient of the vector stage, and of its
    prev stage, a numerator over 2^k: the scalar set's largest exponent."""
    return max((c.log2den for c in stage.scalar_set), default=0)


def molecule_table(universe, prev, basis_pos: dict[int, int], dim: int, shift: int) -> dict[IntVec, Fraction]:
    """Elementary differences a - b over prev-stage pairs, as numerators
    over 2^shift, each with the least metric value among the pairs
    realizing it; the zero vector is excluded."""
    out: dict[IntVec, Fraction] = {}
    members = prev.members
    vecs = {m: universe.store.vector_ints(m, basis_pos, dim, shift) for m in members}
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


def sign_class(v: IntVec) -> IntVec:
    """The member of {v, -v} whose first nonzero entry is positive (v != 0)."""
    first = next(x for x in v if x != 0)
    return v if first > 0 else tuple(-x for x in v)


def _dedupe_sign(molecules: dict[IntVec, Fraction]) -> dict[IntVec, Fraction]:
    """Keep one representative per +-pair (the solver supplies both signs)."""
    out: dict[IntVec, Fraction] = {}
    for d, cost in molecules.items():
        canon = sign_class(d)
        cur = out.get(canon)
        if cur is None or cost < cur:
            out[canon] = cost
    return out


def norm_extend(universe, stage, prev, cfg) -> dict[int, Fraction]:
    """Norm table for a vector stage.

    gamma(m) is the molecule gauge of m's +- class on every nonzero member.
    All classes, {k, n - 1 - k} for member k, go to one
    ``MoleculeLP.solve_many`` call in member order, which solves warm only
    the classes its cached optimal bases do not cover; ``gamma_lp_calls``
    counts those solves.  On a prev member the gauge must equal the
    molecule cost of the member's own vector, its prev-metric value:
    otherwise the norm would not extend the metric, and
    ``NormExtensionError`` is raised.  Without an inverse-convex instance
    the norm is gamma (module docstring); a stage with one would need at
    least 5^24 members and is refused with ``NormExtensionError``.
    """
    instances = universe.store.convex_instances(stage, inverse=True)
    if instances:
        raise NormExtensionError(
            f"stage {stage.index} has {len(instances)} inverse-convex instance(s), first at "
            f"member {instances[0][0]}: not built (such a stage needs at least 5^24 members)"
        )
    basis_pos = {b: i for i, b in enumerate(stage.basis)}
    shift = scalar_shift(stage)
    molecules = molecule_table(universe, prev, basis_pos, len(basis_pos), shift)
    canon = _dedupe_sign(molecules)
    lp = MoleculeLP(list(canon.keys()), list(canon.values()))

    vecs = list(map(tuple, stage.coordinates(shift).tolist()))
    last = len(vecs) - 1
    gauge = [value for value, _ in lp.solve_many([sign_class(v) for v in vecs[: last // 2]])]
    gamma: dict[int, Fraction] = {UNIT_ID: Fraction(0)}
    for k, (m, v) in enumerate(zip(stage.members, vecs)):
        if 2 * k == last:
            continue
        g = gauge[min(k, last - k)]
        if m in prev.member_set and molecules.get(v) != g:
            raise NormExtensionError(
                f"prev member {m}: molecule gauge {g} differs from its metric value {molecules.get(v)}"
            )
        gamma[m] = g
    stage.notes["gamma_lp_calls"] = len(lp.bases)
    stage.notes["gamma_lp_pivots"] = lp.pivots
    # counters perfbench's tracer still reads on every norm stage
    stage.notes["lattice_cells"] = 0
    stage.notes["inverse_convex_instances"] = 0

    for m, v in gamma.items():
        if v <= 0 and m != UNIT_ID:
            raise NormExtensionError(f"zero norm on non-unit member {m}")
    return gamma


def check_extension_norm(universe, stage, prev):
    """The new norm agrees exactly with the previous metric on differences
    of previous-stage elements that land in this stage."""
    from .verify import VerificationReport

    report = VerificationReport(suite=f"extension norm_{stage.index}")
    members = prev.members
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            diff = universe.store.combine_id(a, b)
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
        gammas.append((universe.store.vector_fractions(m, basis_pos, dim), stage.table[m]))
    wanted = set(targets)
    cutoff = max(stage.table[m] for m in stage.members)
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
