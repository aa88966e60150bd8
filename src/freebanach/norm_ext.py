"""Extending the metric on an odd stage to a norm on the next vector stage.

In the construction, the auxiliary function gamma assigns prev-stage
distances to differences of prev-stage elements, solves an exact
weighted-l1 molecule program for the genuinely new elements, and recurses
convexly through formal inverses of combinations; the norm is the greatest
function below gamma closed under subadditivity-with-homogeneity and the
inverse-convex inequality.  Here gamma is computed once per stage, by
``norm_extend``, as the molecule gauge below: in closed form on stage 2
(``_line_norm``), by the molecule program on every later stage.  The
convex recursion is never needed, because a stage where it would apply is
refused (see below).  The extension check is
``verify.check_extension_norm``, the Dijkstra reference
``oracles.norm_decomposition_oracle``.

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

Stage 2 is the free space of a subset of the line (Godard, "Tree metrics
and their Lipschitz-free spaces", 2010), so G needs no program there.
Stage 1 is the points x^a, |a| <= cap (its word cap), at rho_1(x^a, x^b)
= |a - b| (``metric_ext._base_case_table``), with x^0 = e the zero
vector, and the molecules are x^a - x^b at cost |a - b|.  A member is
v = sum_a c_a x^a over the basis words x^a, a != 0 (a the letter-sign
sum).  Its flow across the unit step k = -cap, ..., cap - 1 is
F(k) = sum_{a > k} c_a for k >= 0 and -sum_{a <= k} c_a for k < 0, and
G(v) = sum_k |F(k)|:

* <=: the neighbour steps s_k = x^(k+1) - x^k are molecules of cost 1
  between stage-1 members, and v = sum_k F(k) s_k (the coefficient of x^a
  is F(a - 1) - F(a), with F(cap) = F(-cap - 1) = 0), at cost
  sum_k |F(k)|.
* >=: let phi(0) = 0 and phi(k + 1) - phi(k) = sign F(k), and L the linear
  map with L(x^a) = phi(a).  phi is 1-Lipschitz, so |L(d)| <= c(d) on every
  molecule, and L(v) <= sum_j |beta_j| c_j for every decomposition of v.
  By summation by parts L(v) = sum_k F(k) sign F(k) = sum_k |F(k)|.

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
from math import lcm

import numpy as np

from .lp import MoleculeLP, _absmax, _fit, _ints
from .relax import RelaxError
from .terms import UNIT_ID

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


def sign_class(a: np.ndarray) -> np.ndarray:
    """The rows of a 2-D integer array, each negated where its first nonzero
    entry is negative: row by row the member of {v, -v} whose first nonzero
    entry is positive (a zero row stays)."""
    first = a[np.arange(len(a)), (a != 0).argmax(axis=1)]
    return np.where((first < 0)[:, None], -a, a)


def _dedupe_sign(molecules: dict[IntVec, Fraction]) -> dict[IntVec, Fraction]:
    """Keep one representative per +-pair (the solver supplies both signs)."""
    out: dict[IntVec, Fraction] = {}
    for canon, cost in zip(map(tuple, sign_class(_ints(list(molecules))).tolist()), molecules.values()):
        cur = out.get(canon)
        if cur is None or cost < cur:
            out[canon] = cost
    return out


def _line_norm(universe, stage, prev):
    """Stage 2's norm table in closed form, G(v) = sum_k |F(k)| (module
    docstring), as ``norm_extend`` returns it.  F is one product of the
    member coordinates over 2^shift, ``Stage.coordinates``, with the +-1/0
    step matrix of the basis words' letter-sign sums.  Each |F(k)| is at
    most dim * max|coordinate|, and their sum over the 2 cap steps at most
    2 cap times that: in int64 when ``lp._fit``'s bound holds, else in
    Python ints.  On a prev member x^a the value must be rho_1(x^a, e), as
    the metric's table gives it: otherwise the norm would not extend the
    metric, and ``NormExtensionError`` is raised."""
    word_of = universe.store.word_of
    exponents = [sum(sign for _, sign in word_of(b)) for b in stage.basis]
    cap, shift = prev.word_cap, scalar_shift(stage)
    steps = np.array([[1 if a > k >= 0 else -1 if a <= k < 0 else 0 for k in range(-cap, cap)] for a in exponents],
                     dtype=np.int64)
    coords = stage.coordinates(shift)
    coords, steps = _fit(2 * cap * len(exponents) * _absmax(coords), coords, steps)
    sums = np.abs(coords @ steps).sum(axis=1).tolist()
    den = 1 << shift
    for m in prev.members:
        value, rho = Fraction(sums[stage.members.index(m)], den), universe.rho(prev, m, UNIT_ID)
        if value != rho:
            raise NormExtensionError(f"prev member {m}: the closed form gives {value}, its metric value is {rho}")
    return sums, den


def _gauge_table(universe, stage, prev):
    """The molecule program's table for a stage after 2, as ``norm_extend``
    returns it, and the program: one value per class, over the lcm of the
    program's denominators, the centre 0."""
    basis_pos = {b: i for i, b in enumerate(stage.basis)}
    shift = scalar_shift(stage)
    molecules = molecule_table(universe, prev, basis_pos, len(basis_pos), shift)
    canon = _dedupe_sign(molecules)
    lp = MoleculeLP(list(canon.keys()), list(canon.values()))

    coords = stage.coordinates(shift)
    last = len(coords) - 1
    nums, dens, _ = lp.solve_many(sign_class(coords[: last // 2]))
    for k, m in enumerate(stage.members):
        if m in prev.member_set and 2 * k != last:
            v, c = tuple(coords[k].tolist()), min(k, last - k)
            g = Fraction(nums[c], dens[c])
            if molecules.get(v) != g:
                raise NormExtensionError(
                    f"prev member {m}: molecule gauge {g} differs from its metric value {molecules.get(v)}"
                )
    scale = lcm(*set(dens))
    ints = [n * (scale // d) for n, d in zip(nums, dens)]
    return (ints + [0] + ints[::-1], scale), lp


def norm_extend(universe, stage, prev, cfg):
    """Norm table for a vector stage, as ``(ints, scale)``: the member norms
    ``ints / scale``, a list in member order.

    gamma(m) is the molecule gauge of m's +- class on every nonzero member.
    Stage 2 has it in closed form (``_line_norm``).  On a later stage all
    classes, {k, n - 1 - k} for member k, go to one
    ``MoleculeLP.solve_many`` call in member order, which solves warm only
    the classes its cached optimal bases do not cover; ``gamma_lp_calls``
    counts those solves (0 on stage 2).  On a prev member the gauge must
    equal the member's prev-metric value, on stage 2 its distance to e and
    later the molecule cost of its own vector: otherwise the norm would not
    extend the metric, and ``NormExtensionError`` is raised.  Without an
    inverse-convex instance the norm is gamma (module docstring); a stage
    with one would need at least 5^24 members and is refused with
    ``NormExtensionError`` before anything is solved.
    """
    instances = universe.store.convex_instances(stage, inverse=True)
    if instances:
        raise NormExtensionError(
            f"stage {stage.index} has {len(instances)} inverse-convex instance(s), first at "
            f"member {instances[0][0]}: not built (such a stage needs at least 5^24 members)"
        )
    if stage.index == 2:
        gamma, calls, pivots = _line_norm(universe, stage, prev), 0, 0
    else:
        gamma, lp = _gauge_table(universe, stage, prev)
        calls, pivots = len(lp.bases), lp.pivots
    stage.notes["gamma_lp_calls"] = calls
    stage.notes["gamma_lp_pivots"] = pivots
    # counters perfbench's tracer still reads on every norm stage
    stage.notes["lattice_cells"] = 0
    stage.notes["inverse_convex_instances"] = 0

    for m, v in zip(stage.members, gamma[0]):
        if v <= 0 and m != UNIT_ID:
            raise NormExtensionError(f"zero norm on non-unit member {m}")
    return gamma
