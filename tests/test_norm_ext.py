"""Norm extension: construction-exact second stage, gamma clauses, stage-4 checks."""

import random
from fractions import Fraction as F

import pytest

from freebanach import UNIT_ID
from freebanach.lp import MoleculeLP, basic_solution_oracle, verify_certificate
from freebanach.metric_ext import _vector_diff_id
from freebanach.norm_ext import (
    OutOfStageError,
    check_extension_norm,
    gamma_base,
    gamma_new,
    member_vector,
    molecule_table,
    norm_decomposition_oracle,
    _dedupe_sign,
)
from freebanach.scalars import Dyadic


def _elt(u, coeffs):
    store = u.store
    x = u.x_id
    xi = store.lookup(store.group_inv(x))
    return store.lookup(store.lin_combine([(coeffs[0], x), (coeffs[1], xi)]))


def test_norm2_construction_values(exact_universe):
    u = exact_universe
    s2 = u.stage(2)
    store = u.store
    x = u.x_id
    xi = store.lookup(store.group_inv(x))
    assert s2.table[x] == 1
    assert s2.table[xi] == 1
    assert s2.table[UNIT_ID] == 0
    d = _vector_diff_id(u, x, xi)
    assert s2.table[d] == 2
    half_diff = _elt(u, (Dyadic(1, 1), Dyadic(-1, 1)))
    assert s2.table[half_diff] == 1  # homogeneity from ||x - x^-1|| = 2
    two_x = _elt(u, (Dyadic(2), Dyadic(0)))
    assert s2.table[two_x] == 2


def test_norm2_full_oracle(exact_universe):
    """Entry-for-entry equality with the three-variable minimization by
    basic-solution enumeration (criterion 2's oracle)."""
    u = exact_universe
    s2 = u.stage(2)
    basis_pos = {b: i for i, b in enumerate(s2.basis)}
    molecules = [(F(1), F(0)), (F(0), F(1)), (F(1), F(-1))]
    costs = [F(1), F(1), F(2)]
    for m in s2.members:
        v = member_vector(u, m, basis_pos, 2)
        assert s2.table[m] == basic_solution_oracle(molecules, costs, v)


def test_gamma_base(exact_universe):
    u = exact_universe
    s1 = u.stage(1)
    x = u.x_id
    xi = u.store.lookup(u.store.group_inv(x))
    assert gamma_base(u, x, UNIT_ID, s1) == 1
    assert gamma_base(u, x, x, s1) == 0
    assert gamma_base(u, x, xi, s1) == 2
    with pytest.raises(OutOfStageError):
        g = _elt(u, (Dyadic(1, 1), Dyadic(1, 1)))
        gamma_base(u, g, UNIT_ID, s1)


def test_gamma_new_rank0_lp(exact_universe):
    u = exact_universe
    s2, s1 = u.stage(2), u.stage(1)
    target = _elt(u, (Dyadic(1, 1), Dyadic(-1, 1)))  # (1/2)(x - x^-1)
    assert gamma_new(u, target, UNIT_ID, s2, s1, u.cfg) == 1
    two_x = _elt(u, (Dyadic(2), Dyadic(0)))
    assert gamma_new(u, two_x, UNIT_ID, s2, s1, u.cfg) == 2


def test_gamma_new_inverse_convex_recursion(rank_universe):
    """gamma(x - g^-1) = 1/2 gamma(x - x^-1) + 1/2 gamma(x - x) through the
    positive-rank clause, on a synthetic fourth-stage basis over the built
    rank-bearing third stage.  The shared fixture is cloned so its store is
    untouched."""
    import copy

    from freebanach.stages import Stage

    u = copy.copy(rank_universe)
    u.store = copy.deepcopy(rank_universe.store)
    store = u.store
    s3 = u.stage(3)
    # synthetic vector stage: register the fresh basis but skip enumeration
    fresh = [m for m in s3.members if m not in u.stage(2).member_set]
    for eid in fresh:
        store.register_basis(eid)
    stage4 = Stage(
        index=4,
        kind="vector",
        basis=tuple(u.stage(2).basis) + tuple(fresh),
    )

    x = u.x_id
    xi = store.lookup(store.group_inv(x))
    g = store.lookup(store.lin_combine([(Dyadic(1, 1), x), (Dyadic(1, 1), xi)]))
    gi = store.lookup(store.group_inv(g))
    assert store.rank(gi) == 1

    basis_pos = {b: i for i, b in enumerate(stage4.basis)}
    dim = len(stage4.basis)
    canon = _dedupe_sign(molecule_table(u, s3, basis_pos, dim))
    lp = MoleculeLP(list(canon.keys()), list(canon.values()))

    # pick a genuinely new element: x + g^-1 in the vector structure
    new_elt = store.intern(
        store.lin_combine([(Dyadic(1), x), (Dyadic(1), gi)])
    )
    assert new_elt not in s3.member_set

    got = gamma_new(u, new_elt, gi, stage4, s3, u.cfg, lp=lp)
    xv = member_vector(u, new_elt, basis_pos, dim)
    sub = []
    for z in (x, xi):  # support of g
        zi = store.lookup(store.group_inv(z))
        zv = member_vector(u, zi, basis_pos, dim)
        sub.append(lp.solve(tuple(a - b for a, b in zip(xv, zv))))
    assert got == F(1, 2) * sub[0] + F(1, 2) * sub[1]


def test_extension_norm_exact(exact_universe, desk_universe):
    rep2 = check_extension_norm(exact_universe, exact_universe.stage(2), exact_universe.stage(1))
    assert rep2.ok and rep2.attempted == 3  # (x,e), (x^-1,e), (x,x^-1)
    rep4 = check_extension_norm(desk_universe, desk_universe.stage(4), desk_universe.stage(3))
    assert rep4.ok and rep4.attempted > 0


def test_stage2_unit_decomposition_oracle(exact_universe):
    """Dijkstra over partial sums with unit coefficients cannot undercut the
    table (and meets it on integer-coefficient members)."""
    u = exact_universe
    s2 = u.stage(2)
    basis_pos = {b: i for i, b in enumerate(s2.basis)}
    targets = [member_vector(u, m, basis_pos, 2) for m in s2.members]
    vals = norm_decomposition_oracle(u, s2, targets, box=F(4))
    for i, m in enumerate(s2.members):
        if i in vals:
            assert s2.table[m] <= vals[i]


def test_stage4_certificates_all(desk_universe):
    """Every fourth-stage member's table value is backed by an exact
    primal/dual certificate of the molecule program."""
    u = desk_universe
    s4, s3 = u.stage(4), u.stage(3)
    basis_pos = {b: i for i, b in enumerate(s4.basis)}
    dim = len(s4.basis)
    canon = _dedupe_sign(molecule_table(u, s3, basis_pos, dim))
    mols, costs = list(canon.keys()), list(canon.values())
    lp = MoleculeLP(mols, costs)
    for m in s4.members:
        if m == UNIT_ID:
            continue
        v = member_vector(u, m, basis_pos, dim)
        value, beta, dual = lp.solve_full(v)
        assert verify_certificate(mols, costs, v, value, beta, dual)
        if m in s3.member_set:
            assert s4.table[m] >= value
        else:
            assert s4.table[m] == value


def test_stage4_random_decomposition_upper_bounds(desk_universe):
    """Explicit random two- and three-term decompositions never beat the
    table (subadditivity closure from above)."""
    u = desk_universe
    s4 = u.stage(4)
    store = u.store
    rng = random.Random(7)
    members = list(s4.members)
    checked = 0
    for _ in range(4000):
        a, b = rng.choice(members), rng.choice(members)
        merged = {}
        for eid in (a, b):
            for basis_id, c in store.coeffs_of(eid):
                cur = merged.get(basis_id)
                nxt = c if cur is None else cur + c
                if nxt:
                    merged[basis_id] = nxt
                elif cur is not None:
                    del merged[basis_id]
        s = store.lookup(store.combo_from_map(merged))
        if s is None or s not in s4.member_set:
            continue
        assert s4.table[s] <= s4.table[a] + s4.table[b]
        checked += 1
    assert checked > 300


def test_homogeneity_negation(desk_universe):
    u = desk_universe
    s4 = u.stage(4)
    store = u.store
    for m in list(s4.members)[:500]:
        neg = store.lookup(
            store.combo_from_map({b: -c for b, c in store.coeffs_of(m)})
        )
        if neg is not None and neg in s4.member_set:
            assert s4.table[m] == s4.table[neg]


def test_gamma_lp_pivot_counts(exact_universe, rank_universe, desk_universe):
    """Dual-simplex pivots of the gamma programs are deterministic."""
    def pivots(u):
        return sum(s.notes.get("gamma_lp_pivots", 0) for s in u.stages)

    assert pivots(exact_universe) == 14
    assert pivots(rank_universe) == 6
    assert pivots(desk_universe) == 7112
