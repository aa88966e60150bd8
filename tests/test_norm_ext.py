"""Norm extension: construction-exact second stage, gamma clauses, stage-4 checks."""

import copy
import dataclasses
import random
from fractions import Fraction as F

import pytest

from freebanach import UNIT_ID, Config, Universe, norm_ext
from freebanach.lp import MoleculeLP, basic_solution_oracle
from freebanach.metric_ext import _vector_diff_id
from freebanach.norm_ext import (
    NormExtensionError,
    OutOfStageError,
    check_extension_norm,
    gamma_base,
    gamma_new,
    inverse_convex_instances,
    norm_extend,
    member_vector,
    molecule_table,
    norm_decomposition_oracle,
    _dedupe_sign,
)
from freebanach.oracles import certificate_mismatches
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
    members = [m for m in desk_universe.stage(4).members if m != UNIT_ID]
    assert certificate_mismatches(desk_universe, 4, members) == 0


def test_certificate_mismatch_detected(exact_universe):
    """A table entry off the program's optimum fails its certificate."""
    u = copy.copy(exact_universe)
    s2 = u.stage(2)
    members = [m for m in s2.members if m != UNIT_ID]
    assert certificate_mismatches(u, 2, members) == 0
    table = dict(s2.table)
    table[members[0]] += 1
    u.stages = u.stages[:2] + [s2.clone_with_table(table)]
    assert certificate_mismatches(u, 2, members) == 1


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
    """Dual-simplex pivots of the gamma programs, and the programs solved
    (one per +- class of nonzero members), are deterministic."""
    def pivots(u):
        return sum(s.notes.get("gamma_lp_pivots", 0) for s in u.stages)

    assert pivots(exact_universe) == 14
    assert pivots(rank_universe) == 6
    assert pivots(desk_universe) == 7112

    def lp_calls(u):
        return [s.notes["gamma_lp_calls"] for s in u.stages if "gamma_lp_calls" in s.notes]

    assert lp_calls(exact_universe) == [40]
    assert lp_calls(rank_universe) == [12]
    assert lp_calls(desk_universe) == [4, 3280]


@pytest.mark.parametrize("preset", ["exact", "rank", "desk"])
def test_norm_is_gamma_without_instances(preset, request):
    """No norm stage of a preset has an inverse-convex instance, and each
    norm table is gamma (the gauge argument in the norm_ext docstring)."""
    u = request.getfixturevalue(f"{preset}_universe")
    norm_stages = [s for s in u.stages if s.kind == "vector" and s.index > 0]
    assert norm_stages
    for s in norm_stages:
        assert inverse_convex_instances(u, s) == []
        assert s.table == s.gamma
        assert s.notes["lattice_cells"] == s.notes["inverse_convex_instances"] == 0


def test_inverse_convex_instance_refused(rank_universe):
    """Rank stage 2 with g^-1 added, g = (1/2)x + (1/2)x^-1 (a stage-3 word),
    has an inverse-convex instance, since it holds x and x^-1; norm_extend
    refuses it before any program is solved."""
    u = rank_universe
    store = u.store
    x = u.x_id
    xi = store.lookup(store.group_inv(x))
    g = store.lookup(store.lin_combine([(Dyadic(1, 1), x), (Dyadic(1, 1), xi)]))
    gi = store.lookup(store.group_inv(g))
    assert gi in u.stage(3).member_set
    s2 = u.stage(2)
    stage = dataclasses.replace(
        s2, members=s2.members + (gi,), member_set=s2.member_set | {gi}, notes={}
    )
    [(y, terms)] = inverse_convex_instances(u, stage)
    assert y == gi and sorted(terms) == sorted([(F(1, 2), x), (F(1, 2), xi)])
    with pytest.raises(NormExtensionError, match="inverse-convex"):
        norm_extend(u, stage, u.stage(1), u.cfg)


def test_prev_member_gauge_mismatch_raises(monkeypatch):
    """A molecule cheaper than a prev member's own metric value would make
    the norm undercut the metric it extends; the build refuses it.  Halving
    the cost of e - x alone leaves x's own molecule x - e at 1 while the
    program reaches x at 1/2."""
    real = norm_ext.molecule_table

    def lowered(universe, prev, basis_pos, dim):
        table = real(universe, prev, basis_pos, dim)
        v = member_vector(universe, universe.x_id, basis_pos, dim)
        neg = tuple(-a for a in v)
        table[neg] = table[neg] / 2
        return table

    monkeypatch.setattr(norm_ext, "molecule_table", lowered)
    with pytest.raises(NormExtensionError, match="prev member"):
        Universe(Config.exact_x2()).build()
