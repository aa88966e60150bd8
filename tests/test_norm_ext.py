"""Norm extension: construction-exact second stage, gamma clauses, stage-4 checks."""

import copy
import dataclasses
import random
from fractions import Fraction as F

import numpy as np
import pytest

from freebanach import UNIT_ID, Config, Universe, metric_ext, norm_ext
from freebanach import lp as lp_module
from freebanach.lp import MoleculeLP, basic_solution_oracle
from freebanach.norm_ext import NormExtensionError, norm_extend
from freebanach.oracles import certificate_mismatches, norm_decomposition_oracle
from freebanach.scalars import Dyadic
from freebanach.terms import pair_key
from freebanach.verify import check_extension_norm


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
    d = store.combine_id(x, xi)
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
        v = u.store.vector_fractions(m, basis_pos, 2)
        assert s2.table[m] == basic_solution_oracle(molecules, costs, v)


def test_gamma_base(exact_universe):
    """The base clause: gamma(a - b) = rho(a, b) for stage-1 elements a, b."""
    u = exact_universe
    s2, s1 = u.stage(2), u.stage(1)
    store = u.store
    x = u.x_id
    xi = store.lookup(store.group_inv(x))
    assert s2.table[store.combine_id(x, UNIT_ID)] == u.rho(s1, x, UNIT_ID) == 1
    assert s2.table[store.combine_id(x, x)] == 0
    assert s2.table[store.combine_id(x, xi)] == u.rho(s1, x, xi) == 2


def test_gamma_new_rank0_lp(exact_universe):
    """The new-element clause at rank zero: gamma is the molecule program's
    value, and the norm is gamma."""
    u = exact_universe
    s2 = u.stage(2)
    target = _elt(u, (Dyadic(1, 1), Dyadic(-1, 1)))  # (1/2)(x - x^-1)
    two_x = _elt(u, (Dyadic(2), Dyadic(0)))
    assert target not in u.stage(1).member_set and two_x not in u.stage(1).member_set
    assert s2.table[target] == 1
    assert s2.table[two_x] == 2


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
    targets = [u.store.vector_fractions(m, basis_pos, 2) for m in s2.members]
    vals = norm_decomposition_oracle(u, s2, targets, box=F(4))
    for i, m in enumerate(s2.members):
        if i in vals:
            assert s2.table[m] <= vals[i]


def test_stage4_certificates_all(desk_universe):
    """Every fourth-stage member's table value is backed by an exact
    primal/dual certificate of the molecule program."""
    members = [m for m in desk_universe.stage(4).members if m != UNIT_ID]
    assert certificate_mismatches(desk_universe, 4, members) == 0


def test_desk_stage4_program_runs_in_int64_under_one_bound(desk_universe, monkeypatch):
    """Desk stage 4's molecule program takes its Hadamard bound once, in
    its one ``solve_many``, and that bound keeps the whole solve in int64:
    the warm tableau and all 266 cached bases, after 779 pivots."""
    u = desk_universe
    taken = []
    monkeypatch.setattr(lp_module, "hadamard_bound",
                        lambda squares, k, f=lp_module.hadamard_bound: taken.append(f(squares, k)) or taken[-1])
    (ints, scale), lp = norm_ext._gauge_table(u, u.stage(4), u.stage(3))
    assert len(taken) == 1 and lp._bound < 2**62
    assert (len(lp.bases), lp.pivots) == (266, 779)
    assert lp._T.dtype == np.int64 and all(b.adj.dtype == np.int64 for b in lp.bases)
    assert [F(n, scale) for n in ints] == [u.stage(4).table[m] for m in u.stage(4).members]


def test_desk_stage4_solve_order_is_deterministic_and_bases_distinct(desk_universe):
    """Two fresh programs on desk stage 4's batch pick the same targets to
    solve warm, so they end on the same bases, pivots and covering index;
    and no two cached bases hold one column set, since a solved target was
    covered by no basis cached before it."""
    u = desk_universe
    s4 = u.stage(4)
    _, lp = norm_ext._gauge_table(u, s4, u.stage(3))
    coords = s4.coordinates(norm_ext.scalar_shift(s4))
    batch = norm_ext.sign_class(coords[: (len(coords) - 1) // 2])
    runs = []
    for _ in range(2):
        fresh = MoleculeLP(lp.molecules, lp.costs)
        index = fresh.solve_many(batch)[2]
        runs.append(([b.columns for b in fresh.bases], fresh.pivots, index))
    assert runs[0] == runs[1]
    columns, pivots, _ = runs[0]
    assert (columns, pivots) == ([b.columns for b in lp.bases], lp.pivots)
    assert len({frozenset(c) for c in columns}) == len(columns) == 266


def test_certificate_mismatch_detected(exact_universe):
    """A table entry off the program's optimum fails its certificate."""
    u = copy.copy(exact_universe)
    s2 = u.stage(2)
    members = [m for m in s2.members if m != UNIT_ID]
    assert certificate_mismatches(u, 2, members) == 0
    table = dict(s2.table)
    table[members[0]] += 1
    u.stages = u.stages[:2] + [s2.with_table(table)]
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
        s = store.combine_id(a, b, sign=1)
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
    """Dual-simplex pivots of the gamma programs, and the warm solves (one
    per cached optimal basis; the bases cover every +- class of nonzero
    members), are deterministic.  Stage 2 is a closed form and solves
    none."""
    def pivots(u):
        return sum(s.notes.get("gamma_lp_pivots", 0) for s in u.stages)

    assert pivots(exact_universe) == 0
    assert pivots(rank_universe) == 0
    assert pivots(desk_universe) == 779

    def lp_calls(u):
        return [s.notes["gamma_lp_calls"] for s in u.stages if "gamma_lp_calls" in s.notes]

    assert lp_calls(exact_universe) == [0]
    assert lp_calls(rank_universe) == [0]
    assert lp_calls(desk_universe) == [0, 266]


@pytest.mark.parametrize("preset", ["exact", "rank", "desk"])
def test_norm_is_gamma_without_instances(preset, request):
    """No norm stage of a preset has an inverse-convex instance, so each
    norm table is gamma (the gauge argument in the norm_ext docstring)."""
    u = request.getfixturevalue(f"{preset}_universe")
    norm_stages = [s for s in u.stages if s.kind == "vector" and s.index > 0]
    assert norm_stages
    for s in norm_stages:
        assert u.store.convex_instances(s, inverse=True) == []
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
    stage = dataclasses.replace(s2, members=s2.members + (gi,), notes={})
    [(y, terms)] = store.convex_instances(stage, inverse=True)
    assert y == gi and sorted(terms) == sorted([(F(1, 2), x), (F(1, 2), xi)])
    with pytest.raises(NormExtensionError, match="inverse-convex"):
        norm_extend(u, stage, u.stage(1), u.cfg)


@pytest.mark.parametrize("preset, n", [("exact", 2), ("rank", 2), ("desk", 4)])
def test_vector_ints_are_the_coefficients_over_the_shift(preset, n, request):
    """Every member's integer vector is its coefficient vector times
    2^shift, the stage's largest scalar exponent (1 on exact-x2 and rank, 0
    on desk)."""
    u = request.getfixturevalue(f"{preset}_universe")
    stage = u.stage(n)
    basis_pos = {b: i for i, b in enumerate(stage.basis)}
    dim, shift = len(stage.basis), norm_ext.scalar_shift(stage)
    for m in stage.members:
        want = tuple(x * 2**shift for x in u.store.vector_fractions(m, basis_pos, dim))
        assert u.store.vector_ints(m, basis_pos, dim, shift) == want


def test_prev_member_gauge_mismatch_raises(monkeypatch):
    """A molecule cheaper than a prev member's own metric value would make
    the norm undercut the metric it extends; the build refuses it.  On desk
    stage 4, the first stage the molecule program solves, halving the cost
    of e - x alone leaves x's own molecule x - e at 1 while the program
    reaches x at 1/2."""
    real = norm_ext.molecule_table

    def lowered(universe, prev, basis_pos, dim, shift):
        table = real(universe, prev, basis_pos, dim, shift)
        v = universe.store.vector_ints(universe.x_id, basis_pos, dim, shift)
        neg = tuple(-a for a in v)
        table[neg] = table[neg] / 2
        return table

    monkeypatch.setattr(norm_ext, "molecule_table", lowered)
    with pytest.raises(NormExtensionError, match="prev member"):
        Universe(Config.desk()).build()


def test_prev_member_closed_form_mismatch_raises(monkeypatch):
    """Stage 2's closed form reads the letter-sign sums, not the metric
    table, so it must meet the table on every stage-1 member: with
    rho_1(x, e) halved, x's norm 1 would not extend its metric value 1/2."""
    real = metric_ext._base_case_table

    def halved(universe, stage, cfg):
        ints, scale = real(universe, stage, cfg)
        doubled = [2 * v for v in ints]
        doubled[stage.cells().index(pair_key(universe.x_id, UNIT_ID))] //= 2
        return doubled, 2 * scale

    monkeypatch.setattr(metric_ext, "_base_case_table", halved)
    with pytest.raises(NormExtensionError, match="prev member"):
        Universe(Config.exact_x2()).build()


@pytest.mark.parametrize("value", [F(0), F(-1, 2)])
def test_nonpositive_norm_on_a_nonunit_member_raises(value, monkeypatch):
    """The zero-norm check reads the sign of every value the table holds."""
    real = norm_ext._line_norm

    def lowered(universe, stage, prev):
        ints, scale = real(universe, stage, prev)
        doubled = [2 * v for v in ints]
        doubled[stage.members.index(universe.x_id)] = int(2 * scale * value)
        return doubled, 2 * scale

    monkeypatch.setattr(norm_ext, "_line_norm", lowered)
    with pytest.raises(NormExtensionError, match="zero norm"):
        Universe(Config.exact_x2()).build()


def _program_values(u):
    """Stage 2's table as the molecule program solves it, member by member."""
    stage, prev = u.stage(2), u.stage(1)
    basis_pos = {b: i for i, b in enumerate(stage.basis)}
    shift = norm_ext.scalar_shift(stage)
    canon = norm_ext._dedupe_sign(norm_ext.molecule_table(u, prev, basis_pos, len(basis_pos), shift))
    lp = MoleculeLP(list(canon), list(canon.values()))
    members = [m for m in stage.members if m != UNIT_ID]
    vecs = [u.store.vector_ints(m, basis_pos, len(basis_pos), shift) for m in members]
    nums, dens, _ = lp.solve_many(norm_ext.sign_class(np.array(vecs, dtype=object)))
    return {m: F(n, d) for m, n, d in zip(members, nums, dens)}


@pytest.mark.parametrize("preset", ["exact", "rank", "desk", "exact-cap2"])
def test_stage2_closed_form_is_the_molecule_program(preset, request):
    """The closed form equals the molecule program on every nonzero stage-2
    member: 81, 25, 9 and (words of length <= 2) 6561 members."""
    if preset == "exact-cap2":
        u = Universe(dataclasses.replace(Config.exact_x2(), word_caps=(2,))).build()
    else:
        u = request.getfixturevalue(f"{preset}_universe")
    s2 = u.stage(2)
    assert len(s2.members) == {"exact": 81, "rank": 25, "desk": 9, "exact-cap2": 6561}[preset]
    want = _program_values(u)
    assert len(want) == len(s2.members) - 1
    assert all(s2.table[m] == value for m, value in want.items())


def test_stage2_solves_no_program(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("stage 2 built a MoleculeLP")

    monkeypatch.setattr(norm_ext, "MoleculeLP", refuse)
    u = Universe(Config.exact_x2()).build()
    assert u.stage(2).notes["gamma_lp_calls"] == 0


def test_stage2_closed_form_past_the_int64_bound(monkeypatch):
    """Scalars +-2^-70 make the coordinates 2^70 over 2^70: the products
    run on Python ints, and the values are still the molecule program's."""
    dtypes = []
    real = norm_ext._fit

    def spy(bound, *arrays):
        fitted = real(bound, *arrays)
        dtypes.extend(a.dtype for a in fitted)
        return fitted

    monkeypatch.setattr(norm_ext, "_fit", spy)
    scalars = tuple(map(Dyadic.parse, f"-1 -1/{2**70} 0 1/{2**70} 1".split()))
    u = Universe(Config(stage_count=2, scalar_sets=(scalars,))).build()
    assert dtypes and all(d == object for d in dtypes)
    want = _program_values(u)
    assert all(u.stage(2).table[m] == value for m, value in want.items())
