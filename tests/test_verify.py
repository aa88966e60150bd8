"""Verification suite behaviour: vacuous reporting, determinism, fault
detection for every condition checker."""

import copy
import dataclasses
import re
import tracemalloc
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest

from freebanach import Config, Dyadic, Universe, UNIT_ID, verify
from freebanach.scalars import common_denominator
from freebanach.stages import NotBuiltError
from freebanach.terms import GenTerm, TermStore, WordSpace
from freebanach.verify import (
    COUNTEREXAMPLE_CAP,
    VerificationReport,
    _digit_runs,
    _member_lattice,
    _subadditivity_report,
    _take,
    check_biinvariance,
    check_condition_1,
    check_condition_3,
    check_condition_4,
    check_condition_5,
    check_condition_6,
    check_conditions,
    check_extension_metric,
    check_suites,
    perturbed,
)

EPS = F(1, 1 << 20)

# symmetric, holding 0 and +-1, unevenly spaced; its largest ratio is 16
UNEVEN_SCALARS = "-4 -1 -1/4 0 1/4 1 4"


def _two_stages(scalars: str):
    scalar_set = tuple(map(Dyadic.parse, scalars.split()))
    return Universe(Config(stage_count=2, scalar_sets=(scalar_set,))).build()


def test_suite_passes(desk_universe, rank_universe):
    for u in (desk_universe, rank_universe):
        suite = check_conditions(u)
        assert suite.ok, suite.render()


def test_vacuous_sections_reported(desk_universe):
    suite = check_conditions(desk_universe)
    by_name = {r.suite: r for r in suite.reports}
    assert by_name["condition 6 odd stage 3"].vacuous
    assert by_name["condition 6 odd stage 3"].ok
    assert by_name["extension rho_1"].vacuous


@pytest.mark.parametrize(
    "preset, sections, bound, preservation",
    [
        pytest.param("exact", 19, 85, 10, id="exact"),
        pytest.param("rank", 28, 1110, 196, id="rank"),
        pytest.param("desk", 33, 6679, 68, id="desk"),
    ],
)
def test_section_names_unique(preset, sections, bound, preservation, request):
    """Each invariant has one section: no two sections of the full suite
    share a name.  The universal suite is two sections per target, with the
    same counts on every target."""
    u = request.getfixturevalue(f"{preset}_universe")
    reports = check_suites(u).reports
    names = [r.suite for r in reports]
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    assert len(reports) == sections
    by_name = {r.suite: r for r in reports}
    for target in u.cfg.targets:
        rep = by_name.pop(f"morphism bound {target.label()}")
        assert (rep.attempted, rep.passed) == (bound, bound)
        if preset == "desk":
            assert rep.meta["worst_ratio_sq"] == "1"
        rep = by_name.pop(f"operation preservation {target.label()}")
        assert (rep.attempted, rep.passed) == (preservation, preservation)


def test_report_determinism(desk_universe):
    a = check_conditions(desk_universe).describe()
    b = check_conditions(desk_universe).describe()
    assert a == b


def test_stage_list_of_length_one():
    u = Universe(Config.exact_x2(stage_count=1)).build()
    suite = check_conditions(u)
    assert suite.ok
    names = [r.suite for r in suite.reports]
    assert not any("condition 4" in n and not r.vacuous for n, r in zip(names, suite.reports) if "condition 4" in n)


def _first_key(table):
    return sorted(table)[0]


def test_fault_condition1_metric(desk_universe):
    u = desk_universe
    s3 = u.stage(3)
    key = _first_key(s3.table)
    bad = perturbed(u, 3, key, -s3.table[key])  # drive one distance to zero
    reports = check_condition_1(bad)
    assert not all(r.ok for r in reports)


def test_fault_condition1_norm(desk_universe):
    u = desk_universe
    s4 = u.stage(4)
    member = next(m for m in s4.members if m != UNIT_ID)
    bad = perturbed(u, 4, member, -s4.table[member])
    reports = check_condition_1(bad)
    assert not all(r.ok for r in reports)


def test_fault_condition1_member_order(desk_universe):
    """Desk stage 4 with two members swapped is no longer its digit grid:
    condition 1 fails there and names both members with their cells."""
    u = copy.copy(desk_universe)
    u.stages = list(desk_universe.stages)
    s4 = u.stage(4)
    members = list(s4.members)
    members[3], members[100] = members[100], members[3]
    u.stages[4] = dataclasses.replace(s4, members=tuple(members)).with_table(s4.table)
    [r] = [r for r in check_condition_1(u) if r.suite == "condition 1 stage 4"]
    assert r.summary_line() == f"[FAIL] condition 1 stage 4: {len(members) - 2}/{len(members)}"
    assert [(ce["element"], ce["cell"]) for ce in r.counterexamples] == [(members[3], 3), (members[100], 100)]


def test_fault_condition2_extension(desk_universe):
    u = desk_universe
    s3 = u.stage(3)
    # perturb a qualifying pair: both elements in X_2 with difference there
    rep = check_extension_metric(u, s3, u.stage(2))
    assert rep.ok
    x = u.x_id
    key = (UNIT_ID, x) if UNIT_ID <= x else (x, UNIT_ID)
    bad = perturbed(u, 3, key, EPS)
    rep_bad = check_extension_metric(bad, bad.stage(3), bad.stage(2))
    assert not rep_bad.ok


def test_fault_condition3(desk_universe):
    u = desk_universe
    s3 = u.stage(3)
    key = _first_key(s3.table)
    bad = perturbed(u, 3, key, F(3))  # break splitting through the unit
    reports = check_condition_3(bad)
    assert not all(r.ok for r in reports)
    [split] = [r for r in reports if r.suite == "condition 3 splitting stage 3"]
    assert split.counterexamples and all(F(ce["lhs"]) > F(ce["rhs"]) for ce in split.counterexamples)


def test_triangle_memory_is_quadratic():
    """The triangle section takes one middle member at a time: on the
    121-member stage 1 of exact-x2 at word cap 60 its peak stays below
    2 MB, where an n^3 temporary would take 14 MB."""
    u = Universe(dataclasses.replace(Config.exact_x2(), stage_count=1, word_caps=(60,))).build()
    tracemalloc.start()
    try:
        suite = check_biinvariance(u, u.stage(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert suite.ok and suite.reports[0].attempted == 121**3
    assert peak < 2 << 20, peak


def test_fault_condition4_and_6(rank_universe):
    u = rank_universe
    s3 = u.stage(3)
    store = u.store
    from freebanach.scalars import Dyadic

    x = u.x_id
    xi = store.lookup(store.group_inv(x))
    g = store.lookup(store.lin_combine([(Dyadic(1, 1), x), (Dyadic(1, 1), xi)]))
    gi = store.lookup(store.group_inv(g))
    key = (x, g) if x <= g else (g, x)
    bad = perturbed(u, 3, key, EPS)
    assert not all(r.ok for r in check_condition_4(bad))
    key = (x, gi) if x <= gi else (gi, x)
    bad = perturbed(u, 3, key, EPS)
    assert not all(r.ok for r in check_condition_6(bad))


def test_condition6_even_clause_instance(rank_universe):
    """A hand-made vector stage 4 over rank's stage 3, holding x, x - x^-1
    and x - g^-1 with g = (1/2)x + (1/2)x^-1: the even clause takes stage 3's
    instance (g^-1, (1/2 x^-1, 1/2 x)), checks ||x - g^-1|| <= (1/2)||x -
    x^-1|| + (1/2)||x - x||, and catches a perturbed entry."""
    from freebanach.scalars import Dyadic
    from freebanach.stages import Stage

    u = copy.copy(rank_universe)
    u.store = store = copy.deepcopy(rank_universe.store)
    x = u.x_id
    xi = store.lookup(store.group_inv(x))
    g = store.lookup(store.lin_combine([(Dyadic(1, 1), x), (Dyadic(1, 1), xi)]))
    gi = store.lookup(store.group_inv(g))
    store.register_basis(gi)
    x_xi = store.combine_id(x, xi)
    x_gi = store.intern(store.lin_combine([(Dyadic(1), x), (Dyadic(-1), gi)]))
    members = (UNIT_ID, x, x_xi, x_gi)
    table = {UNIT_ID: F(0), x: F(1), x_xi: F(2), x_gi: F(1)}
    s4 = Stage(index=4, kind="vector", members=members).with_table(table)
    u.stages = list(rank_universe.stages) + [s4]

    def even(universe):
        [r] = [r for r in check_condition_6(universe) if r.suite == "condition 6 even stage 4"]
        return r

    r = even(u)
    assert (r.attempted, r.passed, r.vacuous) == (1, 1, False)
    r = even(perturbed(u, 4, x_gi, EPS))
    assert (r.attempted, r.passed) == (1, 0)
    assert r.counterexamples[0]["pair"] == (x, gi)


def test_fault_condition5(desk_universe):
    u = desk_universe
    s4 = u.stage(4)
    member = next(m for m in s4.members if m != UNIT_ID)
    bad = perturbed(u, 4, member, F(5))  # break subadditivity around it
    assert not all(r.ok for r in check_condition_5(bad))
    bad = perturbed(u, 4, member, -EPS)  # break homogeneity against -member
    assert not all(r.ok for r in check_condition_5(bad))


def test_fault_biinvariance(desk_universe):
    u = desk_universe
    s3 = u.stage(3)
    key = _first_key(s3.table)
    bad = perturbed(u, 3, key, F(5))
    suite = check_biinvariance(bad, bad.stage(3))
    assert not suite.ok


def test_fault_translation_invariance(desk_universe):
    """The raised entry of ``test_fault_biinvariance`` fails translation
    invariance itself, not only the triangle, and each counterexample
    (g, (a, b), side) is one: rho(a, b) differs from rho(g a, g b) on the
    left side, from rho(a g, b g) on the right, with the products taken by
    the store."""
    u = desk_universe
    bad = perturbed(u, 3, _first_key(u.stage(3).table), F(5))
    stage = bad.stage(3)
    [trans] = [r for r in check_biinvariance(bad, stage).reports if r.suite == "translation invariance stage 3"]
    assert trans.summary_line().startswith("[FAIL]") and trans.attempted == 562
    assert trans.counterexamples
    store = u.store
    for ce in trans.counterexamples:
        g, (a, b) = ce["g"], ce["pair"]
        moved = [store.group_mul(g, m) if ce["side"] == "left" else store.group_mul(m, g) for m in (a, b)]
        assert bad.rho(stage, a, b) != bad.rho(stage, *map(store.lookup, moved))


def test_fault_sigma(desk_universe):
    """sigma <= ||y|| rho is the morphism bound's check: a nearly collapsed
    metric entry fails it on every target."""
    from freebanach.universal import check_morphism_bound

    u = desk_universe
    s3 = u.stage(3)
    key = _first_key(s3.table)
    bad = perturbed(u, 3, key, -u.rho(s3, *key) + EPS)  # nearly collapse it
    for target in u.cfg.targets:
        assert not check_morphism_bound(bad, target).ok


def _root_sum_dominates(lhs_sq, a_sq, b_sq):
    """sqrt(lhs_sq) <= sqrt(a_sq) + sqrt(b_sq), decided exactly by squaring
    twice (all quantities nonnegative)."""
    rest = lhs_sq - a_sq - b_sq
    return rest <= 0 or rest * rest <= 4 * a_sq * b_sq


def test_sigma_splitting_holds_on_a_faulty_table(desk_universe):
    """sigma(ab, cd) <= sigma(a, c) + sigma(b, d) is the target's triangle
    inequality, whatever rho is: it holds on every in-stage quadruple of a
    table whose nearly collapsed entry the morphism bound rejects on every
    target, so a sampled splitting check could not have caught the fault."""
    from freebanach.universal import check_morphism_bound, sigma_table

    u = desk_universe
    s3 = u.stage(3)
    key = _first_key(s3.table)
    bad = perturbed(u, 3, key, -u.rho(s3, *key) + EPS)
    store = u.store
    for target in u.cfg.targets:
        assert not check_morphism_bound(bad, target).ok
        table, _ = sigma_table(bad, target)
        checked = 0
        for stage in bad.stages:
            if stage.kind != "word":
                continue
            sq = table.metric_sq[stage.index]

            def sigma_sq(a, b):
                return 0 if a == b else sq[(a, b) if a <= b else (b, a)]

            products = {}
            for a in stage.members:
                for b in stage.members:
                    p = store.lookup(store.group_mul(a, b))
                    if p is not None and p in stage.member_set:
                        products[(a, b)] = p
            for (a, b), ab in products.items():
                for (c, d), cd in products.items():
                    checked += 1
                    assert _root_sum_dominates(sigma_sq(ab, cd), sigma_sq(a, c), sigma_sq(b, d))
        assert checked > 1000


def test_perturbed_leaves_original_intact(desk_universe):
    s3 = desk_universe.stage(3)
    key = _first_key(s3.table)
    before = s3.table[key]
    bad = perturbed(desk_universe, 3, key, EPS)
    assert desk_universe.stage(3).table[key] == before
    assert bad.stage(3).table[key] == before + EPS


def test_scaled_overflow_is_typed(exact_universe):
    """A table value past int64 is read in Python ints, not refused: one
    entry raised by 2^64 on a metric stage (the condition 3 matrix) or on
    a norm stage (condition 1's norms) fails with its exact value in the
    counterexamples."""
    u = exact_universe
    failed, raised = {}, {}
    for n in (1, 2):
        key = _first_key(u.stage(n).table)
        raised[n] = str(u.stage(n).table[key] + 2**64)
        suite = check_conditions(perturbed(u, n, key, F(2**64)))
        failed[n] = {r.suite: r.counterexamples for r in suite.reports if not r.ok}
    x, xi = u.x_id, u.store.lookup(u.store.group_inv(u.x_id))
    splitting = failed[1]["condition 3 splitting stage 1"]
    assert {"quadruple": (xi, x, UNIT_ID, x), "lhs": raised[1], "rhs": "1"} in splitting
    assert failed[1]["condition 3 inversion stage 1"][0] == {"pair": (UNIT_ID, x), "lhs": raised[1], "rhs": "1"}
    assert failed[2]["condition 1 stage 2"] == [{"element": UNIT_ID, "cell": 40, "value": raised[2]}]


def _condition5_by_pairs(stage, vectors):
    """(attempted, failed) of homogeneity and of subadditivity, member by
    member in Fraction: ||r v|| = |r| ||v|| for each ratio r != 1 of nonzero
    scalars, and ||v + s|| <= ||v|| + ||s|| for each nonzero step s, wherever
    the image is a member."""
    by_vector = {v: m for m, v in vectors.items()}
    norm = stage.table
    nonzero = {d.as_fraction() for d in stage.scalar_set} - {0}
    ratios = {a / b for a in nonzero for b in nonzero} - {1}
    hom = [
        norm[by_vector[w]] == abs(r) * norm[m]
        for m, v in vectors.items() if any(v)
        for r in ratios if (w := tuple(r * x for x in v)) in by_vector
    ]
    sub = [
        norm[by_vector[w]] <= norm[m] + norm[step]
        for step, s in vectors.items() if any(s)
        for m, v in vectors.items() if (w := tuple(a + b for a, b in zip(v, s))) in by_vector
    ]
    return (len(hom), hom.count(False)), (len(sub), sub.count(False))


@pytest.mark.parametrize(
    "scalars, counts",
    [(UNEVEN_SCALARS, [(176, 0), (312, 0)]), ("-4 -2 -1 0 1 2 4", [(176, 0), (912, 0)])],
    ids=["quarters", "doubles"],
)
def test_condition5_on_unevenly_spaced_scalars(scalars, counts):
    """On unevenly spaced scalar sets both laws check exactly the member
    pairs that the laws relate, all passing (the second set's sums need
    index arrays, not slices).  A raised norm fails subadditivity on exactly
    the pairs a member-by-member check rejects."""
    u = _two_stages(scalars)
    s2 = u.stage(2)
    basis_pos = {b: i for i, b in enumerate(s2.basis)}
    vectors = {m: u.store.vector_fractions(m, basis_pos, len(s2.basis)) for m in s2.members}
    assert list(_condition5_by_pairs(s2, vectors)) == counts
    bad = perturbed(u, 2, u.x_id, F(5))
    faulty = list(_condition5_by_pairs(bad.stage(2), vectors))
    assert faulty[1][1] > 0
    for universe, expected in ((u, counts), (bad, faulty)):
        got = [(r.attempted, r.attempted - r.passed) for r in check_condition_5(universe)]
        assert got == expected
    sub = check_condition_5(bad)[1]
    assert sub.summary_line().startswith("[FAIL] condition 5 subadditivity stage 2")
    for universe in (u, bad):
        _assert_subadditivity_by_cells(universe.stage(2))


def _subadditivity_by_cells(stage, lattice) -> VerificationReport:
    """The subadditivity section one step cell at a time, the reference for
    the blocked pass: for each nonzero member m, the views of the lattice
    on every axis's source and target runs of the shift by m's digit."""
    report = VerificationReport(suite=f"condition 5 subadditivity stage {stage.index}")
    N, ids, values, _ = lattice
    shifts = [_digit_runs(values, F(1), v) for v in values]
    for cell in np.ndindex(ids.shape):
        if ids[cell] == UNIT_ID:
            continue
        source, target = zip(*(shifts[d] for d in cell))
        s, t = _take(N, source), _take(N, target)
        count, nbad = s.size, int((t > s + N[cell]).sum())
        report.attempted += count
        report.passed += count - nbad
        if nbad:
            report.add_counterexample(step_member=int(ids[cell]), violations=nbad)
    return report


def _assert_subadditivity_by_cells(stage):
    lattice = _member_lattice(stage)
    got = _subadditivity_report(stage, lattice).describe()
    assert got == _subadditivity_by_cells(stage, lattice).describe()
    return got


@pytest.mark.parametrize("preset", ["exact", "rank", "desk", "uneven"])
def test_subadditivity_blocks_match_cells(preset, request):
    """The blocked subadditivity pass reports what the pass per step cell
    does on every norm stage of each fixture."""
    u = request.getfixturevalue(f"{preset}_universe")
    for stage in u.stages:
        if stage.kind == "vector" and stage.index > 0:
            assert _assert_subadditivity_by_cells(stage)["ok"]


@pytest.mark.parametrize("digits", [(0,) * 8, (2,) * 8, (0, 2, 1, 1, 1, 1, 2, 0)], ids=["first", "last", "mixed"])
def test_subadditivity_faults_at_block_boundaries(desk_universe, digits):
    """Desk stage 4's grid splits into four outer and four inner axes.  One
    entry raised, or lowered, at the first member, the last, or one with
    non-central digits on both sides of the split fails with the reference's
    counterexamples in its order; raising the first member fails more steps
    than the report keeps, so the cap and the count are compared too."""
    u, s4 = desk_universe, desk_universe.stage(4)
    member = s4.members[int(np.ravel_multi_index(digits, (3,) * 8))]
    raised, lowered = (_assert_subadditivity_by_cells(perturbed(u, 4, member, delta).stage(4))
                       for delta in (EPS, -s4.table[member] / 2))
    assert not raised["ok"] and not lowered["ok"]
    if digits == (0,) * 8:
        assert len(raised["counterexamples"]) == COUNTEREXAMPLE_CAP
        assert int(raised["meta"]["counterexample_count"]) > COUNTEREXAMPLE_CAP


def test_homogeneity_overflow_is_typed(fit_spy):
    """A norm scaled into [2^59, 2^60) is int64 in ``Stage.scaled_table``,
    but 16 times it is not: the homogeneity check refits its products to
    Python ints and fails with exact counterexamples."""
    u = _two_stages(UNEVEN_SCALARS)
    s2 = u.stage(2)
    quarter_x = u.store.lookup(u.store.lin_combine([(Dyadic(1, 2), u.x_id)]))
    scale = common_denominator(s2.table.values())
    bad = perturbed(u, 2, quarter_x, F(2**59, scale) - s2.table[quarter_x])
    ints, _ = bad.stage(2).scaled_table()
    assert ints.dtype == np.int64 and 2**59 <= ints[s2.members.index(quarter_x)] < 2**60
    fitted = fit_spy(verify)
    homogeneity, _ = check_condition_5(bad)
    assert [arrays[0].dtype for arrays in fitted] == [object]
    assert not homogeneity.ok
    assert homogeneity.counterexamples[0] == {"element": quarter_x, "alpha": "-16", "lhs": "4", "rhs": str(2**61)}


def test_scaled_table_refuses_a_missing_entry(exact_universe):
    """A table that lacks a member pair (word stage) or a member (norm
    stage) is refused when the stage is made from it, by the one conversion
    ``Stage.with_table``, with a typed ``NotBuiltError`` naming the entry,
    rather than read as 0 or failing with a bare ``KeyError``."""
    u = exact_universe
    for n, key in ((1, (UNIT_ID, u.x_id)), (2, u.x_id)):
        table = {k: v for k, v in u.stage(n).table.items() if k != key}
        with pytest.raises(NotBuiltError, match=re.escape(f"stage {n} has no table value for {key}")):
            u.stage(n).with_table(table)


def test_inversion_missing_inverse(exact_universe):
    """A word stage forged without x^-1 (and its distances) cannot satisfy
    inversion at x: the section fails and names x, rather than passing
    the pairs it cannot compare."""
    u = exact_universe
    s1 = u.stage(1)
    x = u.x_id
    xi = u.store.lookup(u.store.group_inv(x))
    members = tuple(m for m in s1.members if m != xi)
    table = {k: v for k, v in s1.table.items() if xi not in k}
    forged = copy.copy(u)
    forged.stages = list(u.stages)
    forged.stages[1] = dataclasses.replace(s1, members=members).with_table(table)
    [inversion] = [r for r in check_condition_3(forged) if "inversion" in r.suite]
    assert not inversion.ok
    assert (inversion.attempted, inversion.passed) == (1, 0)
    assert inversion.counterexamples == [{"element": x, "inverse": None}]


def test_condition5_refuses_an_off_size_norm_stage(exact_universe, monkeypatch):
    """A norm stage forged without its last member is not its digit grid:
    condition 5 refuses it with a typed error naming both sizes, before
    either law is read off a lattice, rather than reshaping it, and
    condition 1 reports the empty cell."""
    monkeypatch.setattr("freebanach.verify._digit_runs", None)  # any block built would fail on this
    u = copy.copy(exact_universe)
    u.stages = list(exact_universe.stages)
    s2 = u.stage(2)
    members = s2.members[:-1]
    u.stages[2] = dataclasses.replace(s2, members=members).with_table(s2.table)
    with pytest.raises(NotBuiltError, match="stage 2 has 80 members, not the 81 cells"):
        check_condition_5(u)
    [r] = [r for r in check_condition_1(u) if r.suite == "condition 1 stage 2"]
    assert not r.ok
    assert r.counterexamples == [{"element": None, "cell": 80}]


@pytest.mark.parametrize("preset", [Config.exact_x2, Config.rank], ids=["exact-x2", "rank"])
def test_one_group_law_per_word_stage(preset):
    """``check_suites``, then condition 3 and bi-invariance per word stage as
    the benchmark calls them, build each word stage's group law once, and
    it is read-only."""
    u = Universe(preset()).build()
    built = []

    class Spy(dict):
        def __setitem__(self, members, law):
            built.append(members)
            super().__setitem__(members, law)

    u.store._laws = Spy()
    assert check_suites(u).ok and check_conditions(u).ok
    words = [s for s in u.stages if s.kind == "word"]
    for stage in words:
        assert check_biinvariance(u, stage).ok
        assert not any(a.flags.writeable for a in u.store.group_law(stage.members))
    assert built == [s.members for s in words]


def test_group_law_matches_the_store(exact_universe, rank_universe, desk_universe):
    """The product table and inverse map read off the member words agree
    with the store's ``group_mul`` and ``group_inv`` on every pair of every
    word stage: the presets', a one-stage tower at word cap 40 (products
    cancel up to 40 letters), a stage forged without x^-1, and, since every
    preset's in-stage products commute, the words of length <= 3 on two
    generators in reverse order."""
    long_words = Universe(dataclasses.replace(Config.exact_x2(stage_count=1), word_caps=(40,))).build()
    s1 = exact_universe.stage(1)
    xi = exact_universe.store.lookup(exact_universe.store.group_inv(exact_universe.x_id))
    members = tuple(m for m in s1.members if m != xi)
    forged = dataclasses.replace(s1, members=members)
    cases = [(u, s) for u in (exact_universe, rank_universe, desk_universe, long_words)
             for s in u.stages if s.kind == "word"]
    cases.append((exact_universe, forged))
    store = TermStore()
    x, y = (store.intern(GenTerm(i)) for i in range(2))
    store.register_generator(x)
    store.register_generator(y)
    words = WordSpace([(x, 1), (x, -1), (y, 1), (y, -1)], 3).words
    free = tuple(store.intern(store.reduce_word(w)) for w in reversed(words))
    cases.append((SimpleNamespace(store=store), SimpleNamespace(members=free)))
    for u, stage in cases:
        store, pos = u.store, {m: i for i, m in enumerate(stage.members)}

        def at(term):
            return pos.get(store.lookup(term), -1)

        P, inv = u.store.group_law(stage.members)
        assert inv.tolist() == [at(store.group_inv(a)) for a in stage.members]
        assert P.tolist() == [[at(store.group_mul(a, b)) for b in stage.members] for a in stage.members]
    assert len(long_words.stage(1).members) == 81
