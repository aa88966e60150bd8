"""The freeness property: tau and phi evaluation, norm bounds, sigma tables."""

import copy
import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freebanach import Config, Universe, UNIT_ID
from freebanach.scalars import DY_ONE, Dyadic
from freebanach.norm_ext import scalar_shift
from freebanach.stages import NotBuiltError, off_grid_cells
from freebanach.terms import ComboTerm
from freebanach import stages, universal
from freebanach.verify import VerificationReport, check_suites, perturbed
from freebanach.universal import (
    TargetSpace,
    TauMap,
    _argmax_ratio,
    check_morphism_bound,
    check_operation_preservation,
    phi_eval,
    sigma_table,
)


def test_phi_examples(exact_universe):
    u = exact_universe
    store = u.store
    x = u.x_id
    xi = store.lookup(store.group_inv(x))
    y = TargetSpace.real(F(1))
    assert phi_eval(u, x, y) == (F(1),)
    assert phi_eval(u, UNIT_ID, y) == (F(0),)
    assert phi_eval(u, xi, y) == (F(-1),)
    g = store.lookup(store.lin_combine([(Dyadic(1, 1), x), (Dyadic(1, 1), xi)]))
    assert phi_eval(u, g, y) == (F(0),)


def test_phi_word_is_additive():
    cfg = Config(stage_count=1, word_caps=(2,))
    u = Universe(cfg).build()
    store = u.store
    x = u.x_id
    xx = store.lookup(store.group_mul(x, x))
    y = TargetSpace.real(F(3, 2))
    assert phi_eval(u, xx, y) == (F(3),)


def test_morphism_bound_all_targets(desk_universe):
    for target in desk_universe.cfg.targets:
        rep = check_morphism_bound(desk_universe, target)
        assert rep.ok, rep.counterexamples[:3]
        # the bound is attained at the generator
        assert rep.meta["worst_ratio_sq"] == "1"


def test_bound_tight_at_generator(desk_universe):
    u = desk_universe
    s2 = u.stage(2)
    for target in u.cfg.targets:
        lhs_sq = target.norm_sq(phi_eval(u, u.x_id, target))
        rhs_sq = target.y_norm_sq() * s2.table[u.x_id] ** 2
        assert lhs_sq == rhs_sq


def test_zero_image_target(desk_universe):
    rep = check_morphism_bound(desk_universe, TargetSpace.real(F(0)))
    assert rep.ok


def test_sigma_base_values(exact_universe):
    u = exact_universe
    target = TargetSpace.real(F(1))
    table, rep = sigma_table(u, target)
    assert rep.ok
    x = u.x_id
    xi = u.store.lookup(u.store.group_inv(x))
    key = (x, UNIT_ID) if x <= UNIT_ID else (UNIT_ID, x)
    assert table.metric_sq[1][key] == 1  # sigma_1(x, e) = 1 = rho_1(x, e)
    key = (x, xi) if x <= xi else (xi, x)
    assert table.metric_sq[1][key] == 4  # sigma_1(x, x^-1) = 2 <= rho = 2


def test_sigma_dominated_normalized(desk_universe):
    """sigma <= rho entrywise after the construction's normalization, for
    every configured target including ||y|| != 1: the morphism bound's
    check, on every entry of every stage."""
    sizes = [(s.kind, len(s.members)) for s in desk_universe.stages]
    entries = sum(n * (n - 1) // 2 if kind == "word" else n for kind, n in sizes)
    for target in desk_universe.cfg.targets:
        rep = check_morphism_bound(desk_universe, target)
        assert rep.ok, rep.counterexamples[:3]
        assert rep.attempted == entries


def test_euclidean_target_exact_squares(desk_universe):
    target = TargetSpace.euclidean((F(1), F(-1, 2)))
    assert target.norm_sq((F(3), F(4))) == 25
    rep = check_morphism_bound(desk_universe, target)
    assert rep.ok
    _, rep2 = sigma_table(desk_universe, target)
    assert rep2.ok


def test_operation_preservation(request):
    """Operation preservation checks every in-stage product and inverse of
    each word stage, as its group law lists them, on every target, and its
    meta names the proof that covers sums on norm stages."""
    for preset, count in (("exact", 10), ("rank", 196), ("desk", 68), ("uneven", 10)):
        u = request.getfixturevalue(f"{preset}_universe")
        laws = [u.store.group_law(s.members) for s in u.stages if s.kind == "word"]
        assert sum(int((P >= 0).sum()) + int((inv >= 0).sum()) for P, inv in laws) == count
        for target in u.cfg.targets:
            rep = check_operation_preservation(u, target)
            assert rep.ok and rep.attempted == count
            assert "universal docstring" in rep.meta["proof"]


def test_preservation_fault_names_the_forged_product(rank_universe, monkeypatch):
    """A stage-3 group law whose product x . x^-1 points at x instead of e
    fails operation preservation on every default target, at that one
    instance, named by its stage, the ``mul`` op and the pair."""
    u = copy.copy(rank_universe)  # its own entry in tau's memo
    s3, store, x = u.stage(3), u.store, u.x_id
    xi = store.lookup(store.group_inv(x))
    pos = {m: i for i, m in enumerate(s3.members)}
    law = store.group_law
    P, inv = law(s3.members)
    assert P[pos[x], pos[xi]] == pos[UNIT_ID]
    forged = P.copy()
    forged[pos[x], pos[xi]] = pos[x]
    monkeypatch.setattr(store, "group_law", lambda members: (forged, inv) if members == s3.members else law(members))
    for target in u.cfg.targets:
        rep = check_operation_preservation(u, target)
        assert (rep.attempted, rep.passed) == (196, 195)
        assert rep.counterexamples == [{"stage": 3, "op": "mul", "pair": (x, xi)}]


@pytest.mark.parametrize("preset, count", [("exact", 61**2), ("rank", 19**2), ("desk", 7**2), ("uneven", 19**2)])
def test_norm_stage_sums_go_to_sums(preset, count, request):
    """The test behind the norm-stage proof of the ``universal`` docstring:
    on stage 2, for every pair of members whose sum (``TermStore.lin_combine``)
    is a member, tau of the sum is the sum of their taus.  Stage 2 has two
    axes, so those pairs are the square of one axis's scalar pairs whose
    sum is a scalar: 61 on D_1, 19 on the rank and uneven sets, 7 on desk's."""
    u = request.getfixturevalue(f"{preset}_universe")
    store, tau, s2 = u.store, TauMap(u), u.stage(2)
    checked = 0
    for a in s2.members:
        for b in s2.members:
            total = store.lookup(store.lin_combine([(DY_ONE, a), (DY_ONE, b)]))
            if total in s2.member_set:
                assert tau(total) == tau(a) + tau(b), (a, b)
                checked += 1
    assert checked == count


def test_scaling_covariance(desk_universe):
    """Replacing y by lambda*y scales every image by lambda."""
    u = desk_universe
    base = TargetSpace.maximum((F(1), F(-1, 2)))
    for m in u.stage(4).members[:300:10]:
        image = phi_eval(u, m, base)
        for lam in (F(2), F(1, 2)):
            scaled = TargetSpace.maximum(tuple(lam * c for c in base.image))
            assert phi_eval(u, m, scaled) == tuple(lam * c for c in image)


@pytest.mark.parametrize("preset, scale", [("desk", 1), ("rank", 2), ("exact", 2)])
def test_phi_scale(preset, scale, request):
    """S = 2^K, with K read off the scalar sets of the norm stages that have
    a basis; no target enters it."""
    u = request.getfixturevalue(f"{preset}_universe")
    assert TauMap(u).scale == scale


def _reference_phi(u, target):
    """phi' member by member in Fraction, from the store's terms: a
    combination is sum c phi'(b) over its ``coeffs_of``, a word the sum of
    its letters."""
    memo = {UNIT_ID: (F(0),) * target.dim, u.x_id: target.image}

    def phi(eid):
        if eid not in memo:
            if isinstance(u.store.term(eid), ComboTerm):
                parts = [(c.as_fraction(), phi(b)) for b, c in u.store.coeffs_of(eid)]
            else:
                parts = [(F(sign), phi(b)) for b, sign in u.store.word_of(eid)]
            memo[eid] = tuple(sum(c * w[i] for c, w in parts) for i in range(target.dim))
        return memo[eid]

    return phi


def _reference_bound(u, target):
    """The morphism bound entry by entry in Fraction, from
    ``_reference_phi``: the report (members of each norm stage, then pairs
    i < j of each word stage, in member order) and the sigma tables."""
    phi, y_sq = _reference_phi(u, target), target.y_norm_sq()
    report = VerificationReport(suite=f"morphism bound {target.label()}")
    metric_sq, norm_sq, worst = {}, {}, None
    for stage in u.stages:
        members = stage.members
        if stage.kind == "vector":
            table = norm_sq[stage.index] = {}
            entries = [("element", z, z, phi(z), stage.table[z]) for z in members]
        else:
            table = metric_sq[stage.index] = {}
            entries = [
                ("pair", (a, b), (min(a, b), max(a, b)), [p - q for p, q in zip(phi(a), phi(b))], u.rho(stage, a, b))
                for i, a in enumerate(members)
                for b in members[i + 1 :]
            ]
        for field, where, key, image, value in entries:
            lhs = table[key] = target.norm_sq(image)
            rhs = y_sq * value * value
            report.attempted += 1
            if lhs <= rhs:
                report.passed += 1
                if rhs and (worst is None or lhs / rhs > worst):
                    worst = lhs / rhs
            else:
                report.add_counterexample(stage=stage.index, **{field: where}, lhs_sq=str(lhs), rhs_sq=str(rhs))
    report.meta["worst_ratio_sq"] = None if worst is None else str(worst)
    return report, metric_sq, norm_sq


def _assert_matches_reference(u, target):
    table, report = sigma_table(u, target)
    ref, metric_sq, norm_sq = _reference_bound(u, target)
    assert report.describe() == check_morphism_bound(u, target).describe() == ref.describe()
    assert table.metric_sq == metric_sq
    assert table.norm_sq == norm_sq
    return table, report


@pytest.mark.parametrize("preset", ["exact", "rank", "desk", "uneven"])
def test_bound_pass_matches_entry_reference(preset, request):
    """The array bound pass gives the per-entry reference's report (counts,
    worst ratio, meta) and sigma tables, for the default targets and a
    Euclidean one."""
    u = request.getfixturevalue(f"{preset}_universe")
    for target in (*u.cfg.targets, TargetSpace.euclidean((F(3, 4), F(-1, 2)))):
        _assert_matches_reference(u, target)


def test_bound_pass_past_int64(desk_universe):
    """An image of 2^62 puts the rendered stage-4 squares past int64; the
    report passes and the sigma entries are the exact reference values."""
    table, report = _assert_matches_reference(desk_universe, TargetSpace.real(F(2**62)))
    assert report.ok and report.meta["worst_ratio_sq"] == "1"
    assert max(table.norm_sq[4].values()) >= 2**124
    assert table.norm_sq[4][desk_universe.x_id] == 2**124


@pytest.mark.parametrize("preset", ["exact", "rank", "desk", "uneven"])
@pytest.mark.parametrize("faulty", [False, True], ids=["honest", "halved"])
def test_suite_sections_are_the_per_target_reports(preset, faulty, request):
    """The universal suite runs tau's bound pass and preservation pass once
    and renders two sections per target; each describes equal to that
    target's own ``check_morphism_bound`` and ``check_operation_preservation``
    report, for the default targets, a Euclidean one and y = 0, on the
    honest tables and with a stage-1 entry halved so the bound fails."""
    u = request.getfixturevalue(f"{preset}_universe")
    if faulty:
        key, value = next(iter(u.stage(1).table.items()))
        u = perturbed(u, 1, key, -value / 2)
    targets = (*u.cfg.targets, TargetSpace.euclidean((F(3, 4), F(-1, 2))), TargetSpace.real(F(0)))
    u = copy.copy(u)
    u.cfg = dataclasses.replace(u.cfg, targets=targets)
    sections = check_suites(u, ("universal",)).reports
    expected = [
        report
        for target in targets
        for report in (check_morphism_bound(u, target), check_operation_preservation(u, target))
    ]
    assert [r.describe() for r in sections] == [r.describe() for r in expected]
    assert not faulty or not sections[0].ok
    zero_bound, zero_sample = expected[-2:]
    assert zero_bound.ok and zero_bound.meta["worst_ratio_sq"] is None
    assert zero_sample.ok and zero_sample.attempted > 0
    _assert_matches_reference(u, targets[-1])


@pytest.mark.parametrize("stage_index", [4, 3])
def test_bound_fault_lowered_entry(desk_universe, stage_index):
    """Lowering x's stage-4 norm, or rho(e, x) on stage 3, from 1 to 1/2
    fails the bound on every default target with one counterexample, whose
    fields, values and count are the per-entry reference's."""
    u = desk_universe
    x = u.x_id
    key = x if stage_index == 4 else (min(UNIT_ID, x), max(UNIT_ID, x))
    bad = perturbed(u, stage_index, key, -F(1, 2))
    field = "element" if stage_index == 4 else "pair"
    for target in u.cfg.targets:
        _, report = _assert_matches_reference(bad, target)
        assert not report.ok and report.meta["counterexample_count"] == 1
        [example] = report.counterexamples
        assert list(example) == ["stage", field, "lhs_sq", "rhs_sq"]
        assert example["stage"] == stage_index
        assert F(example["lhs_sq"]) == 4 * F(example["rhs_sq"]) == target.y_norm_sq()


def test_bound_faults_come_in_entry_order(rank_universe):
    """Every rank stage-2 norm scaled by 3/4, so the table holds quarters:
    the failures come out in member order, with the reference's values."""
    u = bad = rank_universe
    s2 = u.stage(2)
    for z in s2.members:
        bad = perturbed(bad, 2, z, -s2.table[z] / 4)
    for target in u.cfg.targets:
        _, report = _assert_matches_reference(bad, target)
        assert report.meta["counterexample_count"] > 1


def test_bound_worst_ratio_below_one():
    """On stage 1 alone, with rho(e, x) = rho(e, x^-1) = 2 and
    rho(x, x^-1) = 3, every entry passes and the worst squared ratio is
    4/9, at the last pair."""
    u = bad = Universe(Config(stage_count=1, word_caps=(1,))).build()
    for key in u.stage(1).table:
        bad = perturbed(bad, 1, key, F(1))
    for target in u.cfg.targets:
        _, report = _assert_matches_reference(bad, target)
        assert report.ok and report.meta["worst_ratio_sq"] == "4/9"


@given(st.lists(st.tuples(st.integers(0, 2**70), st.integers(1, 2**70)), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_argmax_ratio_is_exact(pairs):
    """The tournament finds a greatest ratio exactly, on any length and on
    Python ints past int64."""
    num, den = (np.array(column, dtype=object) for column in zip(*pairs))
    k = _argmax_ratio(num, den)
    assert F(*pairs[k]) == max(F(n, d) for n, d in pairs)
    small = [(n % 1000, d % 1000 + 1) for n, d in pairs]
    num, den = (np.array(column, dtype=np.int64) for column in zip(*small))
    assert F(*small[_argmax_ratio(num, den)]) == max(F(n, d) for n, d in small)


def _tau_times(tau, m, target):
    """tau(m) y, exactly."""
    return tuple(F(tau(m), tau.scale) * c for c in target.image)


@pytest.mark.parametrize("preset", ["exact", "rank", "desk", "uneven"])
def test_phi_product_matches_member_reference(preset, request):
    """TauMap's one product per norm stage, times y, equals the per-member
    reference on every vector-stage member, for the default targets and a
    Euclidean one; rank's and the quarters' coefficients divide exactly."""
    u = request.getfixturevalue(f"{preset}_universe")
    members = [m for s in u.stages if s.kind == "vector" for m in s.members]
    tau = TauMap(u)
    for target in (*u.cfg.targets, TargetSpace.euclidean((F(3, 4), F(-1, 2)))):
        ref = _reference_phi(u, target)
        for m in members:
            assert _tau_times(tau, m, target) == ref(m)


def test_phi_past_int64(desk_universe):
    """An image of 2^62 drives stage-4 images past 2^63; they stay exact."""
    target = TargetSpace.real(F(2**62))
    tau, ref = TauMap(desk_universe), _reference_phi(desk_universe, target)
    members = desk_universe.stage(4).members
    assert max(abs(_tau_times(tau, m, target)[0]) for m in members) >= 2**63
    for m in members:
        assert _tau_times(tau, m, target) == ref(m)


def test_coordinates_past_int64(desk_universe, fit_spy):
    """Coordinates are int64 on desk, but a scalar set holding +-2^70 keeps
    them exact Python ints in an object array: the stage-2 grid still
    matches the store, TauMap's product agrees with the reference, and the
    bound pass runs on Python-int object arrays and matches the per-entry
    reference.  Per stage, the pass fits its own products once, reading
    the arrays ``Stage.scaled_table`` returns, which the build fitted, so
    no fit of a table is left to a check; both are int64 on stages 0 and 1
    and object arrays on stage 2."""
    big = 2**70
    scalars = tuple(map(Dyadic.parse, f"-{big} -1 0 1 {big}".split()))
    u = Universe(Config(stage_count=2, scalar_sets=(scalars,))).build()
    s2, s4 = u.stage(2), desk_universe.stage(4)
    assert s4.coordinates(scalar_shift(s4)).dtype == np.int64
    rows = s2.coordinates(scalar_shift(s2))
    assert rows.dtype == object and rows[0].tolist() == [-big, -big]
    assert off_grid_cells(u.store, s2) == []
    tau = TauMap(u)
    for target in (*u.cfg.targets, TargetSpace.euclidean((F(3, 4), F(-1, 2)))):
        ref = _reference_phi(u, target)
        for m in s2.members:
            assert _tau_times(tau, m, target) == ref(m)
        _assert_matches_reference(u, target)
    fitted = fit_spy(stages, universal)
    assert tau.bound_pass().ok
    assert [arrays[0].dtype for arrays in fitted] == [np.int64] * 2 + [object]  # stages 0, 1, 2
    assert [s.scaled_table()[0].dtype for s in u.stages] == [np.int64] * 2 + [object]


def test_phi_outside_the_tower_is_not_built(exact_universe):
    """TauMap is filled on the tower's stages only; another id is a typed
    LookupError, not a KeyError."""
    tau = TauMap(exact_universe)
    with pytest.raises(NotBuiltError, match="no built stage"):
        tau(len(exact_universe.store))


def test_target_validation():
    with pytest.raises(ValueError):
        TargetSpace(kind="abs", image=(F(1), F(2)))
    with pytest.raises(ValueError):
        TargetSpace(kind="spectral", image=(F(1),))
