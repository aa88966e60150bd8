"""Acceptance criteria, one test per criterion, each printing a pass line.

All tolerances are exact (rational equality); runtimes are wall-clock upper
bounds from the criteria themselves.  The desk tower is built once per
session (its build time is the criterion-3 measurement); the
construction-exact second stage is rebuilt fresh where a criterion times it.
"""

import time
from fractions import Fraction as F

from freebanach import Config, Universe, UNIT_ID
from freebanach.cli import export_bytes
from freebanach.lp import basic_solution_oracle
from freebanach.oracles import check_lp_oracle, check_relax_oracle
from freebanach.scalars import Dyadic
from freebanach.universal import (
    check_morphism_bound,
    check_operation_preservation,
    phi_eval,
)
from freebanach.verify import (
    check_biinvariance,
    check_condition_1,
    check_condition_3,
    check_condition_4,
    check_condition_5,
    check_condition_6,
    check_conditions,
    check_extension_metric,
    check_extension_norm,
    perturbed,
)

EPS = F(1, 1 << 20)


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: pass ({detail})")


def test_criterion_1_base_case_exact():
    t0 = time.time()
    u = Universe(Config.exact_x2(stage_count=1)).build()
    elapsed = time.time() - t0
    s1 = u.stage(1)
    x = u.x_id
    xi = u.store.lookup(u.store.group_inv(x))
    assert u.rho(s1, x, UNIT_ID) == 1
    assert u.rho(s1, xi, UNIT_ID) == 1
    assert u.rho(s1, x, xi) == 2
    assert elapsed < 1.0
    report("1 base-case exactness", f"rho_1 = (1, 1, 2), {elapsed:.3f}s")


def test_criterion_2_norm2_oracle_exact():
    t0 = time.time()
    u = Universe(Config.exact_x2()).build()
    s2 = u.stage(2)
    assert len(s2.members) == 81
    basis_pos = {b: i for i, b in enumerate(s2.basis)}
    molecules = [(F(1), F(0)), (F(0), F(1)), (F(1), F(-1))]
    costs = [F(1), F(1), F(2)]
    for m in s2.members:
        vec = u.store.vector_fractions(m, basis_pos, 2)
        assert s2.table[m] == basic_solution_oracle(molecules, costs, vec)
    x = u.x_id
    xi = u.store.lookup(u.store.group_inv(x))
    diff = u.store.lookup(
        u.store.lin_combine([(Dyadic(1), x), (Dyadic(-1), xi)])
    )
    assert s2.table[x] == 1
    assert s2.table[diff] == 2
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report("2 second-stage norm exactness", f"81/81 oracle-equal, {elapsed:.3f}s")


def test_criterion_3_extension_chain(desk_universe):
    u = desk_universe
    assert u.cfg.stage_count == 4
    t0 = time.time()
    checks = []
    checks.append(check_extension_norm(u, u.stage(2), u.stage(1)))
    checks.append(check_extension_metric(u, u.stage(3), u.stage(2)))
    checks.append(check_extension_norm(u, u.stage(4), u.stage(3)))
    for rep in checks:
        assert rep.ok and rep.attempted > 0, rep.describe()
    elapsed = u.build_seconds + (time.time() - t0)
    assert elapsed < 300.0
    pairs = sum(r.attempted for r in checks)
    report("3 extension chain", f"4 stages, {pairs} qualifying pairs exact, {elapsed:.1f}s")


def test_criterion_4_conditions(desk_universe, rank_universe):
    names = ("condition 1", "condition 3", "condition 4", "condition 5", "condition 6")
    total = 0
    for universe in (desk_universe, rank_universe):
        suite = check_conditions(universe)
        for rep in suite.reports:
            if rep.suite.startswith(names):
                assert rep.ok, rep.describe()
                total += rep.attempted
    # the half-scalar tower makes the convex conditions non-vacuous
    rank_suite = check_conditions(rank_universe)
    assert any(
        r.suite.startswith("condition 4") and not r.vacuous for r in rank_suite.reports
    )
    assert any(
        r.suite.startswith("condition 6") and not r.vacuous for r in rank_suite.reports
    )
    report("4 conditions (1)(3)(4)(5)(6)", f"{total} instances, 0 counterexamples")


def test_criterion_5_biinvariance(desk_universe):
    suite = check_biinvariance(desk_universe, desk_universe.stage(3))
    assert suite.ok, suite.render()
    by = {r.suite.split(" stage")[0]: r for r in suite.reports}
    fact = {r.suite: r for r in check_conditions(desk_universe).reports}["condition 3 splitting stage 3"]
    assert fact.ok
    P, _ = desk_universe.store.group_law(desk_universe.stage(3).members)
    assert fact.attempted == int((P >= 0).sum()) ** 2  # every (ab, cd) with both products in the stage
    report(
        "5 bi-invariance",
        f"fact {fact.attempted} quadruples, triangle "
        f"{by['triangle inequality'].attempted}, translation "
        f"{by['translation invariance'].attempted}, all exhaustive",
    )


def test_criterion_6_oracle_equivalence():
    line, ok = check_relax_oracle(count=100, seed=0, depth=8)
    assert ok, line
    line2, ok2 = check_lp_oracle(count=40, seed=1)
    assert ok2, line2
    report("6 oracle equivalence", f"{line}; {line2}")


def test_criterion_7_universal(desk_universe):
    u = desk_universe
    kinds = {(t.kind, t.image) for t in u.cfg.targets}
    assert ("abs", (F(1),)) in kinds
    assert ("abs", (F(3, 2),)) in kinds
    assert ("max", (F(1), F(-1, 2))) in kinds
    checked = 0
    for target in u.cfg.targets:
        bound = check_morphism_bound(u, target)
        assert bound.ok, bound.counterexamples[:3]
        assert bound.meta["worst_ratio_sq"] == "1"  # equality attained
        lhs = target.norm_sq(phi_eval(u, u.x_id, target))
        rhs = target.y_norm_sq() * u.stage(2).table[u.x_id] ** 2
        assert lhs == rhs
        pres = check_operation_preservation(u, target)
        assert pres.ok
        checked += bound.attempted + pres.attempted
    report("7 universal property", f"3 targets, {checked} instances, bound tight at x")


def test_criterion_8_fault_detection(desk_universe, rank_universe):
    u = desk_universe
    s3, s4 = u.stage(3), u.stage(4)
    mkey = sorted(s3.table)[0]
    nkey = next(m for m in s4.members if m != UNIT_ID)
    detected = []

    bad = perturbed(u, 3, mkey, -u.rho(s3, *mkey))
    detected.append(not all(r.ok for r in check_condition_1(bad)))
    bad = perturbed(u, 3, ((UNIT_ID, u.x_id)), EPS)
    detected.append(not check_extension_metric(bad, bad.stage(3), bad.stage(2)).ok)
    bad = perturbed(u, 3, mkey, F(3))
    detected.append(not all(r.ok for r in check_condition_3(bad)))
    bad = perturbed(u, 4, nkey, F(5))
    detected.append(not all(r.ok for r in check_condition_5(bad)))
    bad = perturbed(u, 3, mkey, F(5))
    detected.append(not check_biinvariance(bad, bad.stage(3)).ok)

    store = rank_universe.store
    x = rank_universe.x_id
    xi = store.lookup(store.group_inv(x))
    g = store.lookup(store.lin_combine([(Dyadic(1, 1), x), (Dyadic(1, 1), xi)]))
    gi = store.lookup(store.group_inv(g))
    bad = perturbed(rank_universe, 3, (min(x, g), max(x, g)), EPS)
    detected.append(not all(r.ok for r in check_condition_4(bad)))
    bad = perturbed(rank_universe, 3, (min(x, gi), max(x, gi)), EPS)
    detected.append(not all(r.ok for r in check_condition_6(bad)))

    assert all(detected), detected
    report("8 fault detection", f"{len(detected)} injected faults all flagged")


def test_criterion_9_determinism(desk_universe):
    """Two end-to-end runs with identical Config produce byte-identical
    export documents (the session tower is run one; a fresh build is run
    two).  A smaller config double-run guards the word/metric path too."""
    fresh = Universe(desk_universe.cfg).build()
    b1 = export_bytes(desk_universe, check_conditions(desk_universe))
    b2 = export_bytes(fresh, check_conditions(fresh))
    assert b1 == b2
    cfg3 = Config.desk(stage_count=3)
    assert export_bytes(Universe(cfg3).build()) == export_bytes(Universe(cfg3).build())
    report("9 determinism", f"byte-identical exports ({len(b1)} bytes)")
