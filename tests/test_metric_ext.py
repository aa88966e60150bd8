"""Metric extension: base case, delta seeds, extension equality, oracle."""

import dataclasses
from fractions import Fraction as F
from itertools import product

import pytest

from freebanach import Config, Universe, UNIT_ID
from freebanach.cli import EXIT_USAGE, main
from freebanach.metric_ext import (
    check_extension_metric,
    delta_general,
    delta_rank0_closure,
    rho_decomposition_oracle,
)
from freebanach.oracles import check_rho_oracle, rho_oracle_mismatches
from freebanach.relax import ConstraintSystem, Equality, UpperCombo, relax_fixpoint
from freebanach.scalars import Dyadic
from freebanach.verify import check_biinvariance, perturbed


def test_rho1_base_case(exact_universe):
    u = exact_universe
    s1 = u.stage(1)
    x = u.x_id
    xi = u.store.lookup(u.store.group_inv(x))
    assert u.rho(s1, x, UNIT_ID) == 1
    assert u.rho(s1, xi, UNIT_ID) == 1
    assert u.rho(s1, x, xi) == 2
    assert len(s1.table) == 3


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_stage1_formula_is_the_greatest_closed_function(cap):
    """Stage 1 against the Fraction reference engine.  Over ordered pairs of
    stage-1 words, seeded 0 on the diagonal and 1 at (x, e), the greatest
    function closed under composition D(uw, vz) <= D(u, v) + D(w, z) (all
    six words in the stage), the inverse mirror D(u, v) = D(u^-1, v^-1) and
    the triangle inequality is the built table, |a - b| at (x^a, x^b)."""
    u = Universe(dataclasses.replace(Config.exact_x2(stage_count=1), word_caps=(cap,))).build()
    store, s1 = u.store, u.stage(1)
    members = s1.members
    word = {m: store.word_of(m) for m in members}
    member_of = {w: m for m, w in word.items()}
    cells = [(a, b) for a in members for b in members]
    bounds = {cell: None for cell in cells}
    bounds.update({(m, m): F(0) for m in members})
    bounds[(u.x_id, UNIT_ID)] = F(1)
    rules = []
    for (a, b), (c, d) in product(cells, repeat=2):
        ac = member_of.get(store.word_of(store.mul_id(a, c)))
        bd = member_of.get(store.word_of(store.mul_id(b, d)))
        if ac is not None and bd is not None:
            rules.append(UpperCombo((ac, bd), ((F(1), (a, b)), (F(1), (c, d)))))
    rules += [Equality((a, b), (store.inv_id(a), store.inv_id(b))) for a, b in cells]
    rules += [UpperCombo((a, b), ((F(1), (a, m)), (F(1), (m, b)))) for a, b in cells for m in members]
    out = relax_fixpoint(ConstraintSystem(indices=tuple(cells), bounds=bounds, rules=rules))
    assert not out.unconstrained
    assert len(members) == 2 * cap + 1
    assert len(s1.table) == len(members) * (len(members) - 1) // 2
    assert all(out[(a, b)] == u.rho(s1, a, b) for a, b in cells)
    exponent = {m: sum(sign for _, sign in word[m]) for m in members}
    assert all(u.rho(s1, a, b) == abs(exponent[a] - exponent[b]) for a, b in cells)


def test_delta_rank0_diagonal_and_direct(desk_universe):
    u = desk_universe
    s3, s2 = u.stage(3), u.stage(2)
    x = u.x_id
    rank0 = delta_rank0_closure(u, s3, s2, u.cfg)
    assert rank0.get(x, x) == 0
    # m = 1 factorization bound: delta(x, e) <= ||x - e||_2 = 1, and the
    # closure cannot undercut the true distance 1
    assert rank0.get(x, UNIT_ID) == 1


def test_delta_rank0_infeasible_cell(desk_universe):
    """The inverse of a promoted combination is not a product of previous
    stage elements: its rank-0 row is empty."""
    u = desk_universe
    s3, s2 = u.stage(3), u.stage(2)
    store = u.store
    x = u.x_id
    neg_x = store.lookup(store.lin_combine([(Dyadic(-1), x)]))
    assert neg_x is not None and store.rank(neg_x) == 0
    neg_x_inv = store.lookup(store.group_inv(neg_x))
    assert neg_x_inv is not None
    assert delta_rank0_closure(u, s3, s2, u.cfg).get(neg_x_inv, UNIT_ID) is None
    # yet the relaxed metric is finite there (inversion rule):
    assert u.rho(s3, neg_x_inv, UNIT_ID) == u.rho(s3, neg_x, UNIT_ID)


def test_delta_has_no_positive_rank_clause(rank_universe):
    """delta's closure clauses hold pairs of rank-0 members only: the rho
    rules alone give a positive-rank pair its value.  They still reach 1 at
    (g, g^-1) and at (x, g), for g = 1/2 x + 1/2 x^-1."""
    u = rank_universe
    s3, s2 = u.stage(3), u.stage(2)
    store = u.store
    table = delta_general(u, delta_rank0_closure(u, s3, s2, u.cfg))
    positive = {m for m in s3.members if store.rank(m) > 0}
    assert positive and table.values
    assert not [k for k in table.values if positive.intersection(k)]
    x = u.x_id
    xi = store.lookup(store.group_inv(x))
    g = store.lookup(store.lin_combine([(Dyadic(1, 1), x), (Dyadic(1, 1), xi)]))
    gi = store.lookup(store.group_inv(g))
    assert u.rho(s3, g, gi) == 1
    assert u.rho(s3, x, g) == 1


def test_rank_rho_at_expansion_one(rank_universe):
    """At ambient expansion 1 the closure runs on the ambient space with
    the rank stage's positive-rank members in it, and gives the preset's
    rho_3 (which closes over the members space)."""
    u = Universe(dataclasses.replace(Config.rank(), ambient_expansion=1)).build()
    assert u.stage(3).notes["rho_mode"] == "ambient"
    assert rank_universe.stage(3).notes["rho_mode"] == "members"
    assert u.stage(3).table == rank_universe.stage(3).table


def test_delta_cap2_upper_bound():
    """delta(xx, e) is at most 2 ||x||_2 via the aligned factorization
    (x)(x) against (e)(e).  The length-2 word stage is enumerated unsealed;
    only the auxiliary function is exercised."""
    cfg = Config(stage_count=2, word_caps=(1, 2), ambient_expansion=1)
    u = Universe(cfg).build()
    stage3 = u._enumerate_word_stage(3, cfg.word_cap(1))
    s2 = u.stage(2)
    store = u.store
    x = u.x_id
    xx = store.lookup(store.group_mul(x, x))
    assert xx in stage3.member_set
    val = delta_rank0_closure(u, stage3, s2, u.cfg).get(xx, UNIT_ID)
    assert val is not None and val <= 2


def test_extension_exact(desk_universe, rank_universe):
    for u in (desk_universe, rank_universe):
        rep = check_extension_metric(u, u.stage(3), u.stage(2))
        assert rep.ok and rep.attempted > 0


def test_rank_preset_convex_values(rank_universe):
    u = rank_universe
    s3 = u.stage(3)
    store = u.store
    x = u.x_id
    xi = store.lookup(store.group_inv(x))
    g = store.lookup(store.lin_combine([(Dyadic(1, 1), x), (Dyadic(1, 1), xi)]))
    gi = store.lookup(store.group_inv(g))
    # convexity pins rho(x, g) <= 1/2 rho(x, x) + 1/2 rho(x, x^-1) = 1,
    # and the extension pins it from below by ||x - g||_2 = 1
    assert u.rho(s3, x, g) == 1
    assert u.rho(s3, x, gi) == 1
    assert u.rho(s3, g, UNIT_ID) == 1
    assert u.rho(s3, gi, UNIT_ID) == 1


def test_biinvariance_forced_equalities(desk_universe):
    """rho(g h, g h') = rho(h, h') whenever all four stay in stage."""
    u = desk_universe
    s3 = u.stage(3)
    store = u.store
    count = 0
    for g in s3.members:
        for h in s3.members:
            gh = store.lookup(store.group_mul(g, h))
            if gh is None or gh not in s3.member_set:
                continue
            for h2 in s3.members:
                gh2 = store.lookup(store.group_mul(g, h2))
                if gh2 is None or gh2 not in s3.member_set or gh == gh2:
                    continue
                assert u.rho(s3, gh, gh2) == u.rho(s3, h, h2)
                count += 1
    assert count > 0


def test_oracle_equality_small_stage(desk_universe):
    u = desk_universe
    s3 = u.stage(3)
    assert len(s3.members) <= 40
    oracle, depth = rho_decomposition_oracle(u, s3, u.stage(2), u.cfg)
    assert depth == 5
    for key, value in s3.table.items():
        assert oracle.get(key) == value


def test_rho_oracle_counts_faults(desk_universe):
    """On a copy of the table with one entry lowered and another raised,
    the oracle comparison reports exactly those two pairs."""
    u = desk_universe
    low, high = sorted(k for k in u.stage(3).table if k[0] != k[1])[:2]
    bad = perturbed(perturbed(u, 3, low, F(-1, 2)), 3, high, F(1))
    assert rho_oracle_mismatches(bad) == ([low, high], 5)


def test_check_rho_oracle_line():
    assert check_rho_oracle() == ("stage-3 metric vs factorization oracle (105 pairs, depth 5)", True)


def test_closure_sweep_counts(desk_universe, rank_universe):
    """The pair closures keep the sweep semantics (snapshot sources, live
    generator costs in generator order), so their sweep counts are fixed:
    ``bench`` shows them as ``delta_sweeps`` and ``rho_sweeps``."""
    assert rank_universe.stage(3).notes["delta_sweeps"] == 5
    assert desk_universe.stage(3).notes["delta_sweeps"] == 5
    desk3 = desk_universe.stage(3).notes
    assert (desk3["rho_mode"], desk3["rho_sweeps"]) == ("ambient", 4)
    rank3 = rank_universe.stage(3).notes
    assert (rank3["rho_mode"], rank3["rho_sweeps"]) == ("members", 3)


def test_closure_entry_counts(desk_universe, rank_universe):
    """The source cells each closure composed over its sweeps, which
    ``bench`` shows as ``delta_entries`` and ``rho_entries``.  Every block
    of every generator in every sweep comes to 13 620 250 and 115 926 on
    rank, 213 010 and 3 102 968 on desk; the generators with a finite cost
    alone, to 13 620 250, 112 230, 213 010 and 3 055 928."""
    rank3, desk3 = rank_universe.stage(3).notes, desk_universe.stage(3).notes
    assert (rank3["delta_entries"], rank3["rho_entries"]) == (7_505_606, 75_804)
    assert (desk3["delta_entries"], desk3["rho_entries"]) == (107_006, 2_606_694)


def test_rho_at_expansion_one_ignores_the_budget(tmp_path, capsys):
    """At ambient expansion 1 the ambient word space is the stage's own
    words, so the budget changes no value: it builds that one space or
    refuses the stage.  Desk stage 3 has 15 words; a budget of 15^2 builds
    the default budget's rho_3, which satisfies the triangle inequality,
    and one cell less is exit 2, naming pair_cell_budget.  Before the
    triangle family, the ambient closure gave 4 on 15 pairs where the
    members system gave 2, and failed the triangle section."""
    cfg = dataclasses.replace(Config.desk(stage_count=3), ambient_expansion=1)
    default = Universe(cfg).build()
    fitted = Universe(dataclasses.replace(cfg, pair_cell_budget=15**2)).build()
    assert fitted.stage(3).notes["rho_mode"] == "ambient"
    assert fitted.stage(3).table == default.stage(3).table
    tri, _ = check_biinvariance(fitted, fitted.stage(3)).reports
    assert tri.ok and tri.attempted == 15**3
    path = tmp_path / "conf.ini"
    path.write_text(
        "[build]\npreset = desk\nstage_count = 3\nambient_expansion = 1\npair_cell_budget = 224\n"
    )
    assert main(["norm", "x", "--config", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pair_cell_budget" in err
