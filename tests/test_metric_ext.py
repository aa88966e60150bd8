"""Metric extension: base case, delta seeds, the rank-0 certificate,
extension equality, oracle."""

import ast
import dataclasses
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

from freebanach import Config, Universe, UNIT_ID
from freebanach import cli, metric_ext, oracles
from freebanach.cli import EXIT_USAGE, export_tables, import_universe, main
from freebanach.metric_ext import MetricExtensionError, delta_general, delta_rank0_closure
from freebanach.oracles import check_rho_oracle, rho_decomposition_oracle, rho_oracle_mismatches
from freebanach.relax import ConstraintSystem, Equality, UpperCombo, relax_fixpoint
from freebanach.scalars import Dyadic
from freebanach.terms import WordSpace, pair_key, reduce_concat
from freebanach.verify import check_biinvariance, check_extension_metric, check_suites, perturbed


def _imported(module):
    """The names ``module`` imports, at module level or inside a function
    (each module's last dotted part and each imported name), and its tree."""
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return imported, tree


def test_extension_modules_hold_only_their_extension():
    """``metric_ext`` and ``norm_ext`` import neither ``verify`` nor
    ``oracles``, at module level or inside a function, and define no
    extension check and no oracle: those live in ``verify`` and ``oracles``."""
    from freebanach import metric_ext, norm_ext

    for module in (metric_ext, norm_ext):
        imported, tree = _imported(module)
        assert not imported & {"verify", "oracles"}, module.__name__
        defined = [n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        assert not [d for d in defined if d.endswith("_oracle") or d.startswith("check_")], module.__name__


def test_checks_hold_one_overflow_policy():
    """``verify`` and ``universal`` read tables as integers through
    ``Stage.scaled_table`` and ``lp._fit`` alone: neither imports nor names
    the pair closure's own int64 conversion ``to_scaled`` or its
    ``ScaleOverflowError``, so no second overflow policy reaches a check."""
    from freebanach import universal, verify

    closure_only = {"to_scaled", "ScaleOverflowError"}
    for module in (verify, universal):
        imported, tree = _imported(module)
        named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert not (imported | named) & closure_only, module.__name__


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
        ac = member_of.get(store.word_of(store.intern(store.group_mul(a, c))))
        bd = member_of.get(store.word_of(store.intern(store.group_mul(b, d))))
        if ac is not None and bd is not None:
            rules.append(UpperCombo((ac, bd), ((F(1), (a, b)), (F(1), (c, d)))))
    rules += [Equality((a, b), (store.intern(store.group_inv(a)), store.intern(store.group_inv(b)))) for a, b in cells]
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
    rank0, _, _ = delta_rank0_closure(u, s3, s2, u.cfg)
    assert all(a < b for a, b in rank0)  # keyed like a word stage's table, no diagonal
    # m = 1 factorization bound: delta(x, e) <= ||x - e||_2 = 1, and the
    # closure cannot undercut the true distance 1
    assert rank0[pair_key(x, UNIT_ID)] == 1


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
    assert pair_key(neg_x_inv, UNIT_ID) not in delta_rank0_closure(u, s3, s2, u.cfg)[0]
    # yet the relaxed metric is finite there (inversion rule):
    assert u.rho(s3, neg_x_inv, UNIT_ID) == u.rho(s3, neg_x, UNIT_ID)


def test_delta_has_no_positive_rank_clause(rank_universe):
    """delta_0's cells hold pairs of rank-0 members only: the rho rules
    alone give a positive-rank pair its value.  They still reach 1 at
    (g, g^-1) and at (x, g), for g = 1/2 x + 1/2 x^-1."""
    u = rank_universe
    s3, s2 = u.stage(3), u.stage(2)
    store = u.store
    table = delta_general(u, delta_rank0_closure(u, s3, s2, u.cfg)[0])
    positive = {m for m in s3.members if store.rank(m) > 0}
    assert positive and table
    assert not [k for k in table if positive.intersection(k)]
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
    (x)(x) against (e)(e).  The length-2 word stage is enumerated without a table;
    only the auxiliary function is exercised."""
    cfg = Config(stage_count=2, word_caps=(1, 2), ambient_expansion=1)
    u = Universe(cfg).build()
    stage3 = u._enumerate_word_stage(3, cfg.word_cap(1))
    s2 = u.stage(2)
    store = u.store
    x = u.x_id
    xx = store.lookup(store.group_mul(x, x))
    assert xx in stage3.member_set
    assert delta_rank0_closure(u, stage3, s2, u.cfg)[0][pair_key(xx, UNIT_ID)] <= 2


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


def test_rho_oracle_drains_its_heap_past_an_unreachable_pair(desk_universe, monkeypatch):
    """The search stops early only once every wanted pair is settled.  On
    desk's stage 3 cut to e, x and the generators 3, 4, 6 and 7, without
    delta's clause (e, 6) no factorization reaches (e, 6): the search runs
    until its heap is empty, that pair stays absent, and every other value
    and the depth are those of the search with the clause."""
    u = desk_universe
    s3, s2 = u.stage(3), u.stage(2)
    cut = dataclasses.replace(s3, members=tuple(m for m in s3.members if m in (UNIT_ID, 1, 3, 4, 6, 7)))
    full, depth = rho_decomposition_oracle(u, cut, s2, u.cfg)
    assert (len(full), depth) == (15, 2)
    dropped = pair_key(UNIT_ID, 6)
    delta = {k: v for k, v in metric_ext.delta_bounds(u, s2).items() if k != dropped}
    monkeypatch.setattr(oracles, "delta_bounds", lambda universe, prev: delta)
    out, depth_out = rho_decomposition_oracle(u, cut, s2, u.cfg)
    assert dropped not in out
    assert out == {k: v for k, v in full.items() if k != dropped}
    assert depth_out == depth


def test_product_lines_match_reduce_concat(monkeypatch):
    """The step-table product lines equal the per-pair rule (the index of
    ``reduce_concat`` of the two words, or -1) for every word of the
    closure spaces: desk's ambient and rank's stage-3 spaces, rank's
    delta_0 space and item 21's (3-stage desk at word caps (1, 2),
    expansion 1)."""
    spaces = []

    class Recorded(WordSpace):
        def __init__(self, *args):
            super().__init__(*args)
            spaces.append(self)

    monkeypatch.setattr(metric_ext, "WordSpace", Recorded)
    Universe(Config.desk(stage_count=3)).build()
    rank = Universe(Config.rank()).build()
    delta_rank0_closure(rank, rank.stage(3), rank.stage(2), rank.cfg)
    cfg = dataclasses.replace(Config.desk(stage_count=3), word_caps=(1, 2), ambient_expansion=1)
    Universe(cfg).build()
    assert [len(s) for s in spaces] == [197, 47, 599, 197]
    for space in spaces:
        words, index = space.words, space.index
        for w, word in enumerate(words):
            right, left = space.product_lines(w)
            assert right.tolist() == [index.get(reduce_concat(u, word), -1) for u in words]
            assert left.tolist() == [index.get(reduce_concat(word, u), -1) for u in words]


def _dominance(universe):
    """The rank-0 dominance section of stage 3."""
    [report] = [r for r in check_biinvariance(universe, universe.stage(3)).reports if r.suite.startswith("rank-0")]
    return report


def test_closure_sweep_counts(desk_universe, rank_universe):
    """The pair closures keep the sweep semantics (sources and generator
    costs read from the snapshot taken at a sweep's start), so their sweep
    counts are fixed:
    ``bench`` shows ``rho_sweeps``, and the rank dominance report's meta
    ``delta_sweeps`` (desk at the default budget runs no rank-0 closure;
    ``test_rank0_dominance_certifies_desk_in_its_members_space`` pins one
    that does)."""
    assert _dominance(rank_universe).meta["delta_sweeps"] == 5
    desk3 = desk_universe.stage(3).notes
    assert (desk3["rho_mode"], desk3["rho_sweeps"]) == ("ambient", 4)
    rank3 = rank_universe.stage(3).notes
    assert (rank3["rho_mode"], rank3["rho_sweeps"]) == ("members", 3)


def test_closure_entry_counts(desk_universe, rank_universe):
    """The candidate cells each closure composed over its sweeps, counted
    for generators at a finite cost only: the rank dominance report's meta
    ``delta_entries`` and the notes' ``rho_entries``, which ``bench`` shows.
    Costs are read from the sweep's snapshot, so a cost lowered in a sweep
    is applied from the next one, and how blocks are grouped or chunked
    moves no count.  Without the semi-naive cut (every finite-cost
    generator against its finite lines in every sweep) they come to
    11 347 450 and 93 398 on rank, 2 722 840 for desk's rho."""
    assert _dominance(rank_universe).meta["delta_entries"] == 7_505_606
    assert rank_universe.stage(3).notes["rho_entries"] == 56_972
    assert desk_universe.stage(3).notes["rho_entries"] == 2_273_606


def test_rank0_dominance_certifies_rank_and_catches_a_raised_entry(rank_universe):
    """Rank stage 3 closes over its members space at expansion 2, so its
    table is certified below delta_0 on all 276 of delta_0's cells.  One
    entry raised above delta_0 on such a cell fails the section, which
    names that pair and only it."""
    u = rank_universe
    report = _dominance(u)
    assert report.ok and not report.vacuous and report.attempted == 276
    delta0 = delta_general(u, delta_rank0_closure(u, u.stage(3), u.stage(2), u.cfg)[0])
    (key, bound), *_ = sorted(delta0.items())
    bad = _dominance(perturbed(u, 3, key, bound - u.rho(u.stage(3), *key) + F(1, 2)))
    assert not bad.ok and bad.passed == 275
    assert [ce["pair"] for ce in bad.counterexamples] == [key]


def test_rank0_dominance_runs_on_an_imported_export(rank_universe, tmp_path):
    """The case comes from the config and the stage's letters, not from the
    build's notes, which an import does not have: an imported rank export
    runs the certificate and passes on the same cells."""
    path = tmp_path / "rank.json"
    export_tables(rank_universe, str(path))
    imported = import_universe(str(path))
    assert not imported.stage(3).notes
    report = _dominance(imported)
    assert report.ok and report.attempted == _dominance(rank_universe).attempted == 276


def test_rank0_dominance_vacuous_where_proved(desk_universe):
    """Desk stage 3 closes over its ambient space: the section attempts
    nothing and names the proof."""
    report = _dominance(desk_universe)
    assert report.ok and report.vacuous and report.attempted == 0
    assert report.meta == {"proof": "metric_ext docstring: ambient space"}


def test_rank0_dominance_certifies_desk_in_its_members_space():
    """At pair_cell_budget 38000 desk stage 3 closes over its members
    space, so the certificate runs: all 36 delta_0 cells pass.  Its closure
    keeps the sweep semantics, so its counts are fixed: 5 sweeps composing
    107 006 candidate cells (178 346 without the semi-naive cut)."""
    cfg = dataclasses.replace(Config.desk(stage_count=3), pair_cell_budget=38000)
    u = Universe(cfg).build()
    assert u.stage(3).notes["rho_mode"] == "members"
    report = _dominance(u)
    assert report.ok and not report.vacuous and report.attempted == 36
    assert report.meta == {"delta_sweeps": 5, "delta_entries": 107_006}


def test_cli_refuses_a_table_the_certificate_fails(rank_universe, tmp_path, monkeypatch, capsys):
    """``build``, ``dist`` and ``norm`` certify their fresh build: a rank
    stage-3 entry raised above delta_0 is a construction error (exit 2),
    and ``build`` writes no export."""
    u = rank_universe
    delta0 = delta_general(u, delta_rank0_closure(u, u.stage(3), u.stage(2), u.cfg)[0])
    (key, bound), *_ = sorted(delta0.items())
    bad = perturbed(u, 3, key, bound - u.rho(u.stage(3), *key) + F(1, 2))
    monkeypatch.setattr(cli, "_build", lambda cfg: bad)
    out = tmp_path / "x.json"
    message = "error: stage-3 metric exceeds the rank-0 clause on 1 of 276 delta_0 cells\n"
    for argv in (["build", "--out", str(out)], ["dist", "x", "e"], ["norm", "x"]):
        assert main([*argv, "--preset", "rank"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", message)
    assert not out.exists()


@pytest.fixture(scope="module")
def desk_cap2_universes():
    """3-stage desk with word caps (1, 2) at the default expansion and at
    expansion 1: 197 stage-3 words."""
    cfg = dataclasses.replace(Config.desk(stage_count=3), word_caps=(1, 2))
    return Universe(cfg).build(), Universe(dataclasses.replace(cfg, ambient_expansion=1)).build()


def test_word_cap_two_builds_at_the_default_expansion(desk_cap2_universes):
    """Without the rank-0 closure in the build, 3-stage desk at word caps
    (1, 2) builds at the default expansion, over its members space, with
    the expansion-1 table; at expansion 1 every suite passes, condition 3's
    splitting on all 3319^2 instances of stage 3's 3319 in-stage products."""
    default, expansion_one = desk_cap2_universes
    assert len(default.stage(3).members) == 197
    assert default.stage(3).notes["rho_mode"] == "members"
    assert default.stage(3).table == expansion_one.stage(3).table
    suite = check_suites(expansion_one)
    assert suite.ok, suite.render()
    [split] = [r for r in suite.reports if r.suite == "condition 3 splitting stage 3"]
    assert split.summary_line() == "[pass] condition 3 splitting stage 3: 11015761/11015761"
    assert _dominance(expansion_one).vacuous


def test_word_cap_two_certificate_over_budget_exits_2(desk_cap2_universes, tmp_path, monkeypatch, capsys):
    """At the default expansion delta_0's space there is 4299 words, whose
    pairs exceed the default budget: the certificate is refused with exit 2
    naming pair_cell_budget, never passed, by ``verify`` and by every
    command that certifies its build, so ``build`` writes no export."""
    default, _ = desk_cap2_universes
    with pytest.raises(MetricExtensionError, match=r"rank-0 closure space 4299\^2 exceeds pair_cell_budget"):
        _dominance(default)
    monkeypatch.setattr(cli, "_build", lambda cfg: default)
    path = tmp_path / "conf.ini"
    path.write_text("[build]\npreset = desk\nstage_count = 3\nword_caps = 1 2\n")
    out = tmp_path / "x.json"
    commands = (["verify", "--suite", "biinvariance"], ["build", "--out", str(out)], ["dist", "x", "e"], ["norm", "x"])
    for argv in commands:
        assert main([*argv, "--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: rank-0 closure space 4299^2 exceeds pair_cell_budget\n")
    assert not out.exists()


def test_rank_word_cap_two_exits_2(tmp_path, capsys):
    """Rank at word caps (1, 2) has 2117 stage-3 words; their members space
    exceeds the default pair-cell budget, so the stage is refused (exit 2)."""
    path = tmp_path / "conf.ini"
    path.write_text("[build]\npreset = rank\nword_caps = 1 2\n")
    assert main(["norm", "x", "--config", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: stage-3 metric members space 2117^2 exceeds pair_cell_budget\n"


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
    tri, _, dominance = check_biinvariance(fitted, fitted.stage(3)).reports
    assert tri.ok and tri.attempted == 15**3
    assert dominance.vacuous and dominance.meta["proof"] == "metric_ext docstring: expansion 1"
    path = tmp_path / "conf.ini"
    path.write_text(
        "[build]\npreset = desk\nstage_count = 3\nambient_expansion = 1\npair_cell_budget = 224\n"
    )
    assert main(["norm", "x", "--config", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pair_cell_budget" in err
