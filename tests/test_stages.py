"""Tower construction: sizes, chain monotonicity, bookkeeping, determinism."""

from dataclasses import FrozenInstanceError, replace
from fractions import Fraction as F
from itertools import product

import pytest

from freebanach import Config, Universe, UNIT_ID, BudgetExceededError, stages
from freebanach.scalars import Dyadic
from freebanach.norm_ext import scalar_shift
from freebanach.stages import ConfigError, NotBuiltError, off_grid_cells
from freebanach.terms import ComboTerm, TermStore
from freebanach.universal import check_morphism_bound, check_operation_preservation, sigma_table
from freebanach.verify import check_biinvariance, check_condition_1, check_conditions, check_suites, perturbed


def test_stage1_construction_exact():
    u = Universe(Config.exact_x2(stage_count=1)).build()
    s1 = u.stage(1)
    assert len(s1.members) == 3  # e, x, x^-1
    assert s1.members[0] == UNIT_ID
    assert set(s1.generators) == {u.x_id}


def test_stage1_cap2():
    cfg = Config(stage_count=1, word_caps=(2,))
    u = Universe(cfg).build()
    assert len(u.stage(1).members) == 5  # e, x, x^-1, xx, x^-1 x^-1


def test_stage2_sizes():
    assert len(Universe(Config.exact_x2()).build().stage(2).members) == 81
    assert len(Universe(Config.rank(stage_count=2)).build().stage(2).members) == 25
    assert len(Universe(Config.desk(stage_count=2)).build().stage(2).members) == 9


def test_budget_error():
    cfg = Config(stage_count=3, member_budget=10)
    with pytest.raises(BudgetExceededError):
        Universe(cfg).build()


def test_membership_examples(exact_universe):
    u = exact_universe
    x = u.x_id
    assert x in u.stage(1).member_set
    assert UNIT_ID in u.stage(0).member_set
    store = u.store
    g = store.lookup(store.lin_combine([(Dyadic(1, 1), x), (Dyadic(1, 1), store.intern(store.group_inv(x)))]))
    assert g not in u.stage(1).member_set
    assert g in u.stage(2).member_set
    with pytest.raises(NotBuiltError):
        u.stage(7)


def test_norm_of_diff_is_the_member_difference_norm(exact_universe, rank_universe, desk_universe):
    """On every ordered pair of previous-stage members, ``norm_of_diff`` is
    the table value of the interned a - b when that id is a member of the
    queried vector stage, and None otherwise.  Desk stage 2 queried on
    stage-3 pairs meets differences interned (stage-4 members) outside it."""
    cases = [(exact_universe, 2, 1), (rank_universe, 2, 1), (desk_universe, 4, 3), (desk_universe, 2, 3)]
    outside = 0
    for u, n, p in cases:
        stage = u.stage(n)
        for a, b in product(u.stage(p).members, repeat=2):
            diff = u.store.combine_id(a, b)
            got = u.norm_of_diff(stage, a, b)
            if diff in stage.member_set:
                assert got == stage.table[diff]
            else:
                assert got is None
                outside += diff is not None
    assert outside > 0


def test_chain_monotone(desk_universe):
    stages = desk_universe.stages
    for prev, cur in zip(stages, stages[1:]):
        assert prev.member_set <= cur.member_set


def test_bookkeeping_identities(desk_universe):
    u = desk_universe
    # S_{2n+1} \ S_{2n-1} = X_{2n} \ X_{2n-1}, element for element
    s1, s3 = u.stage(1), u.stage(3)
    assert set(s3.generators) - set(s1.generators) == u.stage(2).member_set - s1.member_set
    # B_{2n+2} \ B_{2n} = X_{2n+1} \ X_{2n}
    s2, s4 = u.stage(2), u.stage(4)
    assert set(s4.basis) - set(s2.basis) == u.stage(3).member_set - s2.member_set


def test_rank_bounded_by_stage(rank_universe):
    """The rank recursion descends stages, so rank <= stage index."""
    u = rank_universe
    for stage in u.stages:
        for m in stage.members:
            assert 0 <= u.store.rank(m) <= stage.index


def test_run_suite_budget_error_no_partial_report():
    from freebanach.verify import check_suites

    with pytest.raises(BudgetExceededError):
        check_suites(Universe(Config(stage_count=3, member_budget=10)).build())


def test_rank_positive_implies_prev_stage(rank_universe):
    """Positive-rank members of a word stage: the element or its inverse
    lies in the previous vector stage."""
    u = rank_universe
    s3, s2 = u.stage(3), u.stage(2)
    found = 0
    for m in s3.members:
        if u.store.rank(m) > 0:
            found += 1
            inv = u.store.lookup(u.store.group_inv(m))
            assert m in s2.member_set or (inv is not None and inv in s2.member_set)
    assert found >= 2  # the half-sum combination and its inverse


def test_determinism_two_builds():
    cfg = Config.desk(stage_count=3)
    u1 = Universe(cfg).build()
    u2 = Universe(cfg).build()
    for a, b in zip(u1.stages, u2.stages):
        assert a.members == b.members
        assert a.table == b.table
        assert a.generators == b.generators
        assert a.basis == b.basis


def test_scalar_set_validation():
    """One invalid config per ``Config.validate`` message.  Scalars compare
    by value: 1/2 written as 2/4 is a repeat, and 2/4 is the negation of
    -1/2."""
    half = Dyadic(1, 1)
    desk = (Dyadic(-1), Dyadic(0), Dyadic(1))
    for fields, message in [
        ({"stage_count": 0}, "stage_count must be >= 1"),
        ({"ambient_expansion": 0}, "ambient_expansion must be >= 1"),
        ({"member_budget": 0}, "member_budget must be >= 1"),
        ({"pair_cell_budget": 0}, "pair_cell_budget must be >= 1"),
        ({"word_caps": (0,)}, "word caps must be >= 1"),
        ({"word_caps": (2, 1)}, r"word caps must be non-decreasing \(chain"),
        ({"scalar_sets": ((*desk, -half, half, Dyadic(2, 2)),)}, "must not repeat a value"),
        ({"scalar_sets": ((Dyadic(0), Dyadic(1)),)}, "must contain 0, 1 and -1"),
        ({"scalar_sets": ((Dyadic(-1), Dyadic(1)),)}, "must contain 0, 1 and -1"),
        ({"scalar_sets": ((*desk, half),)}, "symmetric under negation"),
        ({"scalar_sets": ((*desk, -half, half), desk)}, r"scalar sets must be non-decreasing \(chain"),
    ]:
        with pytest.raises(ConfigError, match=message):
            Config(**fields).validate()
    Config(scalar_sets=(desk, (*desk, -half, Dyadic(2, 2)))).validate()


@pytest.mark.parametrize("preset", ["exact", "rank", "desk", "uneven"])
def test_vector_stage_is_its_digit_grid(preset, request):
    """On every vector stage, row k of ``coordinates`` is the digits of k
    over the sorted scalars (last axis fastest), scaled by 2^shift; it is
    member k's ``vector_ints``; row n - 1 - k is its negative, and the unit
    is the centre cell."""
    u = request.getfixturevalue(f"{preset}_universe")
    for stage in (s for s in u.stages if s.kind == "vector"):
        shift, dim = scalar_shift(stage), len(stage.basis)
        numerators = [d.as_fraction() * 2**shift for d in stage.scalar_set]
        rows = stage.coordinates(shift)
        n = len(stage.members)
        assert rows.shape == (n, dim) == (len(numerators) ** dim, dim)
        basis_pos = {b: i for i, b in enumerate(stage.basis)}
        for k, m in enumerate(stage.members):
            digits = [k // len(numerators) ** (dim - 1 - i) % len(numerators) for i in range(dim)]
            row = tuple(rows[k])
            assert row == tuple(numerators[d] for d in digits)
            assert row == u.store.vector_ints(m, basis_pos, dim, shift)
            assert tuple(rows[n - 1 - k]) == tuple(-x for x in row)
        assert stage.members[(n - 1) // 2] == UNIT_ID
        assert off_grid_cells(u.store, stage) == []


def test_vector_stage_collapses_contain_previous(desk_universe):
    """The coefficient enumeration reproduces e and the basis elements."""
    s2 = desk_universe.stage(2)
    assert UNIT_ID in s2.member_set
    for b in s2.basis:
        assert b in s2.member_set


def test_empty_basis_degenerate():
    u = Universe(Config.desk(stage_count=1)).build()
    s0 = u.stages[0]
    assert s0.members == (UNIT_ID,)
    assert s0.kind == "vector"
    assert s0.table[UNIT_ID] == 0


def _grid_by_members(store, basis, scalars):
    """The per-member path ``TermStore.intern_grid`` replaced: one
    ``combo_from_map`` and one checked ``intern`` per cell."""
    return [store.intern(store.combo_from_map(dict(zip(basis, coeffs))))
            for coeffs in product(scalars, repeat=len(basis))]


def _words_by_reduction(store, words):
    """The path ``TermStore.intern_words`` replaced: each word folded again
    by ``reduce_word``."""
    return [store.intern(store.reduce_word(w)) for w in words]


ENUMERATION_CONFIGS = {
    "desk": Config.desk(),
    "rank": Config.rank(),
    "exact": Config.exact_x2(),
    "uneven": Config(stage_count=2, scalar_sets=(tuple(map(Dyadic.parse, "-4 -1 -1/4 0 1/4 1 4".split())),)),
    "exact-cap-100": replace(Config.exact_x2(), stage_count=1, word_caps=(100,)),
}


@pytest.mark.parametrize("name", sorted(ENUMERATION_CONFIGS))
def test_enumeration_matches_per_member_reference(name, monkeypatch):
    """The shared-pair grid and the words interned as ``WordSpace`` yields
    them give the member ids, the terms and the store size of the
    per-member reference paths."""
    cfg = ENUMERATION_CONFIGS[name]
    new = Universe(cfg).build()
    monkeypatch.setattr(TermStore, "intern_grid", _grid_by_members)
    monkeypatch.setattr(TermStore, "intern_words", _words_by_reduction)
    old = Universe(cfg).build()
    assert [s.members for s in new.stages] == [s.members for s in old.stages]
    assert len(new.store) == len(old.store)
    assert [new.store.term(i) for i in range(len(new.store))] == [old.store.term(i) for i in range(len(old.store))]


def test_grid_shares_one_pair_per_axis_and_scalar(desk_universe):
    """Desk stage 4's 6561 members hold about 35 000 coefficients, but no
    more distinct pair objects than dim x radix: one per axis and scalar
    (and stage 2's, for the members the two stages share)."""
    stage, store = desk_universe.stage(4), desk_universe.store
    terms = [store.term(m) for m in stage.members]
    pairs = {id(p) for t in terms if isinstance(t, ComboTerm) for p in t.coeffs}
    assert len(pairs) <= len(stage.basis) * len(stage.scalar_set) == 24


@pytest.mark.parametrize("preset", [Config.exact_x2, Config.rank], ids=["exact-x2", "rank"])
def test_one_integer_view_per_stage(preset, monkeypatch):
    """Every section of ``check_suites``, then bi-invariance per word stage
    and the three universal calls per target, read the stages' integer
    views many times and build each once."""
    u = Universe(preset()).build()
    built = []
    monkeypatch.setattr(stages, "_integer_view",
                        lambda stage, view=stages._integer_view: built.append(stage.index) or view(stage))
    assert check_suites(u).ok
    for stage in u.stages:
        if stage.kind == "word":
            check_biinvariance(u, stage)
    for target in u.cfg.targets:
        check_morphism_bound(u, target)
        sigma_table(u, target)
        check_operation_preservation(u, target)
    assert sorted(built) == [stage.index for stage in u.stages]


def test_a_perturbed_stage_reads_its_own_view(exact_universe):
    """A view read before ``perturbed`` stays the original's: condition 1
    fails on the clone, whose stage derives its own view, and still passes
    on the original."""
    u, s1 = exact_universe, exact_universe.stage(1)
    s1.scaled_table()
    key = s1.cells()[0]
    bad = perturbed(u, 1, key, -s1.table[key])
    [clone] = [r for r in check_condition_1(bad) if r.suite == "condition 1 stage 1"]
    [original] = [r for r in check_condition_1(u) if r.suite == "condition 1 stage 1"]
    assert not clone.ok and clone.counterexamples[0]["pair"] == key
    assert original.ok


def test_a_built_table_is_read_only():
    """An in-place write into a built table raises, so no view read before
    it can go stale and pass a changed table; ``perturbed`` still makes a
    clone that fails."""
    u = Universe(Config.exact_x2()).build()
    assert check_conditions(u).ok
    s2, member = u.stage(2), u.stage(2).members[1]
    with pytest.raises(TypeError):
        s2.table[member] = F(0)
    assert s2.table[member] > 0 and check_conditions(u).ok
    assert not check_conditions(perturbed(u, 2, member, -s2.table[member])).ok


def test_a_built_stage_cannot_change(exact_universe):
    """A stage's table cannot be rebound, nor its integer view written."""
    for stage in exact_universe.stages:
        ints, _ = stage.scaled_table()
        with pytest.raises(ValueError, match="read-only"):
            ints[(0,) * ints.ndim] = 1
        with pytest.raises(FrozenInstanceError):
            stage.table = {}
