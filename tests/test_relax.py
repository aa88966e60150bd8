"""The relaxation engine: spec examples, invariants, and oracle equality."""

import copy
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freebanach import Universe, relax
from freebanach.metric_ext import delta_rank0_closure
from freebanach.relax import (
    _INT_INF,
    ConstraintSystem,
    Equality,
    FractionRules,
    LatticeSystem,
    NonConvergenceError,
    PairComposition,
    RelaxError,
    ScaleInexactError,
    ScaleOverflowError,
    UpperCombo,
    brute_force_oracle,
    relax_fixpoint,
    to_scaled,
)
from freebanach.oracles import check_relax_oracle, random_micro_system
from freebanach.terms import WordSpace


def test_no_rules_returns_bounds():
    sys_ = ConstraintSystem(indices=("a", "b"), bounds={"a": F(3), "b": F(1)}, rules=[])
    out = relax_fixpoint(sys_)
    assert out.values == {"a": F(3), "b": F(1)}
    assert out.sweeps == 1


def test_single_relaxation():
    sys_ = ConstraintSystem(
        indices=("a", "b"),
        bounds={"a": F(3), "b": F(1)},
        rules=[UpperCombo("a", ((F(1), "b"), (F(1), "b")))],
    )
    out = relax_fixpoint(sys_)
    assert out["a"] == F(2)
    assert out["b"] == F(1)


def test_rho1_system_is_stable():
    """The base-case metric values satisfy the triangle-splitting rules
    unchanged."""
    pairs = ("xe", "ie", "xi")
    bounds = {"xe": F(1), "ie": F(1), "xi": F(2)}
    rules = [
        Equality("xe", "ie"),
        UpperCombo("xi", ((F(1), "xe"), (F(1), "ie"))),
        UpperCombo("xe", ((F(1), "xi"), (F(1), "ie"))),
        UpperCombo("ie", ((F(1), "xi"), (F(1), "xe"))),
    ]
    out = relax_fixpoint(ConstraintSystem(indices=pairs, bounds=bounds, rules=rules))
    assert out.values == bounds


def test_unconstrained_index_reported():
    sys_ = ConstraintSystem(indices=("a", "b"), bounds={"a": F(1), "b": None}, rules=[])
    out = relax_fixpoint(sys_)
    assert out.unconstrained == ("b",)


def test_infinite_bound_flows_through_rules():
    sys_ = ConstraintSystem(
        indices=("a", "b", "c"),
        bounds={"a": None, "b": F(2), "c": None},
        rules=[
            Equality("a", "b"),
            UpperCombo("c", ((F(1, 2), "a"),)),
        ],
    )
    out = relax_fixpoint(sys_)
    assert out["a"] == F(2)
    assert out["c"] == F(1)
    assert out.unconstrained == ()


def test_nonconvergence_is_hard_error():
    # contractive two-cycle: the greatest fixpoint (zero) is approached but
    # never reached by sweeping, so the cap must fire
    sys_ = ConstraintSystem(
        indices=("a", "b"),
        bounds={"a": F(1), "b": F(1)},
        rules=[
            UpperCombo("a", ((F(1, 2), "b"),)),
            UpperCombo("b", ((F(1, 2), "a"),)),
        ],
    )
    with pytest.raises(NonConvergenceError):
        relax_fixpoint(sys_, sweep_cap=50)


def test_oracle_depths():
    sys_ = ConstraintSystem(
        indices=("a", "b"),
        bounds={"a": F(3), "b": F(1)},
        rules=[UpperCombo("a", ((F(2), "b"),))],
    )
    assert brute_force_oracle(sys_, 0) == {"a": F(3), "b": F(1)}
    assert brute_force_oracle(sys_, 1) == {"a": F(2), "b": F(1)}


def test_oracle_budget_refuses():
    """The budget counts the recursion's calls: on a chain of 4 rules at
    depth 4, index i reaches down its chain in i + 1 calls, 15 in all."""
    sys_ = ConstraintSystem(
        indices=tuple(range(5)),
        bounds={0: F(1)},
        rules=[UpperCombo(i + 1, ((F(1), i),)) for i in range(4)],
    )
    assert brute_force_oracle(sys_, 4, budget=15) == {i: F(1) for i in range(5)}
    with pytest.raises(RelaxError, match="budget 14 exceeded"):
        brute_force_oracle(sys_, 4, budget=14)


def test_oracle_non_dyadic_values_by_hand():
    """Thirds in the coefficients and fifths and sevenths in the bounds, so
    the integer scale is no power of 2; every value is checked against one
    worked out by hand, and each is a ``Fraction``."""
    sys_ = ConstraintSystem(
        indices=("a", "b", "c", "z", "t"),
        bounds={"a": F(2, 5), "b": F(1, 7), "c": None, "z": None, "t": None},
        rules=[
            UpperCombo("c", ((F(1, 3), "a"), (F(2, 3), "b"))),
            UpperCombo("a", ((F(2, 3), "c"),)),
            UpperCombo("b", ((F(1, 3), "a"),)),
            UpperCombo("z", ((F(0), "a"), (F(0), "c"))),  # all zero: 0, whatever the sources
            UpperCombo("t", ((F(0), "c"), (F(1, 3), "b"))),  # a zero term reads nothing
        ],
    )
    # depth 1: c = 2/15 + 2/21, b = min(1/7, 2/15); a's rule reads c, still +inf
    # depth 2: c = 2/15 + 4/45, a = 2/3 * 8/35, b = min(1/7, 1/3 * 2/5)
    # depth 3: c = 16/315 + 4/45, a = 2/3 * 2/9, b = 1/3 * 16/105
    want = [
        {"a": F(2, 5), "b": F(1, 7)},
        {"a": F(2, 5), "b": F(2, 15), "c": F(8, 35), "z": F(0), "t": F(1, 21)},
        {"a": F(16, 105), "b": F(2, 15), "c": F(2, 9), "z": F(0), "t": F(2, 45)},
        {"a": F(4, 27), "b": F(16, 315), "c": F(44, 315), "z": F(0), "t": F(2, 45)},
    ]
    for depth, values in enumerate(want):
        got = brute_force_oracle(sys_, depth)
        assert got == values, depth
        assert all(type(v) is F for v in got.values())


def test_oracle_equality_only_system():
    """Equalities alone carry the least bound across a chain, one link per
    depth."""
    sys_ = ConstraintSystem(
        indices=("p", "q", "r"),
        bounds={"p": F(2, 5), "q": None, "r": F(1, 7)},
        rules=[Equality("p", "q"), Equality("q", "r")],
    )
    assert brute_force_oracle(sys_, 0) == {"p": F(2, 5), "r": F(1, 7)}
    assert brute_force_oracle(sys_, 1) == {"p": F(2, 5), "q": F(1, 7), "r": F(1, 7)}
    for depth in (2, 3):
        assert brute_force_oracle(sys_, depth) == {"p": F(1, 7), "q": F(1, 7), "r": F(1, 7)}


def test_sweep_count_is_first_stable_depth():
    """Both engines compute the same iterate: sweep k's table is the
    depth-k brute force, f_k = min(f_(k-1), R(f_(k-1))) = min(bounds,
    R(b_(k-1))) = b_k since R is monotone and b_(k-1) <= b_(k-2).  So the
    sweep count is the first depth k >= 1 whose table equals depth k - 1's."""
    for seed in range(5):
        rng = random.Random(seed)
        for _ in range(100):
            sys_ = random_micro_system(rng)
            out = relax_fixpoint(sys_)
            k, last = 1, brute_force_oracle(sys_, 0)
            while (now := brute_force_oracle(sys_, k)) != last:
                k, last = k + 1, now
            assert (out.sweeps, out.values) == (k, now)


def test_relax_oracle_sweep_and_rule_totals():
    """The seed-0 systems of ``check_relax_oracle`` (the benchmark's traced
    ``relax.relax_fixpoint`` rows): 361 sweeps over 4827 rules."""
    rng = random.Random(0)
    systems = [random_micro_system(rng) for _ in range(100)]
    assert sum(relax_fixpoint(s).sweeps for s in systems) == 361
    assert sum(len(s.rules) for s in systems) == 4827


def _sweep_trace(sys_):
    """Re-implements one Jacobi sweep to observe monotonicity from outside."""
    f = {i: v for i, v in sys_.bounds.items() if v is not None}
    traces = [dict(f)]
    for _ in range(60):
        snapshot = dict(f)
        for rule in sys_.rules:
            if isinstance(rule, Equality):
                for tgt, src in ((rule.left, rule.right), (rule.right, rule.left)):
                    v = snapshot.get(src)
                    if v is not None and (tgt not in f or v < f[tgt]):
                        f[tgt] = v
            else:
                total = F(0)
                ok = True
                for c, j in rule.terms:
                    v = snapshot.get(j)
                    if v is None:
                        ok = False
                        break
                    total += c * v
                if ok and (rule.target not in f or total < f[rule.target]):
                    f[rule.target] = total
        if f == snapshot:
            break
        traces.append(dict(f))
    return traces


def test_sweeps_monotone_and_idempotent():
    rng = random.Random(11)
    for _ in range(20):
        sys_ = random_micro_system(rng, max_indices=15)
        traces = _sweep_trace(sys_)
        for earlier, later in zip(traces, traces[1:]):
            for k, v in earlier.items():
                assert later[k] <= v
        out = relax_fixpoint(sys_)
        again = relax_fixpoint(
            ConstraintSystem(
                indices=sys_.indices,
                bounds={i: out.values.get(i) for i in sys_.indices},
                rules=sys_.rules,
            )
        )
        assert again.values == out.values


def test_soundness_every_rule_satisfied():
    rng = random.Random(5)
    for _ in range(30):
        sys_ = random_micro_system(rng, max_indices=20)
        out = relax_fixpoint(sys_)
        f = out.values
        for rule in sys_.rules:
            if isinstance(rule, Equality):
                assert f.get(rule.left) == f.get(rule.right)
            else:
                if rule.target not in f:
                    continue
                total = F(0)
                ok = True
                for c, j in rule.terms:
                    if j not in f:
                        ok = False
                        break
                    total += c * f[j]
                if ok:
                    assert f[rule.target] <= total


def test_order_independence():
    rng = random.Random(23)
    for _ in range(20):
        sys_ = random_micro_system(rng, max_indices=20)
        out1 = relax_fixpoint(sys_)
        shuffled = list(sys_.rules)
        rng.shuffle(shuffled)
        out2 = relax_fixpoint(
            ConstraintSystem(indices=sys_.indices, bounds=dict(sys_.bounds), rules=shuffled)
        )
        assert out1.values == out2.values


def test_maximality_vs_oracle_100_systems():
    line, ok = check_relax_oracle(count=100, seed=0, depth=8)
    assert ok, line


@st.composite
def pair_systems(draw):
    """A small word space with dyadic seeds, generators drawn from the
    seeded cells (a generator at +inf composes nothing), optionally the
    inverse map, at most one convex instance and a triangle word set."""
    letters, max_len = draw(st.sampled_from([(1, 2), (1, 3), (2, 1), (2, 2)]))
    space = WordSpace([(1, 1), (1, -1), (2, 1), (2, -1)][: 2 * letters], max_len)
    cell = st.tuples(st.integers(0, len(space) - 1), st.integers(0, len(space) - 1))
    dyadic = st.builds(lambda k, j: F(k, 2**j), st.integers(0, 8), st.integers(0, 2))
    seeds = draw(st.lists(st.tuples(cell, dyadic), min_size=3, max_size=16))
    if draw(st.booleans()):
        seeds += [((i, i), F(0)) for i in range(len(space))]
    seeded = st.sampled_from([c for c, _ in seeds])
    generators = draw(st.lists(seeded, min_size=1, max_size=6))
    inverse = draw(st.booleans())
    convex = []
    if draw(st.booleans()):
        c = draw(st.sampled_from([F(1, 2), F(1, 4)]))
        convex.append((draw(cell), ((c, draw(seeded)), (1 - c, draw(seeded)))))
    triangle = draw(st.lists(st.integers(0, len(space) - 1), max_size=6, unique=True))
    return space, seeds, generators, inverse, convex, triangle


@st.composite
def shared_pair_systems(draw):
    """``pair_systems`` plus every generator (w, z) of a few words w and a
    few z's, so that words share a z-set and compose in one block, often
    with some of their (w, z) at +inf."""
    space, seeds, generators, inverse, convex, triangle = draw(pair_systems())
    word = st.integers(0, len(space) - 1)
    ws = draw(st.lists(word, min_size=2, max_size=4, unique=True))
    zs = draw(st.lists(word, min_size=1, max_size=3, unique=True))
    return space, seeds, generators + [(w, z) for w in ws for z in zs], inverse, convex, triangle


def _product_table(space):
    """prod[u, w]: the index of the reduced product u.w, or -1, assembled
    from the engine's product lines (row w of ``prod`` is w's left line)."""
    lines = [space.product_lines(w) for w in range(len(space))]
    prod = np.column_stack([right for right, _ in lines])
    assert (prod == np.vstack([left for _, left in lines])).all()
    return prod


def _explicit_pair_system(space, seeds, generators, inverse, convex, triangle=()):
    """The rules PairComposition closes under, written out one instance per
    cell for ``relax_fixpoint``."""
    n = len(space)
    prod, inv = _product_table(space), space.inverse_map()
    cells = [(u, v) for u in range(n) for v in range(n)]
    bounds = dict.fromkeys(cells)
    for c, val in seeds:
        if bounds[c] is None or val < bounds[c]:
            bounds[c] = val
    one = F(1)
    rules = []
    for w, z in generators:
        for u, v in cells:
            if prod[u, w] >= 0 and prod[v, z] >= 0:
                rules.append(UpperCombo((int(prod[u, w]), int(prod[v, z])), ((one, (u, v)), (one, (w, z)))))
            if prod[w, u] >= 0 and prod[z, v] >= 0:
                rules.append(UpperCombo((int(prod[w, u]), int(prod[z, v])), ((one, (w, z)), (one, (u, v)))))
    if inverse:
        rules += [Equality((u, v), (int(inv[u]), int(inv[v]))) for u, v in cells]
    rules += [UpperCombo(target, terms) for target, terms in convex]
    rules += [UpperCombo((a, b), ((one, (a, m)), (one, (m, b)))) for a in triangle for b in triangle for m in triangle]
    return ConstraintSystem(indices=tuple(cells), bounds=bounds, rules=rules)


def _pair_engine(space, seeds, generators, inverse, convex, triangle=()):
    engine = PairComposition(space, inverse)
    for (u, v), val in seeds:
        engine.seed(u, v, val)
    for gen in generators:
        engine.add_generator(*gen)
    for target, terms in convex:
        engine.add_convex(target, terms)
    engine.add_triangle(triangle)
    return engine


@given(pair_systems())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_pair_composition_matches_relax_fixpoint(system):
    """The block-sparse closure equals the explicit-rule fixpoint on every
    cell.  A convex instance can close a contracting cycle, whose fixpoint
    is only approached; then the engine must fail as the reference does."""
    _assert_matches_relax_fixpoint(system)


@given(shared_pair_systems())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_shared_z_sets_match_relax_fixpoint(system):
    """Words that share a z-set compose in one block per chunk, side and
    kind, each cell at its own (w, z)'s cost: the closure is still the
    explicit-rule fixpoint, or both fail."""
    _assert_matches_relax_fixpoint(system)


def _assert_matches_relax_fixpoint(system):
    engine = _pair_engine(*system)
    ref_system = _explicit_pair_system(*system)
    try:
        ref = relax_fixpoint(ref_system, sweep_cap=60)
    except NonConvergenceError:
        with pytest.raises(RelaxError):
            engine.solve(sweep_cap=60)
        return
    table, _ = engine.solve(sweep_cap=60)
    for cell in ref_system.indices:
        assert table.get(cell) == ref.values.get(cell), cell


def _unrestricted_solve(engine, sweep_cap):
    """The engine's sweep loop without source skipping: in every sweep each
    generator with a finite cost composes its whole right and left blocks,
    sources and costs read from the snapshot taken at the sweep's start, so
    a sweep does not depend on the generators' order.  Returns
    the table as {cell: Fraction} (+inf cells absent) and the sweep count;
    the scale grows fourfold while a value is not exact at it, and a value
    too large at it is refused at once, as in ``solve``."""
    denoms = [c.denominator for _, terms in engine.fraction_rules for c, _ in terms]
    scale = lcm(*(v.denominator for v in engine.seeds.values()), *denoms)
    for _ in range(6):
        try:
            return _unrestricted_sweeps(engine, scale, sweep_cap)
        except ScaleInexactError:
            scale *= 4
    raise ScaleInexactError("no workable scale")


def _unrestricted_sweeps(engine, scale, sweep_cap):
    n, inv, tri = engine.n, engine.inv, engine.triangle
    prod = _product_table(engine.space)
    D = np.full((n, n), _INT_INF, dtype=np.int64)
    for (u, v), val in engine.seeds.items():
        D[u, v] = min(D[u, v], to_scaled(val, scale))
    frac = FractionRules(scale)
    for target, terms in engine.fraction_rules:
        frac.add(target[0] * n + target[1], [(c, j[0] * n + j[1]) for c, j in terms])
    sweeps = 0
    while True:
        if sweeps > sweep_cap:
            raise NonConvergenceError(f"unstable after {sweeps - 1} sweeps")
        sweeps += 1
        before = D.copy()
        for w, z in engine.generators:
            g = before[w, z]
            if g >= _INT_INF:
                continue
            for line_w, line_z in ((prod[:, w], prod[:, z]), (prod[w], prod[z])):
                rows, cols = np.nonzero(line_w >= 0)[0], np.nonzero(line_z >= 0)[0]
                tgt = (line_w[rows][:, None], line_z[cols])
                D[tgt] = np.minimum(D[tgt], before[rows[:, None], cols] + g)
        if inv is not None:
            np.minimum(D, D[inv][:, inv], out=D)
        _per_pivot_triangle(D, tri)
        frac.apply(D.reshape(-1))
        if np.array_equal(D, before):
            break
    finite = zip(*np.nonzero(D < _INT_INF))
    return {(int(u), int(v)): F(int(D[u, v]), scale) for u, v in finite}, sweeps


def _per_pivot_triangle(D, tri):
    """The triangle family in place, one pivot m at a time over the finite
    entries of its column and row, so two +inf entries are never summed."""
    for m in tri:
        a, b = tri[D[tri, m] < _INT_INF], tri[D[m, tri] < _INT_INF]
        block = (a[:, None], b)
        D[block] = np.minimum(D[block], D[a, m][:, None] + D[m, b])


@given(pair_systems())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_source_skipping_keeps_every_sweep(system):
    """Composing only the sources that can still lower a target leaves the
    table of the unrestricted sweep loop after every sweep: equal tables,
    equal sweep counts, and the same error on the same draws (a contracting
    convex cycle runs out of sweeps, or of scale first)."""
    _assert_keeps_every_sweep(system)


@given(shared_pair_systems())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_source_skipping_keeps_every_sweep_on_shared_z_sets(system):
    """The same as the unrestricted loop where words share a z-set."""
    _assert_keeps_every_sweep(system)


def _assert_keeps_every_sweep(system):
    engine = _pair_engine(*system)
    try:
        want, want_sweeps = _unrestricted_solve(engine, sweep_cap=60)
    except RelaxError as err:
        with pytest.raises(type(err)):
            engine.solve(sweep_cap=60)
        return
    table, sweeps = engine.solve(sweep_cap=60)
    assert sweeps == want_sweeps
    n = len(system[0])
    got = {cell: table.get(cell) for cell in np.ndindex(n, n)}
    assert {cell: v for cell, v in got.items() if v is not None} == want


def test_a_dropped_cost_recomposes_unchanged_sources():
    """Words e, x, X, xx, XX.  The generator (x, e) composes the source
    (e, X) = 1 into (x, X) at its seeded cost 4, then a convex instance
    lowers the cost to 1.  No cell of row e changes, so only the finite
    cells, not the changed ones, bring the candidate 1 + 1 to (x, X)."""
    space = WordSpace([(1, 1), (1, -1)], 2)
    e, x, X, xx, XX = (space.idx(w) for w in ((), ((1, 1),), ((1, -1),), ((1, 1),) * 2, ((1, -1),) * 2))
    seeds = [((x, e), F(4)), ((e, X), F(1)), ((xx, XX), F(1)), ((XX, xx), F(1))]
    convex = [((x, e), ((F(1, 2), (xx, XX)), (F(1, 2), (XX, xx))))]
    system = (space, seeds, [(x, e)], False, convex)
    engine = _pair_engine(*system)
    table, sweeps = engine.solve()
    assert (table.get((x, e)), table.get((x, X))) == (F(1), F(2))
    want, want_sweeps = _unrestricted_solve(engine, 200)
    assert (want[x, X], want_sweeps) == (F(2), sweeps)
    assert relax_fixpoint(_explicit_pair_system(*system)).values[(x, X)] == F(2)


@pytest.mark.parametrize("zs", [("x", "e"), ("e", "x")])
def test_two_generators_of_one_word_share_a_target(zs):
    """Words e, x, X.  The generators (e, x) and (e, e) share the word e, so
    they compose in one block, and both send a candidate to (X, x):
    (X, e) + (e, x) = 1 + 1 and (X, x) + (e, e) = 5 + 0.  The lower one
    wins in either generator order, and the table is the explicit rules'."""
    space = WordSpace([(1, 1), (1, -1)], 1)
    e, x, X = (space.idx(w) for w in ((), ((1, 1),), ((1, -1),)))
    word = {"e": e, "x": x}
    seeds = [((e, x), F(1)), ((e, e), F(0)), ((X, e), F(1)), ((X, x), F(5))]
    system = (space, seeds, [(e, word[z]) for z in zs], False, [])
    table, _ = _pair_engine(*system).solve()
    assert table.get((X, x)) == F(2)
    ref = relax_fixpoint(_explicit_pair_system(*system))
    for cell in np.ndindex(len(space), len(space)):
        assert table.get(cell) == ref.values.get(cell), cell


def test_two_words_of_one_z_set_compose_both_kinds_in_one_chunk():
    """Words e, x, X, y, Y.  The generators (e, e), (e, x), (x, e) and
    (x, x) give the words e and x the one z-set {e, x}.  Convex instances
    lower (e, x) and (x, e) from 4 to 2 in the first sweep, so in the second
    e's cost at e and x's at x are unchanged while e's at x and x's at e are
    new: each kind's block holds both words, with half its (w, z) unpicked.
    An unpicked cell must compose nothing (as a cost of 0 it would bring
    (e, x) down to 0), and the table is the explicit rules'."""
    space = WordSpace([(1, 1), (1, -1), (2, 1), (2, -1)], 1)
    e, x, X, y, Y = (space.idx(w) for w in ((), ((1, 1),), ((1, -1),), ((2, 1),), ((2, -1),)))
    seeds = [((e, e), F(0)), ((x, x), F(0)), ((e, x), F(4)), ((x, e), F(4)),
             ((y, Y), F(2)), ((Y, y), F(2)), ((X, y), F(1)), ((y, X), F(1))]
    half = ((F(1, 2), (y, Y)), (F(1, 2), (Y, y)))
    system = (space, seeds, [(e, e), (e, x), (x, e), (x, x)], False, [((e, x), half), ((x, e), half)])
    engine = _pair_engine(*system)
    table, sweeps = engine.solve()
    ref = relax_fixpoint(_explicit_pair_system(*system))
    for cell in np.ndindex(len(space), len(space)):
        assert table.get(cell) == ref.values.get(cell), cell
    assert table.get((e, x)) == F(2)
    assert sweeps == _unrestricted_solve(engine, 200)[1]


def test_an_infinite_cost_in_a_shared_block_stays_infinite():
    """Words e, x, X.  The generators (e, e), (e, x), (x, e) and (x, x) give
    e and x the one z-set {e, x}, and (e, x) is never finite.  In the first
    sweep e's block against x holds the source (x, X), +inf though its row
    and column hold finite cells; +inf plus the +inf cost would wrap int64
    to a negative value.  No cell turns negative, (e, x) stays +inf, and
    the table is the explicit rules'."""
    space = WordSpace([(1, 1), (1, -1)], 1)
    e, x, X = (space.idx(w) for w in ((), ((1, 1),), ((1, -1),)))
    seeds = [((e, e), F(0)), ((x, x), F(0)), ((x, e), F(1)), ((e, X), F(1))]
    system = (space, seeds, [(e, e), (e, x), (x, e), (x, x)], False, [])
    table, _ = _pair_engine(*system).solve()
    assert (table._values >= 0).all()
    assert table.get((e, x)) is None
    ref = relax_fixpoint(_explicit_pair_system(*system))
    for cell in np.ndindex(len(space), len(space)):
        assert table.get(cell) == ref.values.get(cell), cell


def _solved(engine):
    table, sweeps = engine.solve(sweep_cap=60)
    return table._values.tolist(), sweeps, engine.entries


def _assert_chunks_change_nothing(system, cells):
    """With the chunk bound cut to ``cells``, the tables, sweep counts and
    entries equal the default's, or both runs fail alike."""
    try:
        want = _solved(_pair_engine(*system))
    except RelaxError as err:
        with pytest.MonkeyPatch.context() as mp, pytest.raises(type(err)):
            mp.setattr(relax, "_CHUNK_CELLS", cells)
            _solved(_pair_engine(*system))
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relax, "_CHUNK_CELLS", cells)
        assert _solved(_pair_engine(*system)) == want


@given(pair_systems())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_one_row_chunks_change_no_closure(system):
    """With the chunk bound cut to one cell, every chunk is one row of one
    word: the tables, sweep counts and entries equal the default's, or
    both runs fail alike."""
    _assert_chunks_change_nothing(system, 1)


@pytest.mark.parametrize("cells", [1, 5, 40])
@given(system=shared_pair_systems())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_chunk_bounds_change_no_shared_closure(cells, system):
    """Words that share a z-set, at chunk bounds that cut their blocks into
    one-row chunks (1), chunks of a few words or rows (5) and chunks of
    many words (40): the tables, sweep counts and entries do not move."""
    _assert_chunks_change_nothing(system, cells)


def test_one_row_chunks_keep_rank_closures(rank_universe, monkeypatch):
    """Rank's stage-3 rho (members space: one group of 47 words sharing a
    z-set) and its delta_0 certificate closure, rebuilt with one-row
    chunks: the same tables, sweeps and entries as at the default chunk
    bound.  The engine reads the bound when it solves: at the default, rho
    composes chunks of several words, and at one cell it composes none."""
    u = rank_universe
    want_delta = delta_rank0_closure(u, u.stage(3), u.stage(2), u.cfg)
    spread = relax._spread
    calls = []
    monkeypatch.setattr(relax, "_spread", lambda *args: calls.append(1) or spread(*args))
    Universe(u.cfg).build()
    assert calls
    calls.clear()
    monkeypatch.setattr(relax, "_CHUNK_CELLS", 1)
    rebuilt = Universe(u.cfg).build()
    assert not calls
    assert rebuilt.stage(3).table == u.stage(3).table
    notes = ("rho_mode", "rho_sweeps", "rho_entries")
    assert [rebuilt.stage(3).notes[k] for k in notes] == [u.stage(3).notes[k] for k in notes]
    assert delta_rank0_closure(rebuilt, rebuilt.stage(3), rebuilt.stage(2), u.cfg) == want_delta


def test_an_inexact_value_retries_at_a_larger_scale(monkeypatch):
    """Words e, x, X with seeds (e, x) = 1 and (e, X) = 2 and the convex
    instances (x, X) <= 1/2 (e, x) + 1/2 (e, X) = 3/2 and (X, x) <=
    1/2 (x, X) + 1/2 (e, x) = 5/4.  At the coefficients' scale 2, 5/4 is not
    whole, so the closure runs again at 8; the unrestricted loop agrees."""
    space = WordSpace([(1, 1), (1, -1)], 1)
    convex = [((1, 2), ((F(1, 2), (0, 1)), (F(1, 2), (0, 2)))), ((2, 1), ((F(1, 2), (1, 2)), (F(1, 2), (0, 1))))]
    engine = _pair_engine(space, [((0, 1), F(1)), ((0, 2), F(2))], [], False, convex)
    scales = []
    solve_scaled = PairComposition._solve_scaled
    monkeypatch.setattr(PairComposition, "_solve_scaled",
                        lambda self, scale, *args: scales.append(scale) or solve_scaled(self, scale, *args))
    table, _ = engine.solve()
    assert scales == [2, 8]
    assert (table.get((1, 2)), table.get((2, 1))) == (F(3, 2), F(5, 4))
    want, _ = _unrestricted_solve(engine, 200)
    assert (want[1, 2], want[2, 1]) == (F(3, 2), F(5, 4))


def test_lattice_system_is_a_name_only():
    """The coefficient-lattice engine is gone; the stub's ``solve`` refuses."""
    with pytest.raises(NotImplementedError):
        LatticeSystem().solve()


def test_fraction_rules_read_one_snapshot_per_pass():
    """A pass reads every source as it was when the pass began, even one an
    earlier rule of the same pass lowered, and skips a rule with a +inf
    source."""
    frac = FractionRules(1)
    frac.add(0, [(F(1, 2), 1)])
    frac.add(1, [(F(1, 2), 0)])
    frac.add(2, [(F(1), 0), (F(1), 3)])
    flat = np.array([8, 6, 100, _INT_INF], dtype=np.int64)
    assert frac.apply(flat)
    assert flat.tolist() == [3, 4, 100, _INT_INF]
    assert not frac.apply(np.array([0, 0, 0, _INT_INF], dtype=np.int64))


def test_solve_memory_is_quadratic_in_the_words():
    """A closure with a generator on every one of the 53^2 = 2809 word pairs
    of a 53-word space, the inverse mirror, a convex instance per word and
    the triangle family over every word: what ``solve`` allocates, the
    triangle pass's submatrix and buffer included, stays within 32 tables'
    worth (n^2 * 8 bytes each).  Broadcast index pairs kept per generator
    came to about 125 tables here; the convex pass reads only the cells its
    instances name."""
    space = WordSpace([(1, 1), (1, -1), (2, 1), (2, -1)], 3)
    n = len(space)
    engine = PairComposition(space, inverse=True)
    for u in range(n):
        engine.seed(u, u, F(0))
        engine.seed(0, u, F(len(space.words[u])))
        engine.seed(u, 0, F(len(space.words[u])))
    for u in range(n):
        for v in range(n):
            engine.add_generator(u, v)
    for u in range(1, n):
        engine.add_convex((u, 0), [(F(1, 2), (u, 1)), (F(1, 2), (u, 2))])
    engine.add_triangle(range(n))
    copy.deepcopy(engine).solve()  # numpy's lazily imported helpers load outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, sweeps = engine.solve()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sweeps >= 2 and len(engine.generators) == 2809
    assert peak < 32 * n * n * 8, peak


def test_triangle_family_keeps_infinite_pairs():
    """Words e, x, x^-1, y of a cap-1 space, seeded along e -> x -> x^-1 -> y
    and x -> y only, with the triangle family alone.  It closes the paths
    (x, y) = 1 + 3/2, (e, x^-1) = 2 and (e, y) = 7/2, and every pair against
    the seeded direction, such as (y, e), stays +inf: only finite entries of
    a pivot's column and row are summed, never two +inf entries (which
    would wrap int64 to a negative value)."""
    space = WordSpace([(1, 1), (1, -1), (2, 1), (2, -1)], 1)
    e, x, xi, y = 0, space.idx(((1, 1),)), space.idx(((1, -1),)), space.idx(((2, 1),))
    seeds = [((m, m), F(0)) for m in (e, x, xi, y)]
    seeds += [((e, x), F(1)), ((x, xi), F(1)), ((xi, y), F(3, 2)), ((x, y), F(5))]
    system = (space, seeds, [], False, [], [e, x, xi, y])
    table, _ = _pair_engine(*system).solve()
    ref = relax_fixpoint(_explicit_pair_system(*system))
    for cell in [(u, v) for u in range(len(space)) for v in range(len(space))]:
        assert table.get(cell) == ref.values.get(cell), cell
    assert (table.get((x, y)), table.get((e, xi)), table.get((e, y))) == (F(5, 2), F(2), F(7, 2))
    assert table.get((y, e)) is None and table.get((xi, x)) is None
    assert len(ref.values) == 4 + 6


def test_pair_composition_rejects_non_injective_products():
    """Two sources with one product is no free group's multiplication: the
    forged product lines are refused, not solved, whether or not the
    repeated targets are adjacent.  A line of -1 alone (no product stays in
    the space) is an empty map, and the closure solves."""

    def engine_over(line):
        class ForgedSpace(WordSpace):
            def product_lines(self, w):
                forged = np.array(line, dtype=np.intp)
                return forged, forged

        engine = PairComposition(ForgedSpace([(1, 1)], 1))
        engine.seed(0, 0, F(1))
        engine.add_generator(0, 0)
        return engine

    for line in ([0, 0, -1], [1, 0, 1]):
        with pytest.raises(RelaxError, match="not injective"):
            engine_over(line).solve()
    engine = engine_over([-1, -1, -1])
    table, _ = engine.solve()
    assert table.get((0, 0)) == F(1) and engine.entries == 0


def test_a_rank_build_and_check_import_no_numpy_ma():
    """A fresh process that builds rank and runs every check never imports
    ``numpy.ma``: its first import costs about 13 ms, and ``np.unique``
    triggers it."""
    src = os.path.dirname(os.path.dirname(relax.__file__))
    code = ("import sys\n"
            "from freebanach import Config, Universe\n"
            "from freebanach.verify import check_suites\n"
            "assert check_suites(Universe(Config.rank()).build()).ok\n"
            "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@st.composite
def triangle_matrices(draw):
    """An int64 matrix of up to 8 x 8 words, about 30 % +inf, finite
    entries small (many ties) or up to 2^59, so that a path of 7 edges
    stays below the clip; and a pivot order over some of the words."""
    n = draw(st.integers(1, 8))
    high = draw(st.sampled_from([20, 1 << 59]))
    cells = st.tuples(st.integers(0, 9), st.integers(0, high))
    D = np.array([_INT_INF if k < 3 else v for k, v in draw(st.lists(cells, min_size=n * n, max_size=n * n))],
                 dtype=np.int64).reshape(n, n)
    order = draw(st.permutations(range(n)))
    tri = np.array(order[: draw(st.integers(1, n))], dtype=np.intp)
    return D, tri


@given(triangle_matrices())
@example((np.array([[0, _INT_INF, 5], [_INT_INF, _INT_INF, _INT_INF], [7, _INT_INF, 0]], dtype=np.int64),
          np.array([1, 0, 2], dtype=np.intp)))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_dense_triangle_pass_matches_per_pivot_loop(case):
    """The dense pass (clip, one buffer, reset) leaves the matrix of the
    per-pivot loop over finite entries, cell for cell, also where a pivot's
    column and row are both +inf (the example: pivot 1)."""
    D, tri = case
    want = D.copy()
    _per_pivot_triangle(want, tri)
    relax._triangle_pass(D, tri, np.empty((tri.size, tri.size), dtype=np.int64))
    assert (D == want).all()


def test_dense_triangle_pass_refuses_values_that_reach_the_clip():
    """Over three words a path has two edges, so finite entries up to
    (2^62 - 2) / 2 are exact (their sums are written as the per-pivot loop
    writes them), and one entry of 2^61 or a negative entry is refused
    rather than read as +inf."""
    top = (relax._CLIP - 1) // 2
    seeded = np.array([[0, top, _INT_INF], [_INT_INF, 0, top], [_INT_INF, _INT_INF, 0]], dtype=np.int64)
    tri, buf = np.arange(3), np.empty((3, 3), dtype=np.int64)
    D, want = seeded.copy(), seeded.copy()
    _per_pivot_triangle(want, tri)
    relax._triangle_pass(D, tri, buf)
    assert (D == want).all() and D[0, 2] == 2 * top
    for value in (top + 1, -1):
        D = seeded.copy()
        D[0, 1] = value
        with pytest.raises(ScaleOverflowError, match="triangle pass over 3 words"):
            relax._triangle_pass(D, tri, buf)
        assert D[0, 1] == value and D[0, 2] == _INT_INF  # refused before any write
