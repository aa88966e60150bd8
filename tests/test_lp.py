"""Exact molecule program: values, certificates, and the enumeration oracle."""

import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freebanach import lp as lp_module
from freebanach.lp import (
    Certifier,
    InexactDivision,
    InfeasibleLP,
    MoleculeLP,
    _matmul,
    _pivot,
    basic_solution_oracle,
    basic_solution_values,
    hadamard_bound,
)
from freebanach.oracles import check_lp_oracle, random_lp_instances

STAGE1_MOLECULES = [(F(1), F(0)), (F(0), F(1)), (F(1), F(-1))]
STAGE1_COSTS = [F(1), F(1), F(2)]


def values_of(lp, targets):
    """``lp.solve_many(targets)`` as (value, basis index) per target, each
    value the Fraction of its integer numerator and denominator."""
    nums, dens, index = lp.solve_many(targets)
    return [(F(n, d), k) for n, d, k in zip(nums, dens, index)]


def test_stage1_molecule_values():
    lp = MoleculeLP(STAGE1_MOLECULES, STAGE1_COSTS)
    assert lp.solve_full((F(1), F(0))) == 1          # gamma(x - e)
    assert lp.solve_full((F(1, 2), F(-1, 2))) == 1   # half of x - x^-1
    assert lp.solve_full((F(1), F(-1))) == 2
    assert lp.solve_full((F(0), F(0))) == 0
    assert lp.solve_full((F(2), F(2))) == 4


def test_certificates():
    lp = MoleculeLP(STAGE1_MOLECULES, STAGE1_COSTS)
    check = Certifier(STAGE1_MOLECULES, STAGE1_COSTS)
    targets = [(F(1), F(0)), (F(3, 2), F(-1, 2)), (F(-2), F(1))]
    for target, (v, k) in zip(targets, values_of(lp, targets)):
        value, beta, dual = lp.certificate(k, target)
        assert value == v
        assert check.dual_feasible(dual) and check.certifies(target, value, beta, dual)
        # a corrupted value must not verify
        assert not check.certifies(target, value + 1, beta, dual)


def test_infeasible_target():
    mols = [(F(1), F(0), F(1)), (F(0), F(1), F(1))]
    lp = MoleculeLP(mols, [F(1), F(3)])
    assert lp.solve_full((F(2), F(1), F(3))) == 5
    with pytest.raises(InfeasibleLP):
        lp.solve_full((F(1), F(0), F(0)))
    assert basic_solution_oracle(mols, [F(1), F(3)], (F(1), F(0), F(0))) is None


def test_warm_restart_many_targets():
    rng = random.Random(3)
    mols = [tuple(F(rng.randint(-2, 2)) for _ in range(3)) for _ in range(10)]
    mols = [m for m in mols if any(m)]
    costs = [F(rng.randint(1, 5)) for _ in mols]
    lp = MoleculeLP(mols, costs)
    targets = [tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(3)) for _ in range(60)]
    for t, want in zip(targets, basic_solution_values(mols, costs, targets)):
        try:
            got = lp.solve_full(t)
        except InfeasibleLP:
            got = None
        assert got == want


def test_oracle_runs():
    """A seed other than criterion 6's, so the two check distinct instances."""
    line, ok = check_lp_oracle(count=40, seed=7)
    assert ok, line


def test_oracle_optimum_on_one_molecule_of_a_rank_3_set():
    """The optimum uses one molecule; the oracle, which tries only bases of
    size 3, finds it on a basis padded with zeros."""
    mols = [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)), (F(1), F(1), F(1))]
    costs = [F(1), F(1), F(1), F(1)]
    target = (F(2), F(2), F(2))
    assert basic_solution_oracle(mols, costs, target) == 2
    assert MoleculeLP(mols, costs).solve_full(target) == 2


def test_oracle_on_a_proper_subspace():
    """Molecules spanning a plane in dimension 3 (rank 2, with a dependent
    pair): an in-span target gets its value, an out-of-span target None and
    the zero target 0."""
    mols = [(F(1), F(0), F(1)), (F(0), F(1), F(1)), (F(1), F(1), F(2)), (F(2), F(0), F(2))]
    costs = [F(1), F(3), F(3), F(1)]
    targets = [(F(2), F(1), F(3)), (F(1), F(0), F(0)), (F(0), F(0), F(0))]
    assert basic_solution_values(mols, costs, targets) == [F(7, 2), None, 0]
    assert MoleculeLP(mols, costs).solve_full(targets[0]) == F(7, 2)


def test_oracle_residual_check_refuses_a_faulty_elimination(monkeypatch):
    """An elimination that zeroes the right-hand sides would read beta = 0,
    value 0, for every target; the residual check refuses each such
    candidate, so the fault can only raise values (here to None)."""
    honest = lp_module._eliminate

    def faulty(tableaux, ncols):
        tableaux, d, pivot_rows = honest(tableaux, ncols)
        tableaux = tableaux.copy()
        tableaux[:, :, ncols:] = 0
        return tableaux, d, pivot_rows

    monkeypatch.setattr(lp_module, "_eliminate", faulty)
    targets = [(F(1), F(0)), (F(1, 2), F(-1, 2)), (F(0), F(0))]
    assert basic_solution_values(STAGE1_MOLECULES, STAGE1_COSTS, targets) == [None, None, 0]


def test_batched_oracle_equals_single_calls():
    for mols, costs, targets in random_lp_instances(40, seed=1):
        assert basic_solution_values(mols, costs, targets) == [
            basic_solution_oracle(mols, costs, t) for t in targets
        ]


quarters = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 4]))


@st.composite
def molecule_programs(draw):
    """Dyadic molecules (halves and quarters) in dims 2-4, sometimes with a
    coordinate row that repeats a multiple of the first; costs with
    denominators; targets in the span and arbitrary ones."""
    dim = draw(st.integers(2, 4))
    mols = draw(st.lists(st.tuples(*[quarters] * dim), min_size=1, max_size=7))
    if draw(st.booleans()):
        k = draw(quarters)
        mols = [m[:-1] + (k * m[0],) for m in mols]
    mols = [m for m in mols if any(m)] or [(F(1),) + (F(0),) * (dim - 1)]
    costs = draw(st.lists(st.builds(F, st.integers(0, 6), st.integers(1, 4)),
                          min_size=len(mols), max_size=len(mols)))
    spanned = st.lists(quarters, min_size=len(mols), max_size=len(mols)).map(
        lambda cs: tuple(sum((c * m[i] for c, m in zip(cs, mols)), F(0)) for i in range(dim))
    )
    targets = draw(st.lists(spanned | st.tuples(*[quarters] * dim), min_size=1, max_size=4))
    return mols, costs, targets


@given(molecule_programs())
@settings(max_examples=200, deadline=None)
def test_solve_matches_oracle_property(program):
    mols, costs, targets = program
    lp, check = MoleculeLP(mols, costs), Certifier(mols, costs)
    for t in targets:
        want = basic_solution_oracle(mols, costs, t)
        if want is None:
            with pytest.raises(InfeasibleLP):
                values_of(lp, [t])
            continue
        [(v, k)] = values_of(lp, [t])
        value, beta, dual = lp.certificate(k, t)
        assert value == v == want == lp.solve_full(t)
        assert check.dual_feasible(dual) and check.certifies(t, value, beta, dual)


@given(molecule_programs())
@settings(max_examples=150, deadline=None)
def test_solve_many_matches_solve_and_oracle_property(program):
    """The batch values equal per-target ``solve_full`` and the oracle, each
    target's cached basis certifies it, a second batch is served from the
    cache alone, and an infeasible target makes the batch raise."""
    mols, costs, targets = program
    want = basic_solution_values(mols, costs, targets)
    feasible = [t for t, w in zip(targets, want) if w is not None]
    single, batch, check = MoleculeLP(mols, costs), MoleculeLP(mols, costs), Certifier(mols, costs)
    solved = values_of(batch, feasible)
    assert [v for v, _ in solved] == [w for w in want if w is not None]
    assert [v for v, _ in solved] == [single.solve_full(t) for t in feasible]
    for t, (v, k) in zip(feasible, solved):
        value, beta, dual = batch.certificate(k, t)
        assert value == v
        assert check.dual_feasible(dual) and check.certifies(t, value, beta, dual)
    bases, pivots = len(batch.bases), batch.pivots
    assert values_of(batch, feasible) == solved
    assert (len(batch.bases), batch.pivots) == (bases, pivots)
    for t, w in zip(targets, want):
        if w is None:
            with pytest.raises(InfeasibleLP):
                values_of(batch, [*feasible, t])


@given(molecule_programs(), st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_scaling_molecules_and_targets_by_a_power_of_two_property(program, k):
    """beta is feasible for the molecules d_j at v exactly when it is for
    2^s d_j at 2^s v, at the same cost.  With 2^s clearing every
    denominator, as the norm extension's integer vectors do, the values of
    ``solve_many`` and of basic-solution enumeration are unchanged."""
    mols, costs, targets = program
    s = max(x.denominator for v in (*mols, *targets) for x in v).bit_length() - 1 + k

    def up(v):
        return tuple(int(x * 2**s) for x in v)

    want = basic_solution_values(mols, costs, targets)
    assert basic_solution_values([up(m) for m in mols], costs, [up(t) for t in targets]) == want
    feasible = [t for t, w in zip(targets, want) if w is not None]
    plain = values_of(MoleculeLP(mols, costs), feasible)
    scaled = values_of(MoleculeLP([up(m) for m in mols], costs), [up(t) for t in feasible])
    assert [v for v, _ in plain] == [v for v, _ in scaled] == [w for w in want if w is not None]


@given(molecule_programs(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_solve_many_values_do_not_depend_on_target_order_property(program, seed):
    """Which target ``solve_many`` solves next depends on the input order
    only through ties, and every covering basis gives a target the
    program's one optimal value: on a shuffled batch (the feasible targets
    and their negations) each target gets its value in the unshuffled
    batch, and its cached basis certifies it.  The solve counts may differ."""
    mols, costs, targets = program
    feasible = [t for t, w in zip(targets, basic_solution_values(mols, costs, targets)) if w is not None]
    batch = feasible + [tuple(-x for x in t) for t in feasible]
    order = list(range(len(batch)))
    random.Random(seed).shuffle(order)
    plain, shuffled, check = MoleculeLP(mols, costs), MoleculeLP(mols, costs), Certifier(mols, costs)
    values = [v for v, _ in values_of(plain, batch)]
    for i, (v, k) in zip(order, values_of(shuffled, [batch[i] for i in order])):
        value, beta, dual = shuffled.certificate(k, batch[i])
        assert value == v == values[i]
        assert check.dual_feasible(dual) and check.certifies(batch[i], value, beta, dual)


def test_forged_basis_never_values_a_target_it_does_not_cover():
    """A cached basis optimal for v has B^-1(-v) = -B^-1 v with a negative
    entry, and c_B B^-1(-v) = -gamma(v) < 0.  Handed to a fresh solver as
    its cache, the basis values v, and -v is solved for its own optimum."""
    v, neg = (F(1), F(0)), (F(-1), F(0))
    donor = MoleculeLP(STAGE1_MOLECULES, STAGE1_COSTS)
    [(value, k)] = values_of(donor, [v])
    lp = MoleculeLP(STAGE1_MOLECULES, STAGE1_COSTS)
    lp.bases.append(donor.bases[k])
    assert lp.certificate(0, neg) is None  # B^-1(-v) has a negative entry
    (got_v, basis_v), (got_neg, basis_neg) = values_of(lp, [v, neg])
    assert (got_v, basis_v) == (value, 0) == (1, 0)
    assert got_neg == basic_solution_oracle(STAGE1_MOLECULES, STAGE1_COSTS, neg) == 1
    assert basis_neg == 1 == len(lp.bases) - 1


@given(molecule_programs())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_hadamard_bound_covers_every_pivot_property(program):
    """Every tableau entry and d that ``solve_many`` pivots is at most H,
    and every pivot numerator |p| T_i - sgn(p) col_i T_r at most 2 H^2,
    for H the Hadamard bound of the reduced system's columns under both
    cost rows and the batch's longest reduced target (lp docstring); and
    the solve ran under a bound that covers H."""
    mols, costs, targets = program
    feasible = [t for t, w in zip(targets, basic_solution_values(mols, costs, targets)) if w is not None]
    lp = MoleculeLP(mols, costs)
    m, J = lp.m, lp.ncols // 2
    rhs = lp._reduce(feasible)[0].tolist() if feasible else [[]] * m
    squares = [sum(x * x for x in col) + c * c for col, c in zip(zip(*lp._cols), lp._cost[:J])]
    # a tableau holds one target column at a time: the longest bounds them all
    squares += [2] * m + [max((sum(x * x for x in col) for col in zip(*rhs)), default=0)]
    H = hadamard_bound(squares, m + 1)
    seen = []
    honest = lp_module._pivot

    def spy(rows, d, col, r, bound=None):
        T, col = np.asarray(rows, dtype=object), np.asarray(col, dtype=object)
        p = col[r]
        num = abs(p) * T - (1 if p > 0 else -1) * np.multiply.outer(col, T[r])
        seen.append((max(abs(x) for x in [d, *T.flat]), max(abs(x) for x in num.flat)))
        return honest(rows, d, col, r, bound)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_module, "_pivot", spy)
        lp.solve_many(feasible)
    assert len(seen) >= lp.pivots
    assert all(entry <= H and num <= 2 * H * H for entry, num in seen)
    assert not feasible or lp._bound >= 2 * H * H  # the solve ran under a bound that covers H


def test_object_path_matches_int64_path():
    """Molecules and targets scaled by 2^64 leave every value unchanged
    (norm_ext docstring) but put the program past the int64 bound, so it
    runs on object arrays; the plain one runs on int64 exactly where its
    proven bound is below 2^62.  Both end on the same bases after the same
    pivots, with the same values and basis indices.  The rank-4 instances'
    reduced systems have entries in the hundreds, and their Hadamard bound
    passes 2^62, so only some plain programs run on int64."""
    def up(v):
        return tuple(x * 2**64 for x in v)

    on_int64 = 0
    for mols, costs, targets in random_lp_instances(60, seed=3):
        want = basic_solution_values(mols, costs, targets)
        feasible = [t for t, w in zip(targets, want) if w is not None]
        plain, scaled = MoleculeLP(mols, costs), MoleculeLP([up(mol) for mol in mols], costs)
        got = values_of(plain, feasible)
        assert values_of(scaled, [up(t) for t in feasible]) == got
        assert [v for v, _ in got] == [w for w in want if w is not None]
        assert [b.columns for b in scaled.bases] == [b.columns for b in plain.bases]
        assert scaled.pivots == plain.pivots
        int64 = plain._bound < 2**62
        assert all(b.adj.dtype == (np.int64 if int64 else object) for b in plain.bases)
        assert all(b.adj.dtype == object for b in scaled.bases)
        on_int64 += int64 and bool(plain.bases)
    assert on_int64 >= 40  # 42 of the 60


def test_matmul_falls_back_to_python_ints():
    """A product whose bound reaches 2^62 is taken in Python ints, exactly;
    below the bound it stays in int64."""
    big = np.array([[2**40], [1]], dtype=np.int64)
    out = _matmul([[2**30, 1], [-(2**30), 1]], big)
    assert out.dtype == object
    assert out[:, 0].tolist() == [2**70 + 1, -(2**70) + 1]
    small = _matmul([[2, 1]], np.array([[3], [4]], dtype=np.int64))
    assert small.dtype == np.int64 and small.tolist() == [[10]]


@pytest.mark.parametrize("case", ["target denominators", "molecule entries"])
def test_solve_many_python_int_path_matches_oracle(monkeypatch, case):
    """Targets with denominators 3^45 (their scaled matrix leaves int64),
    or small targets against molecules with entries 2^70 (the reduction
    operator's products leave int64): the batch runs its products in
    Python ints and agrees with basic-solution enumeration."""
    products = []
    honest = lp_module._matmul

    def spy(a, b, bound=None):
        out = honest(a, b, bound)
        products.append(out.dtype)
        return out

    monkeypatch.setattr(lp_module, "_matmul", spy)
    if case == "target denominators":
        mols, costs = STAGE1_MOLECULES, STAGE1_COSTS
        targets = [(F(1, 3**45), F(2)), (F(-5, 3**44), F(1, 3)), (F(7), F(-1, 3**45))]
    else:
        mols = [(F(2**70), F(0)), (F(0), F(1, 2**70)), (F(2**70), F(-1))]
        costs = [F(1), F(3, 2**70), F(2)]
        targets = [(F(3), F(1)), (F(-3), F(5, 2)), (F(1), F(0))]
    want = basic_solution_values(mols, costs, targets)
    got = values_of(MoleculeLP(mols, costs), targets)
    assert object in products
    assert [v for v, _ in got] == want
    assert want == [MoleculeLP(mols, costs).solve_full(t) for t in targets]


def test_warm_pivots_past_the_int64_bound_run_on_python_ints(monkeypatch):
    """Molecules with entries 2^33 + 1 make d = |det B| and the pivot
    products reach 2^66, past the int64 bound: the warm dual-simplex pivots
    after the first solve run on object arrays (Python ints), and every
    value equals basic-solution enumeration's."""
    a = 2**33 + 1
    mols = [(F(a), F(0)), (F(0), F(a)), (F(a), F(-a)), (F(3 * a), F(a))]
    costs = [F(1), F(1), F(2), F(3)]
    targets = [(F(a * x), F(a * y)) for x, y in [(1, 0), (-1, 2), (0, -3), (5, 1), (-2, -2), (1, -4)]]
    dtypes = []
    honest = lp_module._pivot

    def spy(rows, d, col, r, bound=None):
        out, q = honest(rows, d, col, r, bound)
        dtypes.append(out.dtype)
        return out, q

    monkeypatch.setattr(lp_module, "_pivot", spy)
    lp = MoleculeLP(mols, costs)
    first = lp.solve_full(targets[0])
    dtypes.clear()
    got = [first] + [v for v, _ in values_of(lp, targets[1:])]
    assert lp.pivots > 0 and object in dtypes
    assert got == basic_solution_values(mols, costs, targets)


def test_pivot_remainder_raises():
    """N and d out of step leave a remainder; the pivot refuses to round."""
    with pytest.raises(InexactDivision):
        _pivot([[1, 0], [0, 1]], 2, [1, 1], 0)
