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
)
from freebanach.oracles import check_lp_oracle, random_lp_instances

STAGE1_MOLECULES = [(F(1), F(0)), (F(0), F(1)), (F(1), F(-1))]
STAGE1_COSTS = [F(1), F(1), F(2)]


def test_stage1_molecule_values():
    lp = MoleculeLP(STAGE1_MOLECULES, STAGE1_COSTS)
    assert lp.solve((F(1), F(0))) == 1          # gamma(x - e)
    assert lp.solve((F(1, 2), F(-1, 2))) == 1   # half of x - x^-1
    assert lp.solve((F(1), F(-1))) == 2
    assert lp.solve((F(0), F(0))) == 0
    assert lp.solve((F(2), F(2))) == 4


def test_certificates():
    lp = MoleculeLP(STAGE1_MOLECULES, STAGE1_COSTS)
    check = Certifier(STAGE1_MOLECULES, STAGE1_COSTS)
    targets = [(F(1), F(0)), (F(3, 2), F(-1, 2)), (F(-2), F(1))]
    for target, (v, k) in zip(targets, lp.solve_many(targets)):
        value, beta, dual = lp.certificate(k, target)
        assert value == v
        assert check.dual_feasible(dual) and check.certifies(target, value, beta, dual)
        # a corrupted value must not verify
        assert not check.certifies(target, value + 1, beta, dual)


def test_infeasible_target():
    mols = [(F(1), F(0), F(1)), (F(0), F(1), F(1))]
    lp = MoleculeLP(mols, [F(1), F(3)])
    assert lp.solve((F(2), F(1), F(3))) == 5
    with pytest.raises(InfeasibleLP):
        lp.solve((F(1), F(0), F(0)))
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
            got = lp.solve(t)
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
    assert MoleculeLP(mols, costs).solve(target) == 2


def test_oracle_on_a_proper_subspace():
    """Molecules spanning a plane in dimension 3 (rank 2, with a dependent
    pair): an in-span target gets its value, an out-of-span target None and
    the zero target 0."""
    mols = [(F(1), F(0), F(1)), (F(0), F(1), F(1)), (F(1), F(1), F(2)), (F(2), F(0), F(2))]
    costs = [F(1), F(3), F(3), F(1)]
    targets = [(F(2), F(1), F(3)), (F(1), F(0), F(0)), (F(0), F(0), F(0))]
    assert basic_solution_values(mols, costs, targets) == [F(7, 2), None, 0]
    assert MoleculeLP(mols, costs).solve(targets[0]) == F(7, 2)


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
                lp.solve_many([t])
            continue
        [(v, k)] = lp.solve_many([t])
        value, beta, dual = lp.certificate(k, t)
        assert value == v == want == lp.solve(t)
        assert check.dual_feasible(dual) and check.certifies(t, value, beta, dual)


@given(molecule_programs())
@settings(max_examples=150, deadline=None)
def test_solve_many_matches_solve_and_oracle_property(program):
    """The batch values equal per-target ``solve`` and the oracle, each
    target's cached basis certifies it, a second batch is served from the
    cache alone, and an infeasible target makes the batch raise."""
    mols, costs, targets = program
    want = basic_solution_values(mols, costs, targets)
    feasible = [t for t, w in zip(targets, want) if w is not None]
    single, batch, check = MoleculeLP(mols, costs), MoleculeLP(mols, costs), Certifier(mols, costs)
    solved = batch.solve_many(feasible)
    assert [v for v, _ in solved] == [w for w in want if w is not None]
    assert [v for v, _ in solved] == [single.solve(t) for t in feasible]
    for t, (v, k) in zip(feasible, solved):
        value, beta, dual = batch.certificate(k, t)
        assert value == v
        assert check.dual_feasible(dual) and check.certifies(t, value, beta, dual)
    bases, pivots = len(batch.bases), batch.pivots
    assert batch.solve_many(feasible) == solved
    assert (len(batch.bases), batch.pivots) == (bases, pivots)
    for t, w in zip(targets, want):
        if w is None:
            with pytest.raises(InfeasibleLP):
                batch.solve_many([*feasible, t])


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
    plain = MoleculeLP(mols, costs).solve_many(feasible)
    scaled = MoleculeLP([up(m) for m in mols], costs).solve_many([up(t) for t in feasible])
    assert [v for v, _ in plain] == [v for v, _ in scaled] == [w for w in want if w is not None]


def test_forged_basis_never_values_a_target_it_does_not_cover():
    """A cached basis optimal for v has B^-1(-v) = -B^-1 v with a negative
    entry, and c_B B^-1(-v) = -gamma(v) < 0.  Handed to a fresh solver as
    its cache, the basis values v, and -v is solved for its own optimum."""
    v, neg = (F(1), F(0)), (F(-1), F(0))
    donor = MoleculeLP(STAGE1_MOLECULES, STAGE1_COSTS)
    [(value, k)] = donor.solve_many([v])
    lp = MoleculeLP(STAGE1_MOLECULES, STAGE1_COSTS)
    lp.bases.append(donor.bases[k])
    assert lp.certificate(0, neg) is None  # B^-1(-v) has a negative entry
    (got_v, basis_v), (got_neg, basis_neg) = lp.solve_many([v, neg])
    assert (got_v, basis_v) == (value, 0) == (1, 0)
    assert got_neg == basic_solution_oracle(STAGE1_MOLECULES, STAGE1_COSTS, neg) == 1
    assert basis_neg == 1 == len(lp.bases) - 1


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

    def spy(a, b):
        out = honest(a, b)
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
    got = MoleculeLP(mols, costs).solve_many(targets)
    assert object in products
    assert [v for v, _ in got] == want
    assert want == [MoleculeLP(mols, costs).solve(t) for t in targets]


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

    def spy(rows, d, col, r):
        out, q = honest(rows, d, col, r)
        dtypes.append(out.dtype)
        return out, q

    monkeypatch.setattr(lp_module, "_pivot", spy)
    lp = MoleculeLP(mols, costs)
    first = lp.solve(targets[0])
    dtypes.clear()
    got = [first] + [v for v, _ in lp.solve_many(targets[1:])]
    assert lp.pivots > 0 and object in dtypes
    assert got == basic_solution_values(mols, costs, targets)


def test_pivot_remainder_raises():
    """N and d out of step leave a remainder; the pivot refuses to round."""
    with pytest.raises(InexactDivision):
        _pivot([[1, 0], [0, 1]], 2, [1, 1], 0)
