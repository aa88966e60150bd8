"""Exact molecule program: values, certificates, and the enumeration oracle."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from freebanach import lp as lp_module
from freebanach.lp import (
    InexactDivision,
    InfeasibleLP,
    MoleculeLP,
    _pivot,
    basic_solution_oracle,
    basic_solution_values,
    verify_certificate,
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
    for target in [(F(1), F(0)), (F(3, 2), F(-1, 2)), (F(-2), F(1))]:
        value, beta, dual = lp.solve_full(target)
        assert verify_certificate(STAGE1_MOLECULES, STAGE1_COSTS, target, value, beta, dual)
        # a corrupted value must not verify
        assert not verify_certificate(
            STAGE1_MOLECULES, STAGE1_COSTS, target, value + 1, beta, dual
        )


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

    def faulty(rows, ncols):
        rows, d, pivot_rows = honest(rows, ncols)
        return [row[:ncols] + [0] * (len(row) - ncols) for row in rows], d, pivot_rows

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
    lp = MoleculeLP(mols, costs)
    for t in targets:
        want = basic_solution_oracle(mols, costs, t)
        if want is None:
            with pytest.raises(InfeasibleLP):
                lp.solve_full(t)
            continue
        value, beta, dual = lp.solve_full(t)
        assert value == want == lp.solve(t)
        assert verify_certificate(mols, costs, t, value, beta, dual)


def test_pivot_remainder_raises():
    """N and d out of step leave a remainder; the pivot refuses to round."""
    with pytest.raises(InexactDivision):
        _pivot([[1, 0], [0, 1]], 2, [1, 1], 0)
