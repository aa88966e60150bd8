"""Brute-force cross-checks pairing every production route with an
independent one.

* the relaxation engine against depth-bounded enumeration of rule trees on
  randomized micro constraint systems;
* the exact simplex against exhaustive basic-solution enumeration;
* the second-stage norm table against the three-variable minimization;
* the third-stage metric against Dijkstra over aligned factorizations;
* the fourth-stage norm against exact LP optimality certificates.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .lp import InfeasibleLP, MoleculeLP, basic_solution_oracle, certifies_target, dual_feasible
from .relax import ConstraintSystem, Equality, UpperCombo, brute_force_oracle, relax_fixpoint
from .stages import Config, Universe
from .terms import UNIT_ID


def random_micro_system(rng: random.Random, max_indices: int = 40) -> ConstraintSystem:
    """A layered random system: combo rules point strictly down in layer, so
    the rule dependency diameter stays below the oracle depth."""
    n = rng.randint(5, max_indices)
    indices = tuple(range(n))
    layers = 6
    layer = {i: rng.randrange(layers) for i in indices}
    bounds = {}
    for i in indices:
        if rng.random() < 0.85:
            bounds[i] = Fraction(rng.randint(0, 24), rng.choice([1, 2, 4]))
        else:
            bounds[i] = None
    # every layer-0 index keeps a finite bound so chains are grounded
    for i in indices:
        if layer[i] == 0 and bounds[i] is None:
            bounds[i] = Fraction(rng.randint(0, 24), 2)
    rules: list = []
    uppers = [i for i in indices if layer[i] > 0]
    for _ in range(rng.randint(n, 3 * n)):
        if not uppers:
            break
        t = rng.choice(uppers)
        below = [j for j in indices if layer[j] < layer[t]]
        if not below:
            continue
        k = rng.randint(1, min(3, len(below)))
        srcs = rng.sample(below, k)
        terms = tuple(
            (Fraction(rng.randint(0, 4), rng.choice([1, 2])), j) for j in srcs
        )
        rules.append(UpperCombo(t, terms))
    for _ in range(rng.randint(0, n // 5)):
        lay = rng.randrange(layers)
        same = [i for i in indices if layer[i] == lay]
        if len(same) >= 2:
            a, b = rng.sample(same, 2)
            rules.append(Equality(a, b))
    return ConstraintSystem(indices=indices, bounds=bounds, rules=rules)


def check_relax_oracle(count: int = 100, seed: int = 0, depth: int = 8):
    """relax_fixpoint == depth-bounded brute force on every micro system."""
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(count):
        sys_ = random_micro_system(rng)
        got = relax_fixpoint(sys_)
        want = brute_force_oracle(sys_, depth)
        finite = {i: v for i, v in got.values.items()}
        if finite != want:
            mismatches += 1
    return f"relax fixpoint vs depth-{depth} enumeration on {count} systems", mismatches == 0


def check_lp_oracle(count: int = 40, seed: int = 1):
    """Exact simplex == basic-solution enumeration on random instances with
    at most 12 molecules."""
    rng = random.Random(seed)
    mismatches = 0
    trials = 0
    while trials < count:
        d = rng.choice([2, 3, 4])
        j = rng.randint(d, 12)
        molecules = [
            tuple(Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(d))
            for _ in range(j)
        ]
        molecules = [m for m in molecules if any(m)]
        if not molecules:
            continue
        costs = [Fraction(rng.randint(1, 6), rng.choice([1, 2])) for _ in molecules]
        lp = MoleculeLP(molecules, costs)
        for _ in range(3):
            target = tuple(Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(d))
            want = basic_solution_oracle(molecules, costs, target)
            try:
                got = lp.solve(target)
            except InfeasibleLP:
                got = None
            if got != want:
                mismatches += 1
        trials += 1
    return f"molecule program vs basic-solution oracle on {count} instances", mismatches == 0


def check_stage2_oracle(cfg: Config | None = None):
    """The construction-exact 81-entry second-stage table, entry for entry,
    against the three-variable minimization by basic-solution enumeration."""
    from .norm_ext import member_vector

    universe = Universe(cfg or Config.exact_x2()).build()
    s2 = universe.stage(2)
    basis_pos = {b: i for i, b in enumerate(s2.basis)}
    molecules = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(-1))]
    costs = [Fraction(1), Fraction(1), Fraction(2)]
    bad = 0
    for m in s2.members:
        v = member_vector(universe, m, basis_pos, 2)
        if s2.table[m] != basic_solution_oracle(molecules, costs, v):
            bad += 1
    return f"stage-2 norm table vs three-variable oracle ({len(s2.members)} entries)", bad == 0


def check_rho_oracle(cfg: Config | None = None):
    """Desk third-stage metric against the independent factorization search."""
    from .metric_ext import rho_decomposition_oracle

    universe = Universe(cfg or Config.desk(stage_count=3)).build()
    s3 = universe.stage(3)
    oracle, depth = rho_decomposition_oracle(universe, s3, universe.stage(2), universe.cfg)
    bad = sum(1 for k, v in s3.table.items() if oracle.get(k) != v)
    return (
        f"stage-3 metric vs factorization oracle ({len(s3.table)} pairs, depth {depth})",
        bad == 0,
    )


def certificate_mismatches(universe, n: int, members) -> int:
    """How many of the given members of vector stage n lack an exact
    primal/dual certificate that their table value is the molecule
    program's optimum.  Each distinct dual is checked for feasibility once."""
    from .norm_ext import member_vector, molecule_table, _dedupe_sign

    stage = universe.stage(n)
    basis_pos = {b: i for i, b in enumerate(stage.basis)}
    dim = len(stage.basis)
    canon = _dedupe_sign(molecule_table(universe, universe.stage(n - 1), basis_pos, dim))
    mols, costs = list(canon.keys()), list(canon.values())
    lp = MoleculeLP(mols, costs)
    feasible: dict = {}
    bad = 0
    for m in members:
        v = member_vector(universe, m, basis_pos, dim)
        value, beta, dual = lp.solve_full(v)
        if dual not in feasible:
            feasible[dual] = dual_feasible(mols, costs, dual)
        if not (feasible[dual] and certifies_target(mols, costs, v, value, beta, dual)
                and stage.table[m] == value):
            bad += 1
    return bad


def check_stage4_certificates(cfg: Config | None = None, sample: int = 400, seed: int = 2):
    """Sampled fourth-stage members: the table value is optimal for the
    molecule program, witnessed by an exact primal/dual certificate pair."""
    universe = Universe(cfg or Config.desk(stage_count=4)).build()
    rng = random.Random(seed)
    members = [m for m in universe.stage(4).members if m != UNIT_ID]
    chosen = rng.sample(members, min(sample, len(members)))
    bad = certificate_mismatches(universe, 4, chosen)
    return f"stage-4 norm vs LP certificates on {len(chosen)} members", bad == 0


def run_all_oracles(cfg: Config | None = None):
    """All cross-checks; yields (description, passed)."""
    seed = (cfg.seed if cfg else 0) or 0
    yield check_relax_oracle(seed=seed)
    yield check_lp_oracle(seed=seed + 1)
    yield check_stage2_oracle()
    yield check_rho_oracle()
    yield check_stage4_certificates(seed=seed + 2)
