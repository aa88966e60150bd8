"""Brute-force cross-checks pairing every production route with an
independent one.

* the relaxation engine against depth-bounded enumeration of rule trees on
  randomized micro constraint systems;
* the exact simplex against exhaustive basic-solution enumeration;
* the second-stage norm table against the minimization over the stage-1
  pairs' differences;
* the third-stage metric against Dijkstra over aligned factorizations,
  stopped once every member pair is settled (``rho_decomposition_oracle``;
  ``norm_decomposition_oracle`` is its norm side, Dijkstra over partial
  sums of members, which tests call);
* the fourth-stage norm against exact LP optimality certificates.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

from .lp import Certifier, InfeasibleLP, MoleculeLP, basic_solution_values
from .metric_ext import delta_bounds
from .norm_ext import _dedupe_sign, molecule_table, scalar_shift, sign_class
from .relax import ConstraintSystem, Equality, UpperCombo, brute_force_oracle, relax_fixpoint
from .stages import Config, Universe
from .terms import UNIT_ID, Letters, pair_key, reduce_concat

Vec = tuple[Fraction, ...]


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
    # per layer, the indices below it (read by ``rng.sample``, never changed)
    below_layer = [[j for j in indices if layer[j] < lay] for lay in range(layers)]
    for _ in range(rng.randint(n, 3 * n)):
        if not uppers:
            break
        t = rng.choice(uppers)
        below = below_layer[layer[t]]
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
        if relax_fixpoint(sys_).values != brute_force_oracle(sys_, depth):
            mismatches += 1
    return f"relax fixpoint vs depth-{depth} enumeration on {count} systems", mismatches == 0


def random_lp_instances(count: int, seed: int):
    """``count`` random molecule programs (molecules, costs, three targets)
    in dims 2-4 with at most 12 nonzero molecules."""
    rng = random.Random(seed)
    made = 0
    while made < count:
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
        targets = [
            tuple(Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(d)) for _ in range(3)
        ]
        yield molecules, costs, targets
        made += 1


def check_lp_oracle(count: int = 40, seed: int = 1):
    """Exact simplex == basic-solution enumeration on random instances with
    at most 12 molecules."""
    mismatches = 0
    for molecules, costs, targets in random_lp_instances(count, seed):
        lp = MoleculeLP(molecules, costs)
        for target, want in zip(targets, basic_solution_values(molecules, costs, targets)):
            try:
                got = lp.solve_full(target)
            except InfeasibleLP:
                got = None
            if got != want:
                mismatches += 1
    return f"molecule program vs basic-solution oracle on {count} instances", mismatches == 0


def check_stage2_oracle(cfg: Config | None = None):
    """The second-stage norm table (by default the construction-exact one of
    81 entries), entry for entry, against basic-solution enumeration over
    the built stage 1: one molecule a - b per stage-1 pair, at cost
    rho_1(a, b)."""
    universe = Universe(cfg or Config.exact_x2()).build()
    s1, s2 = universe.stage(1), universe.stage(2)
    basis_pos = {b: i for i, b in enumerate(s2.basis)}
    vector = {m: universe.store.vector_fractions(m, basis_pos, len(s2.basis)) for m in s2.members}
    molecules = [tuple(p - q for p, q in zip(vector[a], vector[b])) for a, b in s1.table]
    want = basic_solution_values(molecules, list(s1.table.values()), list(vector.values()))
    bad = sum(1 for m, w in zip(s2.members, want) if s2.table[m] != w)
    return f"stage-2 norm table vs stage-1 pair oracle ({len(s2.members)} entries)", bad == 0


def rho_decomposition_oracle(universe, stage, prev, cfg):
    """Independent minimization over aligned member factorizations.

    Dijkstra from the empty pair over aligned prefix products kept within
    the ambient length: appending a member pair (a, b) costs delta(a, b),
    0 when a = b, so settled distances are exactly the factorization
    minima.  Costs are Python ints at the lcm of delta's denominators, and
    each distinct prefix word memoizes its in-bound extensions by the
    distinct factor words, so ``reduce_concat`` runs once per (prefix,
    factor) rather than once per node and step.  The heap key (cost,
    depth, node) fixes the settle order, and with it the reported depth.
    The search stops once every node the table reads, both orders of
    each pair of distinct member words, is settled, or when the heap is
    empty.  That is exact: the run so far is a prefix of the full run, and
    as every cost is >= 0 a settled node's distance is final, so its depth,
    written only when its distance falls, is final too.  Pure dict/heap/int
    code: no word space, product table or scaled arrays shared with the
    production closure.  Returns the table, in ``Fraction``, plus the
    largest factor count used on any optimal path.

    delta is ``delta_bounds``, the rule-(a) seeds, which leave positive-rank
    members to the closure's rules, so this is an oracle only for stages
    without them (desk); a stage with them needs a per-value derivation
    check."""
    store = universe.store
    delta = delta_bounds(universe, prev)
    amb_len = cfg.ambient_expansion * stage.word_cap
    # factor words (one per distinct member word) and cost[i][j] for the
    # step by factor words i on the left and j on the right, None if delta
    # has no clause; a repeated word pair keeps its least cost
    member_words = [store.word_of(m) for m in stage.members]
    factors: dict[Letters, int] = {}
    for w in member_words:
        factors.setdefault(w, len(factors))
    raw: dict[tuple[int, int], Fraction] = {}
    for a, wa in zip(stage.members, member_words):
        ia = factors[wa]
        for b, wb in zip(stage.members, member_words):
            v = Fraction(0) if a == b else delta.get(pair_key(a, b))
            k = (ia, factors[wb])
            if v is not None and (k not in raw or v < raw[k]):
                raw[k] = v
    scale = lcm(*(v.denominator for v in raw.values()))
    cost: list[list[int | None]] = [[None] * len(factors) for _ in factors]
    for (i, j), v in raw.items():
        cost[i][j] = v.numerator * (scale // v.denominator)
    words = list(factors)
    extensions: dict[Letters, list[tuple[int, Letters]]] = {}

    def extend(u: Letters) -> list[tuple[int, Letters]]:
        ext = extensions.get(u)
        if ext is None:
            ext = extensions[u] = [
                (i, w) for i, w in enumerate(reduce_concat(u, f) for f in words) if len(w) <= amb_len
            ]
        return ext

    # the nodes the table reads: both orders of every pair of distinct members
    wanted = {
        key
        for i, wa in enumerate(member_words)
        for wb in member_words[i + 1 :]
        for key in ((wa, wb), (wb, wa))
    }
    start = ((), ())
    dist: dict[tuple[Letters, Letters], int] = {start: 0}
    depth: dict[tuple[Letters, Letters], int] = {start: 0}
    heap: list = [(0, 0, start)]
    settled = set()
    while heap and wanted:
        d, k, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        wanted.discard(node)
        u, v = node
        right = extend(v)
        for i, nu in extend(u):
            row = cost[i]
            for j, nv in right:
                c = row[j]
                if c is None:
                    continue
                nd = d + c
                key = (nu, nv)
                cur = dist.get(key)
                if cur is None or nd < cur:
                    dist[key] = nd
                    depth[key] = k + 1
                    heapq.heappush(heap, (nd, k + 1, key))
    out: dict[tuple[int, int], Fraction] = {}
    max_depth = 0
    for i, (a, wa) in enumerate(zip(stage.members, member_words)):
        for b, wb in zip(stage.members[i + 1 :], member_words[i + 1 :]):
            candidates = [
                (dist[k], depth[k]) for k in ((wa, wb), (wb, wa)) if k in dist
            ]
            if candidates:
                val, dep = min(candidates)
                out[pair_key(a, b)] = Fraction(val, scale)
                max_depth = max(max_depth, dep)
    return out, max_depth


def rho_oracle_mismatches(universe):
    """The third-stage table's pairs whose value differs from the
    independent factorization search, sorted, and the search's depth."""
    s3 = universe.stage(3)
    oracle, depth = rho_decomposition_oracle(universe, s3, universe.stage(2), universe.cfg)
    return sorted(k for k, v in s3.table.items() if oracle.get(k) != v), depth


def check_rho_oracle(cfg: Config | None = None):
    """Third-stage metric (by default desk's) against the independent
    factorization search."""
    universe = Universe(cfg or Config.desk(stage_count=3)).build()
    bad, depth = rho_oracle_mismatches(universe)
    return (
        f"stage-3 metric vs factorization oracle ({len(universe.stage(3).table)} pairs, depth {depth})",
        not bad,
    )


def certificate_mismatches(universe, n: int, members) -> int:
    """How many of the given nonzero members of vector stage n lack an exact
    primal/dual certificate that their table value is the molecule
    program's optimum.  The +- classes are resolved once, by
    ``MoleculeLP.solve_many``, and each class v reads its solution B^-1 v,
    which must be >= 0, and its dual off its cached basis B; each cached
    basis's dual is checked for feasibility once.  Each member's
    certificate is then checked on its own, against the original molecules
    (``Certifier``) and at the member's table value.  A member -v would take
    the negated solution and dual of v, and negating target, solution and
    dual together changes none of the checked identities, so it is checked
    on its class v.  As in ``norm_extend``, member k's class is
    {k, last - k}, its row of ``Stage.coordinates(k)`` made positive in
    its first nonzero entry (``sign_class``), and the molecules are int
    tuples; all are scaled by 2^k, which leaves every value unchanged and
    scales the duals by 2^-k (``norm_ext`` docstring)."""
    stage = universe.stage(n)
    basis_pos = {b: i for i, b in enumerate(stage.basis)}
    dim, shift = len(stage.basis), scalar_shift(stage)
    canon = _dedupe_sign(molecule_table(universe, universe.stage(n - 1), basis_pos, dim, shift))
    mols, costs = list(canon.keys()), list(canon.values())
    lp = MoleculeLP(mols, costs)
    check = Certifier(mols, costs)
    # member k's +- class is {k, last - k}, whose rows are negatives (norm_ext docstring)
    cell, last = {m: k for k, m in enumerate(stage.members)}, len(stage.members) - 1
    class_of = {m: min(cell[m], last - cell[m]) for m in members}
    order = list(dict.fromkeys(class_of.values()))
    rows = sign_class(stage.coordinates(shift)[order])
    certs = {}
    feasible: dict[int, bool] = {}
    for c, target, k in zip(order, rows.tolist(), lp.solve_many(rows)[2]):
        cert = lp.certificate(k, target)  # None where B^-1 v has a negative entry
        if cert is not None and k not in feasible:
            feasible[k] = check.dual_feasible(cert[2])
        certs[c] = target, cert if cert is not None and feasible[k] else None
    bad = 0
    for m, c in class_of.items():
        target, cert = certs[c]
        if cert is None or not check.certifies(target, stage.table[m], cert[1], cert[2]):
            bad += 1
    return bad


def check_stage4_certificates(cfg: Config | None = None, sample: int = 400, seed: int = 2):
    """Sampled fourth-stage members (by default desk's): the table value is
    optimal for the molecule program, witnessed by an exact primal/dual
    certificate pair."""
    universe = Universe(cfg or Config.desk(stage_count=4)).build()
    rng = random.Random(seed)
    members = [m for m in universe.stage(4).members if m != UNIT_ID]
    chosen = rng.sample(members, min(sample, len(members)))
    bad = certificate_mismatches(universe, 4, chosen)
    return f"stage-4 norm vs LP certificates on {len(chosen)} members", bad == 0


def run_all_oracles(cfg: Config):
    """All cross-checks; yields (description, passed).  The stage-2 oracle
    runs on the given config cut to two stages; the stage-3 and stage-4
    oracles build desk whatever the config, and their lines name it."""
    yield check_relax_oracle(seed=cfg.seed)
    yield check_lp_oracle(seed=cfg.seed + 1)
    yield check_stage2_oracle(replace(cfg, stage_count=2))
    line, passed = check_rho_oracle()
    yield f"{line} on desk", passed
    line, passed = check_stage4_certificates(seed=cfg.seed + 2)
    yield f"{line} on desk", passed


def norm_decomposition_oracle(universe, stage, targets, box: Fraction) -> dict[int, Fraction]:
    """Independent check: minimize the gamma-sum over decompositions of a
    target into stage members whose partial sums stay inside the coordinate
    box, by Dijkstra over partial sums (heap, dicts and Fractions only)."""
    basis_pos = {b: i for i, b in enumerate(stage.basis)}
    dim = len(stage.basis)
    gammas = []
    for m in stage.members:
        if m == UNIT_ID:
            continue
        gammas.append((universe.store.vector_fractions(m, basis_pos, dim), stage.table[m]))
    wanted = set(targets)
    cutoff = max(stage.table[m] for m in stage.members)
    start = tuple(Fraction(0) for _ in range(dim))
    dist: dict[Vec, Fraction] = {start: Fraction(0)}
    heap: list = [(Fraction(0), start)]
    settled: set[Vec] = set()
    found = 0
    while heap and found < len(wanted):
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node in wanted:
            found += 1
        for mv, cost in gammas:
            nd = d + cost
            if nd > cutoff:
                continue
            nv = tuple(a + b for a, b in zip(node, mv))
            if any(abs(x) > box for x in nv):
                continue
            cur = dist.get(nv)
            if cur is None or nd < cur:
                dist[nv] = nd
                heapq.heappush(heap, (nd, nv))
    return {i: dist[t] for i, t in enumerate(targets) if t in dist}
