"""Extending the norm on an even stage to a bi-invariant metric on the next
word stage.  Stage 1 has a closed form instead: rho(x^a, x^b) = |a - b|
(``_base_case_table``).  The extension check is
``verify.check_extension_metric``, the factorization reference
``oracles.rho_decomposition_oracle``.

The metric is the greatest function below the auxiliary function delta
closed under simultaneous inversion, product splitting, the two convex
inequalities and the triangle inequality: one pair-composition closure
over the ambient word space or, when that exceeds ``pair_cell_budget``,
the stage's own words (``rho_extend``).  delta seeds rule (a) alone, the
previous norm of a - b on pairs of previous-stage elements whose
difference lies there; the rules value every other pair, and the final
table is checked to be finite, symmetric and positive off the diagonal.

The construction's rank-0 clause delta_0, the least sum of previous norms
of differences over aligned factorizations into previous-stage elements
(``delta_rank0_closure``), moves no greatest fixpoint on an ambient space.
Each derivation of its closure is one of the rho closure: the atoms are
rule-(a) seeds, which delta keeps, or diagonal generators at cost 0; each
off-diagonal atom is a member pair, so a rho generator whose cost is
at most its seed; both closures compose on both sides; and its word space
lies inside the ambient one (fewer letters, the same length bound).  So
rho <= delta_0 already.  At ambient_expansion 1 the members space is the
ambient space.  In the members space at expansion >= 2 (the rank preset)
the table f is certified instead (``verify.check_rank0_dominance``, which
``cli._certify`` runs before a command exports or answers): the fixpoint
g with the clause lies below f, and f <= delta_0 wherever delta_0 has a
value makes f closed and below all of g's seeds, so f = g.

No pair holding a positive-rank member needs a clause: each f closed
under those rules and below delta lies below every clause such a pair
could get, so such clauses change no closed function below delta.  For
x, y of positive rank, each in the previous stage P or inverse to one:
- x, y in P: ||x - y|| is the rule-(a) seed.
- x^-1, y^-1 in P: f(x, y) = f(x^-1, y^-1) <= ||x^-1 - y^-1|| (mirror).
- x, y^-1 in P, through z, z^-1 in P: f(x, y) <= f(x, z) + f(z, y) <=
  ||x - z|| + ||z^-1 - y^-1||, by the member triangle family, the seed at
  (x, z) and the mirrored seed at (z^-1, y^-1); x^-1, y in P is symmetric.
- x of rank 0 and y = sum c_i b_i convex, or y^-1 = sum c_i b_i with
  z_i = b_i^-1 for b_i: the clause is sum c_i d(x, z_i), d the seed or
  clause at (x, z_i), and the closure's convex (inverse-convex) instance
  gives f(x, y) <= sum c_i f(x, z_i) <= the clause, as f(x, z_i) <=
  d(x, z_i) by induction on rank (rank z_i < rank y).  The instance exists
  since every z_i is a member: basis elements lie in the previous word
  stage, and word stages are closed under inversion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice

from .relax import ClosureTable, PairComposition, RelaxError
from .terms import WordSpace, count_words, pair_key

PairTable = dict[tuple[int, int], Fraction]  # keyed a < b, the diagonal not stored


class MetricExtensionError(RelaxError):
    pass


def _closure_len(store, members, lengths, cfg, what: str) -> tuple[list, int]:
    """The signed letters of the members' words (first-occurrence order)
    and the first of ``lengths`` whose words' pairs fit
    ``pair_cell_budget``.  Sizes are counted, no word is built, and a typed
    error refuses the closure when no length fits."""
    alphabet = list(dict.fromkeys(letter for m in members for letter in store.word_of(m)))
    for max_len in lengths:
        size = count_words(alphabet, max_len)
        if size**2 <= cfg.pair_cell_budget:
            return alphabet, max_len
    raise MetricExtensionError(f"{what} space {size}^2 exceeds pair_cell_budget")


def rho_space_len(universe, stage, cfg) -> tuple[list, int]:
    """``rho_extend``'s closure space as ``_closure_len``: the ambient
    length when its pairs fit ``pair_cell_budget``, else the word cap."""
    lengths = [cfg.ambient_expansion * stage.word_cap, stage.word_cap]
    return _closure_len(universe.store, stage.members, lengths, cfg, f"stage-{stage.index} metric members")


def delta_rank0_closure(universe, stage, prev, cfg):
    """Min-plus closure realizing the rank-0 factorization minimum delta_0,
    which the build does not seed (module docstring); the rank-0 dominance
    certificate runs it.  Returns the table, the sweep count and the
    candidate cells composed (``PairComposition.entries``).

    Atoms are pairs (a, b) of prev-stage elements with a - b in the previous
    stage, at cost ||a - b||; composing atoms left-to-right enumerates all
    aligned factorizations whose partial products stay in the ambient word
    set (length <= ambient_expansion * word_cap).  Only the prev-member
    words' product lines are built.
    """
    store = universe.store
    lengths = [cfg.ambient_expansion * stage.word_cap]
    space = WordSpace(*_closure_len(store, prev.members, lengths, cfg, "rank-0 closure"))
    engine = PairComposition(space)
    # every prev member's word lies in the space: its length is at most the stage's cap
    atoms = {m: space.idx(store.word_of(m)) for m in prev.members}
    atom_cells = set()
    for a, wa in atoms.items():
        for b, wb in atoms.items():
            val = Fraction(0) if a == b else universe.norm_of_diff(prev, a, b)
            if val is not None:
                engine.seed(wa, wb, val)
                atom_cells.add((wa, wb))
    for cell in sorted(atom_cells):
        engine.add_generator(*cell)
    closure, sweeps = engine.solve()

    # the closure is transpose-symmetric (a - b in P iff b - a in P, and
    # ||a - b|| = ||b - a||)
    cells = [(m, w) for m in stage.members if (w := space.idx(store.word_of(m))) is not None]
    return _member_pairs([m for m, _ in cells], *closure.pairs([w for _, w in cells])), sweeps, engine.entries


def _member_pairs(members, ints, scale) -> PairTable:
    """The finite values ``ints / scale`` of a transpose-symmetric closure on
    the pairs i < j of ``members`` (``ClosureTable.pairs``), keyed ``pair_key``."""
    cells = ints.tolist()
    values = {v: Fraction(v, scale) for v in set(cells) if v < ClosureTable.inf}
    return {pair_key(a, b): values[v] for (a, b), v in zip(combinations(members, 2), cells) if v in values}


def delta_general(universe, rank0: PairTable) -> PairTable:
    """delta_0's cells: the rank-0 closure value on each pair of rank-0
    members.  A pair holding a positive-rank member needs none (module
    docstring), so its closure cells are factor bookkeeping."""
    rank = universe.store.rank
    return {(a, b): v for (a, b), v in rank0.items() if rank(a) == 0 == rank(b)}


def delta_bounds(universe, prev) -> PairTable:
    """delta: the rule-(a) seed, the previous norm of a - b, on every pair of
    previous-stage elements whose difference lies there."""
    delta: PairTable = {}
    for i, a in enumerate(prev.members):
        for b in prev.members[i + 1 :]:
            v = universe.norm_of_diff(prev, a, b)
            if v is not None:
                delta[pair_key(a, b)] = v
    return delta


# ---------------------------------------------------------------------------
# the metric relaxation
# ---------------------------------------------------------------------------


def _base_case_table(universe, stage, cfg):
    """Stage 1, the free group on x in words of length <= the first word
    cap, has rho(x^a, x^b) = |a - b|, where a is a word's letter-sign sum
    (as ``rho_extend`` returns it, at scale 1).

    rho_1 is the greatest function closed under the metric's rules
    (inversion, product splitting, the triangle inequality) that is 0 on
    the diagonal and at most 1 at (x, e); stage 1 has no convex instance.
    - rho(x^a, x^b) <= |a - b|: splitting x^(c+1) = x.x^c against
      x^c = e.x^c gives rho(x^(c+1), x^c) <= rho(x, e) + rho(x^c, x^c) = 1,
      inversion gives rho(x^-(c+1), x^-c) = rho(x^(c+1), x^c) for c >= 0,
      and the triangle inequality along x^b, ..., x^a, all members, adds
      |a - b| such steps.
    - |a - b| <= rho(x^a, x^b): the letter-sign sum s is a homomorphism
      onto the integers (x -> 1), so f(u, v) = |s(u) - s(v)| is closed
      under every rule: f(u^-1, v^-1) = f(u, v), f(uw, vz) <= f(u, v) +
      f(w, z) and f(a, b) <= f(a, m) + f(m, b).  It is 0 on the diagonal
      and 1 at (x, e), so it lies below the greatest such function.
    Distinct reduced words in x alone have distinct letter-sign sums, so the
    table is positive off the diagonal.  Its n^2 cells fit
    ``pair_cell_budget``: the stage's enumeration refuses it otherwise."""
    word_of = universe.store.word_of
    exponent = [sum(sign for _, sign in word_of(m)) for m in stage.members]
    return [abs(a - b) for i, a in enumerate(exponent) for b in exponent[i + 1 :]], 1


def rho_extend(universe, stage, prev, cfg):
    """The greatest symmetric function below delta satisfying inversion
    equality, product splitting, convexity and the triangle inequality, as
    ``(ints, scale)``: its values ``ints / scale`` on the member pairs
    i < j, a list in ``Stage.cells`` order; the diagonal is zero.

    One closure computes it: ``_rho_closure`` over the word space W of the
    words of length <= L over the stage's letters.  W is the ambient space
    (L = ambient_expansion * word_cap) when its |W|^2 cells fit
    ``pair_cell_budget``, and otherwise the members space (L = word_cap),
    whose words are exactly the stage's members in member order: the
    stage enumerates its members by the same ``WordSpace``.  The budget
    picks the space, not the rules; ``stage.notes["rho_mode"]`` names it.
    The stage's enumeration refuses a members space over the budget too.

    The system on W seeds delta on member pairs (both orders) and 0 on the
    diagonal.  Its rules are composition D(uw, vz) <= D(u, v) + D(w, z) for
    the generators (w, z) = (w, w), every word w, and (a, b), member pairs
    a != b, on both sides (right block: source (u, v), target (uw, vz); left
    block: target (wu, zv)); the inverse mirror D(u, v) = D(u^-1, v^-1); the
    convex instances D(a, b) <= sum c D(a, z), in both orders; and the
    triangle inequality D(a, b) <= D(a, m) + D(m, b) over member triples.
    Every family is invariant under transposing the cells, so the greatest
    fixpoint is symmetric and is read off either order.

    (i) With L = word_cap the cells are the member pairs, and the system
    is, rule for rule, the metric's rules written over member pairs alone.
    Product splitting rho(uv, st) <= rho(u, s) + rho(v, t), over members
    whose products uv and st are members, is the right block of the
    generator (v, t) at the source (u, s); when v = t its second term is
    the diagonal generator (v, v) at cost 0, and when u = s its first term
    is the source (u, u), seeded 0.  A left block is a splitting instance
    with the factors' roles swapped.  Inversion is the mirror (every
    member's inverse is a member), and the convex instances, the triangle
    instances and the delta seeds are the same.  So both have the same
    closed functions below delta, and the same greatest one.

    (ii) With L >= 2 word_cap the triangle family is implied.  Let a, b, m
    be members with a != m != b (otherwise the instance is trivial, as
    D(m, m) = 0).  The left block of the diagonal generator (m^-1, m^-1) at
    the source (m, b) gives D(e, m^-1 b) <= D(m, b), because m^-1 b has
    length <= 2 word_cap <= L; the left block of the generator (a, m) at the
    source (e, m^-1 b) then gives D(a, b) <= D(a, m) + D(e, m^-1 b) <=
    D(a, m) + D(m, b).  So every function closed under the other families is
    closed under the triangle family, and every greatest fixpoint is the
    one without it.

    As ambient_expansion is an integer, L is word_cap or at least
    2 word_cap.  At expansion 1 the ambient space is the members space, so
    the budget cannot change a value there (it builds or refuses that
    space), and at expansion >= 2 the triangle family changes none (ii).
    """
    if stage.index == 1:
        return _base_case_table(universe, stage, cfg)

    alphabet, max_len = rho_space_len(universe, stage, cfg)
    table, sweeps, entries = _rho_closure(universe, stage, delta_bounds(universe, prev), WordSpace(alphabet, max_len))
    stage.notes["rho_sweeps"] = sweeps
    stage.notes["rho_entries"] = entries
    stage.notes["rho_mode"] = "ambient" if max_len == cfg.ambient_expansion * stage.word_cap else "members"
    return table


def _rho_closure(universe, stage, delta: PairTable, space: WordSpace):
    """The pair-composition closure of ``rho_extend``'s system over
    ``space``; returns the table as ``rho_extend`` does, the sweep count and
    the candidate cells composed (``PairComposition.entries``), or refuses a
    table that is not finite and positive off the diagonal."""
    store = universe.store
    engine = PairComposition(space, inverse=True)
    word_idx = {m: space.idx(store.word_of(m)) for m in stage.members}

    for (a, b), val in delta.items():
        engine.seed(word_idx[a], word_idx[b], val)
        engine.seed(word_idx[b], word_idx[a], val)
    for i in range(len(space)):
        engine.seed(i, i, Fraction(0))
        engine.add_generator(i, i)
    for a in stage.members:
        for b in stage.members:
            if a != b:
                engine.add_generator(word_idx[a], word_idx[b])
    engine.add_triangle(word_idx.values())
    for inverse in (False, True):
        for b, terms in store.convex_instances(stage, inverse):
            wb = word_idx[b]
            for a in stage.members:
                if a != b:
                    wa = word_idx[a]
                    engine.add_convex((wa, wb), [(c, (wa, word_idx[z])) for c, z in terms])
                    engine.add_convex((wb, wa), [(c, (word_idx[z], wa)) for c, z in terms])
    closure, sweeps = engine.solve()
    # every family is transpose-symmetric (``rho_extend``)
    ints, scale = closure.pairs(list(word_idx.values()))
    missing, nonpositive = ints >= closure.inf, ints <= 0
    if (missing | nonpositive).any():  # the first such pair in member order
        i = int((missing | nonpositive).argmax())
        a, b = next(islice(combinations(stage.members, 2), i, None))
        raise MetricExtensionError(f"metric not finite on pair ({a}, {b})" if missing[i]
                                   else f"zero off-diagonal metric value at ({a}, {b})")
    return (ints.tolist(), scale), sweeps, engine.entries

