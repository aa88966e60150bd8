"""Algebra core: word reduction, group laws, combination merging, rank."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from freebanach.scalars import Dyadic
from freebanach.terms import (
    BasisUnderflowError,
    CanonicalityError,
    ComboTerm,
    GenTerm,
    InvalidLetterError,
    TermStore,
    UNIT,
    UNIT_ID,
    WordSpace,
    WordTerm,
    count_words,
    invert_word,
    reduce_concat,
)


def four_gen_store():
    store = TermStore()
    gens = [store.intern(GenTerm(i)) for i in range(4)]
    for g in gens:
        store.register_generator(g)
    return store, gens


def test_reduce_word_examples():
    store, (x, *_) = four_gen_store()
    assert store.reduce_word([(x, 1), (x, -1)]) == UNIT
    assert store.reduce_word([(x, 1)]) == GenTerm(0)
    assert store.reduce_word([(x, 1), (x, 1)]) == WordTerm(((x, 1), (x, 1)))
    # unit letters are deleted
    assert store.reduce_word([(UNIT_ID, 1), (x, 1), (UNIT_ID, -1)]) == GenTerm(0)


def test_reduce_word_rejects_unregistered():
    store, _ = four_gen_store()
    with pytest.raises(InvalidLetterError):
        store.reduce_word([(99, 1)])


def _naive_reduce(letters):
    """Quadratic scan-until-stable reduction, the independent model."""
    work = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(work) - 1):
            if work[i][0] == work[i + 1][0] and work[i][1] == -work[i + 1][1]:
                del work[i : i + 2]
                changed = True
                break
    return tuple(work)


def test_reduce_exhaustive_small():
    """Idempotence and agreement with the naive model, exhaustively to
    length 5 over a 4-generator signed alphabet."""
    store, gens = four_gen_store()
    letters = [(g, s) for g in gens for s in (1, -1)]
    for n in range(6):
        for seq in itertools.product(letters, repeat=n):
            term = store.reduce_word(seq)
            naive = _naive_reduce(seq)
            if not naive:
                assert term == UNIT
            elif len(naive) == 1 and naive[0][1] == 1:
                assert term == store.term(naive[0][0])
            else:
                assert term == WordTerm(naive)
            # idempotence: reducing the canonical letters changes nothing
            if isinstance(term, WordTerm):
                assert store.reduce_word(term.letters) == term


@pytest.mark.slow
def test_reduce_exhaustive_length_8_two_generators():
    """All raw sequences to length 8 over a two-generator signed alphabet:
    reduction agrees with the naive model and is idempotent.  (The full
    four-generator length-8 sweep is ~4.8e7 sequences; two generators keep
    the same cancellation structure exhaustively testable.)"""
    store, gens = four_gen_store()
    letters = [(g, s) for g in gens[:2] for s in (1, -1)]
    for n in range(9):
        for seq in itertools.product(letters, repeat=n):
            term = store.reduce_word(seq)
            naive = _naive_reduce(seq)
            if not naive:
                assert term == UNIT
            elif len(naive) == 1 and naive[0][1] == 1:
                assert term == store.term(naive[0][0])
            else:
                assert term == WordTerm(naive)


@given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from([1, -1])), max_size=8))
@settings(max_examples=300)
def test_reduce_matches_naive_random(seq):
    store, gens = four_gen_store()
    seq = [(gens[g - 1], s) for g, s in seq]
    naive = _naive_reduce(seq)
    term = store.reduce_word(seq)
    if not naive:
        assert term == UNIT
    elif len(naive) == 1 and naive[0][1] == 1:
        assert term == store.term(naive[0][0])
    else:
        assert term == WordTerm(naive)


LETTERS = st.lists(st.tuples(st.integers(1, 4), st.sampled_from([1, -1])), max_size=8)


@given(LETTERS, LETTERS, st.integers(0, 8))
@settings(max_examples=300)
def test_reduce_concat_matches_reduce_word(x, y, k):
    """The product of two reduced words cancels only at the junction: b
    starts with the inverse of a's last k letters (all of a, and the
    empty word, included) followed by a reduced word."""
    store, gens = four_gen_store()
    a = _naive_reduce([(gens[g - 1], s) for g, s in x])
    b = _naive_reduce(invert_word(a[len(a) - min(k, len(a)) :]) + tuple((gens[g - 1], s) for g, s in y))
    for u, v in ((a, b), (b, a), (a, invert_word(a)), (invert_word(a), a), (a, ()), ((), a)):
        product = reduce_concat(u, v)
        assert product == _naive_reduce(u + v)
        assert store.reduce_word(product) == store.reduce_word(u + v)


def test_group_laws():
    store, gens = four_gen_store()
    sample = [UNIT_ID] + [store.intern(store.reduce_word(w)) for w in [
        ((gens[0], 1),),
        ((gens[0], -1),),
        ((gens[1], 1), (gens[0], 1)),
        ((gens[2], -1), (gens[1], 1), (gens[0], -1)),
        ((gens[3], 1), (gens[3], 1)),
    ]]
    for a in sample:
        assert store.group_mul(a, UNIT_ID) == store.term(a)
        assert store.group_mul(UNIT_ID, a) == store.term(a)
        assert store.group_mul(a, store.intern(store.group_inv(a))) == UNIT
        assert store.group_inv(store.intern(store.group_inv(a))) == store.term(a)
        for b in sample:
            for c in sample:
                ab_c = store.group_mul(store.intern(store.group_mul(a, b)), c)
                a_bc = store.group_mul(a, store.intern(store.group_mul(b, c)))
                assert ab_c == a_bc


def test_group_inv_examples():
    store, (x, *_) = four_gen_store()
    assert store.group_inv(UNIT_ID) == UNIT
    assert store.group_inv(x) == WordTerm(((x, -1),))
    xx = store.intern(WordTerm(((x, 1), (x, 1))))
    assert store.group_inv(xx) == WordTerm(((x, -1), (x, -1)))


def test_opaque_combo_letter():
    """A combination promoted to a generator multiplies without distributing."""
    store, (x, *_) = four_gen_store()
    xi = store.intern(store.group_inv(x))
    store.register_basis(x)
    store.register_basis(xi)
    g = store.intern(store.lin_combine([(Dyadic(1, 1), x), (Dyadic(1, 1), xi)]))
    store.register_generator(g)
    assert store.group_mul(g, g) == WordTerm(((g, 1), (g, 1)))


def basis_store():
    store = TermStore()
    x = store.intern(GenTerm(0))
    store.register_generator(x)
    xi = store.intern(store.group_inv(x))
    store.register_basis(x)
    store.register_basis(xi)
    return store, x, xi


def test_lin_combine_examples():
    store, x, xi = basis_store()
    half = Dyadic(1, 1)
    assert store.lin_combine([(half, x), (half, x)]) == GenTerm(0)
    assert store.lin_combine([(half, x), (-half, x)]) == UNIT
    combo = store.lin_combine([(half, x), (Dyadic(1, 2), xi)])
    assert combo == ComboTerm(((x, half), (xi, Dyadic(1, 2))))
    with pytest.raises(BasisUnderflowError):
        other = store.intern(WordTerm(((x, 1), (x, 1))))
        store.lin_combine([(half, other)])
    # unit acts as zero
    assert store.lin_combine([(half, UNIT_ID), (half, x), (half, x)]) == GenTerm(0)


def test_lin_combine_merge_order_irrelevant():
    store, x, xi = basis_store()
    q = Dyadic(1, 2)
    parts = [(q, x), (q, xi), (q, x), (-q, xi)]
    a = store.lin_combine(parts)
    b = store.lin_combine(list(reversed(parts)))
    assert a == b == ComboTerm(((x, Dyadic(1, 1)),))


def test_vector_diff_helper(desk_universe):
    u = desk_universe
    store = u.store
    x = u.x_id
    xi = store.lookup(store.group_inv(x))
    d = store.combine_id(x, xi)
    assert d is not None
    assert store.combine_id(d, d) == UNIT_ID
    assert store.combine_id(d, xi, sign=1) == x
    # a difference that was never interned has no id
    fresh, fx, fxi = basis_store()
    assert fresh.combine_id(fx, fxi) is None
    assert fresh.combine_id(fx, UNIT_ID) == fx


def test_word_space_enumeration():
    """Every irreducible word up to the cap once, shortest first, in the
    order the word stages intern them; the product lines and inverse map
    agree with the store's group operations."""
    store, (x, y, *_) = four_gen_store()
    letters = [(x, 1), (x, -1), (y, 1), (y, -1)]
    space = WordSpace(letters, 3)
    assert len(space) == 1 + 4 + 4 * 3 + 4 * 9
    assert space.words[:5] == [()] + [(letter,) for letter in letters]
    assert [len(w) for w in space.words] == sorted(len(w) for w in space.words)
    ids = [store.intern(store.reduce_word(w)) for w in space.words]
    assert len(set(ids)) == len(space)
    assert [store.word_of(i) for i in ids] == space.words
    inv = space.inverse_map()
    for j, b in enumerate(ids):
        assert ids[inv[j]] == store.intern(store.group_inv(b))
        right, left = space.product_lines(j)
        for i, a in enumerate(ids):
            for line, product in ((right, store.group_mul(a, b)), (left, store.group_mul(b, a))):
                k = space.idx(store.word_of(store.intern(product)))
                assert line[i] == (-1 if k is None else k)


@pytest.mark.parametrize(
    "letters, max_len",
    [
        ([(1, 1), (1, -1), (2, 1), (2, -1)], 4),
        ([(1, 1), (1, -1), (2, 1), (3, -1), (4, 1)], 4),
        ([(1, 1), (2, 1), (3, -1)], 4),
        ([(1, 1), (1, -1)] + [(g, 1) for g in range(2, 24)], 2),
    ],
    ids=["inverse-closed", "partly-paired", "unpaired", "rank-0-alphabet"],
)
def test_count_words_matches_word_space(letters, max_len):
    """The count the budget checks read equals the size of the space they
    guard, whichever letters have their inverse in the alphabet.  Rank's
    rank-0 alphabet (24 letters, one inverse pair) has 1 + 24 + 2 * 23 +
    22 * 24 = 599 words of length <= 2."""
    for n in range(max_len + 1):
        assert count_words(letters, n) == len(WordSpace(letters, n))


def test_rank_examples():
    store, x, xi = basis_store()
    half = Dyadic(1, 1)
    assert store.rank(x) == 0
    g = store.intern(store.lin_combine([(half, x), (half, xi)]))
    assert store.rank(g) == 1
    store.register_generator(g)
    gi = store.intern(store.group_inv(g))
    assert store.rank(gi) == 1
    # non-convex combinations have rank zero
    h = store.intern(store.lin_combine([(Dyadic(-1), x), (half, xi)]))
    assert store.rank(h) == 0
    assert store.rank(UNIT_ID) == 0
    # a second-level convex combination over a rank-1 basis element
    store.register_basis(gi)
    g2 = store.intern(store.lin_combine([(half, x), (half, gi)]))
    assert store.rank(g2) == 2


def test_interning():
    store, x, xi = basis_store()
    assert UNIT_ID == 0
    assert store.intern(UNIT) == 0
    assert store.intern(GenTerm(0)) == store.intern(GenTerm(0)) == x
    a = store.intern(store.lin_combine([(Dyadic(1, 1), x), (Dyadic(1, 1), xi)]))
    b = store.intern(store.lin_combine([(Dyadic(1, 2), x), (Dyadic(1, 2), xi)]))
    assert a != b
    size = len(store)
    for refused in (WordTerm(()), WordTerm(((x, 1),)), WordTerm(((x, 1), (x, -1))), ComboTerm(()),
                    ComboTerm(((x, Dyadic(1)),))):
        with pytest.raises(CanonicalityError):
            store.intern(refused)
        assert store.lookup(refused) is None and len(store) == size  # a refused term leaves no entry
    assert store.intern(WordTerm(((x, -1), (x, -1)))) == size


def test_grid_refuses_what_check_canonical_refuses():
    """``intern_grid`` checks the combination invariants once for the
    whole grid, and raises the error ``intern`` raises for a member that
    breaks them (basis ids out of order or repeated, or not registered),
    before it interns anything."""
    store, x, xi = basis_store()
    w = store.intern(WordTerm(((x, 1), (x, 1))))  # interned, but no basis element
    one, scalars = Dyadic(1), (Dyadic(-1), Dyadic(0), Dyadic(1))
    size = len(store)
    for basis, error in [((xi, x), CanonicalityError), ((x, x), CanonicalityError),
                         ((x, w), BasisUnderflowError)]:
        with pytest.raises(error):
            store.intern(ComboTerm(tuple((b, one) for b in basis)))
        with pytest.raises(error):
            store.intern_grid(basis, scalars)
        assert len(store) == size


def test_intern_words_is_reduce_word_on_irreducible_words():
    """Interned without a second ``reduce_word``, the irreducible words get
    the ids the fold gives; a letter that is no registered generator is
    refused as ``reduce_word`` refuses it."""
    store, (x, y, *_) = four_gen_store()
    words = WordSpace([(x, 1), (x, -1), (y, 1), (y, -1)], 3).words
    ids = store.intern_words(words)
    assert ids[:2] == [UNIT_ID, x]  # the empty word and a positive letter: no term interned
    assert ids == [store.intern(store.reduce_word(w)) for w in words]
    for word in [((99, 1),), ((99, -1),), ((x, 1), (99, 1))]:
        with pytest.raises(InvalidLetterError):
            store.reduce_word(word)
        with pytest.raises(InvalidLetterError):
            store.intern_words([word])


def test_id_equality_iff_structural(exact_universe):
    store = exact_universe.store
    seen = {}
    for stage in exact_universe.stages:
        for m in stage.members:
            t = store.term(m)
            assert seen.setdefault(t, m) == m
            assert store.intern(t) == m
