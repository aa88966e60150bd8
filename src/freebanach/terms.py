"""Canonical element terms of the countable set X and the interning store.

X carries two unrelated algebraic structures: a free group (elements are
irreducible words over the promoted generator set S) and a dyadic vector
space (elements are finite coefficient functions over the promoted basis B).
The shared unit e is both the group identity and the vector zero; it is
always interned with the reserved id 0.

An element is stored exactly once, as one of four canonical term shapes:

* ``UNIT``                     -- e
* ``GenTerm(k)``               -- a primordial generator (the construction
                                  uses the single generator x = GenTerm(0))
* ``WordTerm(letters)``        -- an irreducible word of signed letters
* ``ComboTerm(coeffs)``        -- a formal dyadic combination of basis ids

Structural equality of canonical terms coincides with equality in X, so the
interning store is a bijection between ids and elements.

``WordSpace`` enumerates the irreducible words up to a length cap; the word
stages and the metric closures both draw their words from it, after
``count_words`` has checked the size against their budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .scalars import DY_ONE, Dyadic

Letters = tuple[tuple[int, int], ...]


class AlgebraError(ValueError):
    pass


class InvalidLetterError(AlgebraError):
    """A word letter whose base is not a registered generator."""


class StageUnderflowError(AlgebraError):
    """Operand is not expressible as a word over the registered generators."""


class BasisUnderflowError(AlgebraError):
    """Operand of a linear combination is not a registered basis element."""


class CanonicalityError(AlgebraError):
    """Attempt to intern a term violating the canonical-form invariants."""


@dataclass(frozen=True)
class UnitTerm:
    def __repr__(self):
        return "e"


@dataclass(frozen=True)
class GenTerm:
    index: int

    def __repr__(self):
        return f"gen{self.index}" if self.index else "x"


@dataclass(frozen=True)
class WordTerm:
    # letters are (base_id, sign) with sign in {+1, -1}
    letters: tuple[tuple[int, int], ...]

    def __repr__(self):
        return "*".join(f"[{b}]" + ("" if s > 0 else "^-1") for b, s in self.letters)


@dataclass(frozen=True)
class ComboTerm:
    # coeffs are (basis_id, Dyadic), sorted by basis_id, all nonzero
    coeffs: tuple[tuple[int, Dyadic], ...]

    def __repr__(self):
        return " + ".join(f"{c}*[{b}]" for b, c in self.coeffs)


UNIT = UnitTerm()
ElementTerm = UnitTerm | GenTerm | WordTerm | ComboTerm

UNIT_ID = 0


def reduce_concat(a: Letters, b: Letters) -> Letters:
    """Reduced product of two already-irreducible words: only the junction
    cancels, the last k letters of a against the first k of b."""
    if not (a and b and a[-1][0] == b[0][0] and a[-1][1] == -b[0][1]):
        return a + b  # the common case: nothing cancels
    k = 1
    for (p, s), (q, t) in zip(reversed(a[:-1]), b[1:]):
        if p != q or s != -t:
            break
        k += 1
    return a[: len(a) - k] + b[k:]


def invert_word(w: Letters) -> Letters:
    """The inverse of a word, letters reversed and signs flipped (irreducible if w is)."""
    return tuple((b, -s) for b, s in reversed(w))


def pair_key(a: int, b: int) -> tuple[int, int]:
    """The key of the unordered pair {a, b} in a word stage's table."""
    return (a, b) if a <= b else (b, a)


def count_words(alphabet: Iterable[tuple[int, int]], max_len: int) -> int:
    """``len(WordSpace(alphabet, max_len))`` without building the space: a
    letter whose inverse is in the alphabet has one follower fewer, so the
    words ending in paired and in unpaired letters grow by a 2 x 2 step."""
    letters = set(alphabet)
    paired = sum((base, -sign) in letters for base, sign in letters)
    free = len(letters) - paired
    total, ends_paired, ends_free = 1, paired, free
    for _ in range(max_len):
        total += ends_paired + ends_free
        ends_paired, ends_free = (ends_paired * (paired - 1) + ends_free * paired,
                                  (ends_paired + ends_free) * free)
    return total


class WordSpace:
    """The irreducible words of length <= max_len over a signed-letter
    alphabet, shortest first and in alphabet order within a length, with
    reduced-product lines for the composition engine."""

    def __init__(self, alphabet: list[tuple[int, int]], max_len: int):
        self.alphabet = list(alphabet)
        self.max_len = max_len
        self.words: list[Letters] = [()]
        self.index: dict[Letters, int] = {(): 0}
        frontier: list[Letters] = [()]
        for _ in range(max_len):
            nxt: list[Letters] = []
            for w in frontier:
                for letter in self.alphabet:
                    if w and w[-1][0] == letter[0] and w[-1][1] == -letter[1]:
                        continue
                    grown = w + (letter,)
                    self.index[grown] = len(self.words)
                    self.words.append(grown)
                    nxt.append(grown)
            frontier = nxt

    def __len__(self) -> int:
        return len(self.words)

    def idx(self, w: Letters) -> Optional[int]:
        return self.index.get(w)

    # numpy is imported on first use, not with the module: the word stages
    # need only the words, and importing numpy ahead of the rest of the
    # package made a cold start of the package about 10 % slower on a busy
    # 2-core host (0.166 s against 0.148 s to the end of set-up).
    def product_lines(self, w: int):
        """For every word u, the index of the reduced product u.w and of
        w.u, or -1 where the product leaves the space.  A product longer
        than the two lengths allow is reduced only if its junction cancels."""
        import numpy as np

        word, n = self.words[w], len(self.words)
        right, left = np.full(n, -1, dtype=np.intp), np.full(n, -1, dtype=np.intp)
        room = self.max_len - len(word)
        head = word and (word[0][0], -word[0][1])  # the last letter of u that cancels in u.w
        tail = word and (word[-1][0], -word[-1][1])  # the first letter of u that cancels in w.u
        for i, u in enumerate(self.words):
            fits = len(u) <= room
            if fits or u[-1] == head:
                right[i] = self.index.get(reduce_concat(u, word), -1)
            if fits or u[0] == tail:
                left[i] = self.index.get(reduce_concat(word, u), -1)
        return right, left

    def inverse_map(self):
        import numpy as np

        return np.array([self.index[invert_word(w)] for w in self.words], dtype=np.int32)


class TermStore:
    """Interning store mapping canonical terms to stable integer ids.

    Single-writer during stage construction; once a stage is built all
    reads are pure. Ids are assigned in insertion order, so a fixed
    enumeration order yields bit-identical stores across runs.
    """

    def __init__(self):
        self._terms: list[ElementTerm] = [UNIT]
        self._index: dict[ElementTerm, int] = {UNIT: UNIT_ID}
        self._generators: set[int] = set()
        self._basis: set[int] = set()
        self._rank_memo: dict[int, int] = {UNIT_ID: 0}

    def __len__(self) -> int:
        return len(self._terms)

    def term(self, eid: int) -> ElementTerm:
        return self._terms[eid]

    def lookup(self, term: ElementTerm) -> Optional[int]:
        return self._index.get(term)

    def intern(self, term: ElementTerm) -> int:
        """Return the id of ``term``, assigning the next id if new. Idempotent.
        A new term is hashed once; if it is refused, it leaves no entry."""
        terms, index = self._terms, self._index
        eid = index.setdefault(term, len(terms))
        if eid == len(terms):
            try:
                self._check_canonical(term)
            except BaseException:
                del index[term]
                raise
            terms.append(term)
        return eid

    def intern_words(self, words: Iterable[Letters]) -> list[int]:
        """Ids of irreducible words over registered generators, as
        ``WordSpace`` yields them, without folding each one again by
        ``reduce_word``: the empty word is the unit, a single positive letter
        its base element, and any other word a ``WordTerm`` that ``intern``
        checks."""
        ids = []
        for w in words:
            if not w:
                ids.append(UNIT_ID)
            elif len(w) == 1 and w[0][1] == 1:
                if w[0][0] not in self._generators:
                    raise InvalidLetterError(f"id {w[0][0]} is not a registered generator")
                ids.append(w[0][0])
            else:
                ids.append(self.intern(WordTerm(w)))
        return ids

    def intern_grid(self, basis: Sequence[int], scalars: Sequence[Dyadic]) -> list[int]:
        """Ids of every coefficient function from ``basis`` into ``scalars``,
        in ``itertools.product`` order (the last axis varies fastest).

        Hash-consed on the scalar layer: each axis has one shared ``(b, c)``
        pair per nonzero scalar, and a cell's coefficients are those pairs,
        its zero digits left out.  ``_check_canonical``'s combination
        invariants are therefore checked once for the grid, not per member:
        the basis ids strictly increase and are registered.  The empty cell
        is the unit and a singleton coefficient-1 cell the basis element
        itself, as ``combo_from_map`` would fold them."""
        prev = -1
        for b in basis:
            if b <= prev:
                raise CanonicalityError("combination keys not strictly increasing")
            prev = b
            if b not in self._basis:
                raise BasisUnderflowError(f"id {b} is not a registered basis element")
        cells: list[tuple] = [()]
        for b in basis:  # prefix by prefix; a zero digit adds () and so shares its prefix
            options = [((b, c),) if c else () for c in scalars]
            cells = [cell + option for cell in cells for option in options]
        terms, index, ids = self._terms, self._index, []
        for coeffs in cells:
            if not coeffs:
                ids.append(UNIT_ID)
            elif len(coeffs) == 1 and coeffs[0][1] == DY_ONE:
                ids.append(coeffs[0][0])
            else:
                term = ComboTerm(coeffs)
                eid = index.setdefault(term, len(terms))  # one hash: found, or the next id
                if eid == len(terms):
                    terms.append(term)
                ids.append(eid)
        return ids

    def register_generator(self, eid: int) -> None:
        self._generators.add(eid)

    def register_basis(self, eid: int) -> None:
        self._basis.add(eid)

    def is_generator(self, eid: int) -> bool:
        return eid in self._generators

    # -- canonical form ------------------------------------------------

    def _check_canonical(self, term: ElementTerm) -> None:
        if isinstance(term, (UnitTerm, GenTerm)):
            return
        if isinstance(term, WordTerm):
            w = term.letters
            if len(w) == 0:
                raise CanonicalityError("empty word must be the unit")
            if len(w) == 1 and w[0][1] == 1:
                raise CanonicalityError("length-1 positive word collapses to its base")
            for base, sign in w:
                if base == UNIT_ID:
                    raise CanonicalityError("unit letter in word")
                if sign not in (1, -1):
                    raise CanonicalityError(f"bad sign {sign}")
                if base not in self._generators:
                    raise InvalidLetterError(f"id {base} is not a registered generator")
            for (b1, s1), (b2, s2) in zip(w, w[1:]):
                if b1 == b2 and s1 == -s2:
                    raise CanonicalityError("adjacent cancelling letters")
            return
        if isinstance(term, ComboTerm):
            cs = term.coeffs
            if len(cs) == 0:
                raise CanonicalityError("empty combination collapses to the unit")
            if len(cs) == 1 and cs[0][1] == DY_ONE:
                raise CanonicalityError("singleton coefficient-1 combination collapses")
            prev = -1
            for b, c in cs:
                if b <= prev:
                    raise CanonicalityError("combination keys not strictly increasing")
                prev = b
                if not c:
                    raise CanonicalityError("zero coefficient in combination")
                if b not in self._basis:
                    raise BasisUnderflowError(f"id {b} is not a registered basis element")
            return
        raise CanonicalityError(f"unknown term {term!r}")

    # -- free-group structure -------------------------------------------

    def reduce_word(self, letters: Iterable[tuple[int, int]]) -> ElementTerm:
        """Fold a letter sequence to its unique irreducible form.

        Unit letters are deleted and adjacent mutually-inverse letters cancel;
        an empty result is the unit and a single positive letter collapses to
        its base element.
        """
        stack: list[tuple[int, int]] = []
        for base, sign in letters:
            if base == UNIT_ID:
                continue
            if base not in self._generators:
                raise InvalidLetterError(f"id {base} is not a registered generator")
            if stack and stack[-1][0] == base and stack[-1][1] == -sign:
                stack.pop()
            else:
                stack.append((base, sign))
        if not stack:
            return UNIT
        if len(stack) == 1 and stack[0][1] == 1:
            return self._terms[stack[0][0]]
        return WordTerm(tuple(stack))

    def word_of(self, eid: int) -> tuple[tuple[int, int], ...]:
        """Canonical letter sequence of a word-expressible element."""
        term = self._terms[eid]
        if isinstance(term, UnitTerm):
            return ()
        if isinstance(term, WordTerm):
            return term.letters
        # a generator or basis element used as a single positive letter
        if eid in self._generators:
            return ((eid, 1),)
        raise StageUnderflowError(
            f"id {eid} ({term!r}) is not a word over registered generators; "
            "promote its stage first"
        )

    def group_mul(self, a: int, b: int) -> ElementTerm:
        return self.reduce_word(self.word_of(a) + self.word_of(b))

    def group_inv(self, a: int) -> ElementTerm:
        return self.reduce_word(invert_word(self.word_of(a)))

    def mul_id(self, a: int, b: int) -> int:
        return self.intern(self.group_mul(a, b))

    def inv_id(self, a: int) -> int:
        return self.intern(self.group_inv(a))

    # -- vector-space structure ------------------------------------------

    def coeffs_of(self, eid: int) -> tuple[tuple[int, Dyadic], ...]:
        """Basis decomposition of a vector-expressible element."""
        term = self._terms[eid]
        if isinstance(term, UnitTerm):
            return ()
        if isinstance(term, ComboTerm):
            return term.coeffs
        if eid in self._basis:
            return ((eid, DY_ONE),)
        raise BasisUnderflowError(
            f"id {eid} ({term!r}) is not a registered basis element"
        )

    def lin_combine(self, parts: Sequence[tuple[Dyadic, int]]) -> ElementTerm:
        """Merge a formal dyadic combination of basis elements (unit = zero)."""
        acc: dict[int, Dyadic] = {}
        for coeff, eid in parts:
            if eid == UNIT_ID or not coeff:
                continue
            for b, c in self.coeffs_of(eid):
                cur = acc.get(b)
                nxt = coeff * c if cur is None else cur + coeff * c
                if nxt:
                    acc[b] = nxt
                elif cur is not None:
                    del acc[b]
        return self.combo_from_map(acc)

    def combine_id(self, a: int, b: int, sign: int = -1) -> Optional[int]:
        """Id of the vector a - b (sign -1) or a + b (sign +1), if interned."""
        return self.lookup(self.lin_combine([(DY_ONE, a), (Dyadic(sign), b)]))

    def combo_from_map(self, coeffs: dict[int, Dyadic]) -> ElementTerm:
        items = tuple(sorted(((b, c) for b, c in coeffs.items() if c), key=lambda t: t[0]))
        if not items:
            return UNIT
        if len(items) == 1 and items[0][1] == DY_ONE:
            return self._terms[items[0][0]]
        return ComboTerm(items)

    def vector_ints(self, eid: int, basis_order: dict[int, int], dim: int, shift: int) -> tuple[int, ...]:
        """Coefficients of a vector-expressible element over an ordered
        basis, as numerators over 2^shift; ``shift`` must be at least each
        coefficient's ``log2den`` (a vector stage's largest scalar exponent
        covers its members and the previous stages' members)."""
        vec = [0] * dim
        for b, c in self.coeffs_of(eid):
            vec[basis_order[b]] = c.num << (shift - c.log2den)
        return tuple(vec)

    def vector_fractions(self, eid: int, basis_order: dict[int, int], dim: int) -> tuple[Fraction, ...]:
        """``vector_ints`` as the coefficients themselves, Fractions."""
        shift = max((c.log2den for _, c in self.coeffs_of(eid)), default=0)
        return tuple(Fraction(x, 1 << shift) for x in self.vector_ints(eid, basis_order, dim, shift))

    # -- rank -------------------------------------------------------------

    def convex_decomposition(self, eid: int) -> Optional[tuple[tuple[int, Dyadic], ...]]:
        """The unique basis decomposition of ``eid`` when it is a convex
        combination with support >= 2, strictly positive coefficients summing
        to 1; otherwise None. Linear independence of B makes this structural
        test equivalent to existence of any such decomposition."""
        term = self._terms[eid]
        if not isinstance(term, ComboTerm):
            return None
        if len(term.coeffs) < 2:
            return None
        total = Fraction(0)
        for _, c in term.coeffs:
            if c.num <= 0:
                return None
            total += c.as_fraction()
        if total != 1:
            return None
        return term.coeffs

    def inverse_convex_decomposition(self, eid: int) -> Optional[tuple[tuple[int, Dyadic], ...]]:
        """Convex decomposition of the group inverse of ``eid``, if any.

        Only a length-1 negative word can have a combination as its inverse,
        so no generator registration is needed to decide this structurally.
        """
        term = self._terms[eid]
        if isinstance(term, WordTerm) and len(term.letters) == 1:
            base, sign = term.letters[0]
            if sign == -1:
                return self.convex_decomposition(base)
        return None

    def convex_instances(self, stage, inverse: bool) -> list[tuple[int, tuple[tuple[Fraction, int], ...]]]:
        """The stage's members b = c_1 a_1 + ... + c_k a_k with a convex
        decomposition, or with ``inverse`` those b = (c_1 a_1 + ...)^-1, as
        (b, ((c_1, z_1), ...)) where z_i is a_i, or with ``inverse`` the
        group inverse of a_i.  A member whose z_i do not all lie in the stage
        is left out.  These are the instances of the convex and
        inverse-convex inequalities: rho(a, b) <= sum_i c_i rho(a, z_i)."""
        out = []
        for b in stage.members:
            dec = self.inverse_convex_decomposition(b) if inverse else self.convex_decomposition(b)
            if dec is None:
                continue
            terms = tuple(
                (coeff.as_fraction(), self.lookup(self.group_inv(a)) if inverse else a)
                for a, coeff in dec
            )
            if all(z in stage.member_set for _, z in terms):
                out.append((b, terms))
        return out

    def rank(self, eid: int) -> int:
        """Stage-recursive rank: 0 unless the element or its inverse is a
        convex combination of basis elements, else 1 + max rank of the support."""
        memo = self._rank_memo
        found = memo.get(eid)
        if found is not None:
            return found
        dec = self.convex_decomposition(eid)
        if dec is None:
            dec = self.inverse_convex_decomposition(eid)
        if dec is None:
            memo[eid] = 0
            return 0
        r = 1 + max(self.rank(b) for b, _ in dec)
        memo[eid] = r
        return r
