"""Correctness gate and query inputs that do not depend on element ids.

Every member of every sealed stage is rendered as an expression in the
CLI grammar, so a table can be named by text and exact value alone.  The
digest of a preset is the SHA-256 of its sorted table lines; it survives
changes to the export format and to interning order, which a hash of
export bytes or of element ids would not.

The grammar allows a leading scalar only on an atom, so combinations are
written ``e + c (...) + ...``: ``e`` is the vector zero.
"""

from __future__ import annotations

import hashlib
import random

from freebanach.exprs import eval_expr, parse_expr
from freebanach.scalars import fraction_str
from freebanach.terms import ComboTerm, GenTerm, UnitTerm, WordTerm


class Renderer:
    """Element id -> expression text, memoised per universe."""

    def __init__(self, universe):
        self.store = universe.store
        self.memo: dict[int, str] = {}

    def __call__(self, eid: int) -> str:
        text = self.memo.get(eid)
        if text is None:
            text = self._render(eid)
            self.memo[eid] = text
        return text

    def _render(self, eid: int) -> str:
        term = self.store.term(eid)
        if isinstance(term, UnitTerm):
            return "e"
        if isinstance(term, GenTerm):
            if term.index != 0:
                raise ValueError(f"generator {term!r} has no name in the grammar")
            return "x"
        if isinstance(term, WordTerm):
            return " . ".join(
                self._factor(base) if sign > 0 else f"inv({self(base)})"
                for base, sign in term.letters
            )
        if isinstance(term, ComboTerm):
            parts = ["e"]
            for base, coeff in term.coeffs:
                sign = "-" if coeff.num < 0 else "+"
                parts.append(f"{sign} {abs(coeff)} ({self(base)})")
            return " ".join(parts)
        raise TypeError(f"unknown term {term!r}")

    def _factor(self, eid: int) -> str:
        text = self(eid)
        return text if text == "x" else f"({text})"


def table_lines(universe, render: Renderer) -> list[str]:
    """Sorted ``stage, text(s), value`` lines of every sealed stage table."""
    lines = []
    for stage in universe.stages:
        if not stage.sealed:
            continue
        if stage.kind == "vector":
            for m in stage.members:
                lines.append(f"{stage.index}\t{render(m)}\t{fraction_str(stage.table[m])}")
        else:
            members = stage.members
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    ta, tb = sorted((render(a), render(b)))
                    value = universe.rho(stage, a, b)
                    lines.append(f"{stage.index}\t{ta}\t{tb}\t{fraction_str(value)}")
    lines.sort()
    return lines


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def roundtrip_mismatches(universe, render: Renderer) -> list[str]:
    """Member texts that do not parse and evaluate back to their member."""
    bad = []
    for stage in universe.stages:
        if not stage.sealed:
            continue
        for m in stage.members:
            text = render(m)
            if eval_expr(parse_expr(text), universe) != m:
                bad.append(text)
    return bad


def member_count(universe) -> int:
    return sum(len(s.members) for s in universe.stages if s.sealed)


def summary(universe, render: Renderer) -> dict:
    lines = table_lines(universe, render)
    return {"members": member_count(universe), "lines": len(lines), "sha256": digest(lines)}


def check_digest(universe, reference: dict) -> list[str]:
    """Problems found against a reference ``summary``; empty when every
    member round-trips and the tables match."""
    render = Renderer(universe)
    problems = [f"member text does not round-trip: {t!r}" for t in roundtrip_mismatches(universe, render)]
    got = summary(universe, render)
    for key, want in reference.items():
        if got.get(key) != want:
            problems.append(f"{key}: got {got.get(key)!r}, reference {want!r}")
    return problems


# ---------------------------------------------------------------------------
# query stream
# ---------------------------------------------------------------------------


class Answers:
    """Expected CLI answers read off a built universe's tables, by the CLI's
    routing rule: the first sealed stage that carries the element (a norm
    stage) or the pair (a word stage holding both, or a norm stage holding
    both and their difference) gives the answer."""

    def __init__(self, universe):
        self.universe = universe
        self.sealed = [s for s in universe.stages if s.sealed]
        self.by_coeffs = {
            s.index: {self._coeffs_key(self._coeffs(m)): m for m in s.members}
            for s in self.sealed
            if s.kind == "vector"
        }

    def _coeffs(self, eid: int, sign: int = 1) -> dict:
        return {b: sign * c.as_fraction() for b, c in self.universe.store.coeffs_of(eid)}

    def _coeffs_key(self, coeffs: dict) -> frozenset:
        return frozenset((b, c) for b, c in coeffs.items() if c)

    def norm(self, eid: int):
        for stage in self.sealed:
            if stage.kind == "vector" and eid in stage.member_set:
                return f"{fraction_str(stage.table[eid])} (stage {stage.index})"
        return None

    def dist(self, a: int, b: int):
        if a == b:
            return "0 (identical elements)"
        for stage in self.sealed:
            if a not in stage.member_set or b not in stage.member_set:
                continue
            if stage.kind == "word":
                return f"{fraction_str(self.universe.rho(stage, a, b))} (stage {stage.index})"
            diff = self._coeffs(a)
            for base, c in self._coeffs(b, -1).items():
                diff[base] = diff.get(base, 0) + c
            d = self.by_coeffs[stage.index].get(self._coeffs_key(diff))
            if d is not None:
                return f"{fraction_str(stage.table[d])} (stage {stage.index})"
        return None

    def __call__(self, command: str, ids: tuple[int, ...]):
        return self.norm(*ids) if command == "norm" else self.dist(*ids)


# Equivalent non-canonical spellings of a member's text, for the correctness
# checks: words and combinations are spelt differently.
WORD_SPELLINGS = ("inv(inv({t}))", "({t}) . inv({t}) . ({t})", "e . ({t})")
COMBO_SPELLINGS = ("e + 1/2 ({t}) + 1/2 ({t})", "({t}) + e", "e - 1 (x) + 1 ({t}) + 1 (x)")


def _spelling(universe, eid: int, render: Renderer, form: int) -> str:
    text = render(eid)
    store = universe.store
    word_like = eid == 0 or store.is_generator(eid) or isinstance(store.term(eid), WordTerm)
    forms = WORD_SPELLINGS if word_like else COMBO_SPELLINGS
    return forms[form % len(forms)].format(t=text)


# The project README's query examples are two norm queries and one dist
# query, and ROADMAP's query latency is that of a norm query: so two norm
# queries to one dist query.  The share is fixed, not drawn: a dist query
# evaluates two expressions, and a drawn mix moves the median between the
# two kinds from seed to seed; at one to one the median would lie on the
# boundary between them.
QUERY_CYCLE = ("norm", "norm", "dist")


def _draw(answers: Answers, rng: random.Random, command: str, pools: tuple) -> tuple[tuple[int, ...], str]:
    """Member ids for one query and its answer; pairs that no stage carries
    are redrawn, so every query has an answer."""
    vector_members, all_members = pools
    while True:
        if command == "norm":
            ids = (rng.choice(vector_members),)
        else:
            ids = (rng.choice(all_members), rng.choice(all_members))
        answer = answers(command, ids)
        if answer is not None:
            return ids, answer


def query_stream(
    answers: Answers, rng: random.Random, count: int, spelt: bool = False
) -> list[tuple[list[str], str, tuple[int, ...]]]:
    """``count`` seeded queries ``(argv, expected answer, expected ids)``.

    The commands follow ``QUERY_CYCLE``, in the same order on every run.
    Members are drawn uniformly from the sealed tables: a norm query
    takes a member of a norm stage, a dist query a pair of members.  The
    texts are the members' canonical renderings; with ``spelt`` they are
    equivalent non-canonical spellings instead, cycling through
    ``WORD_SPELLINGS`` and ``COMBO_SPELLINGS``.
    """
    universe = answers.universe
    render = Renderer(universe)
    pools = (
        sorted({m for s in answers.sealed if s.kind == "vector" for m in s.members}),
        sorted({m for s in answers.sealed for m in s.members}),
    )
    out = []
    for i in range(count):
        command = QUERY_CYCLE[i % len(QUERY_CYCLE)]
        ids, answer = _draw(answers, rng, command, pools)
        if spelt:
            texts = [_spelling(universe, eid, render, i + k) for k, eid in enumerate(ids)]
        else:
            texts = [render(eid) for eid in ids]
        out.append(([command, *texts], answer, ids))
    return out
