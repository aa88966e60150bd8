"""Expression grammar: parse shapes, errors with offsets, eval, round trips."""

import random

import pytest

from freebanach import Config, Universe, UNIT_ID
from freebanach.exprs import (
    Atom,
    ExprSyntaxError,
    Inv,
    OutOfUniverseError,
    Prod,
    Sum,
    eval_expr,
    parse_expr,
    render_expr,
)
from freebanach.scalars import Dyadic, ScalarDomainError
from freebanach.terms import BasisUnderflowError, StageUnderflowError


def test_parse_examples():
    assert parse_expr("x . inv(x)") == Prod(Atom("x"), Inv(Atom("x")))
    assert parse_expr("1/2 x + 1/2 inv(x)") == Sum(
        ((Dyadic(1, 1), Atom("x")), (Dyadic(1, 1), Inv(Atom("x"))))
    )
    assert parse_expr("x") == Atom("x")
    assert parse_expr("( x )") == Atom("x")
    assert parse_expr("x - x") == Sum(((Dyadic(1), Atom("x")), (Dyadic(-1), Atom("x"))))
    assert parse_expr("x.x.x") == Prod(Prod(Atom("x"), Atom("x")), Atom("x"))


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x +")
    assert err.value.offset == 3
    with pytest.raises(ExprSyntaxError):
        parse_expr("inv(x")
    with pytest.raises(ExprSyntaxError):
        parse_expr("x )")
    with pytest.raises(ExprSyntaxError):
        parse_expr("")


def test_scalar_domain_error():
    with pytest.raises(ScalarDomainError):
        parse_expr("1/3 x")


def test_eval_examples(exact_universe):
    u = exact_universe
    assert eval_expr(parse_expr("x . inv(x)"), u) == UNIT_ID
    gid = eval_expr(parse_expr("1/2 x + 1/2 inv(x)"), u)
    assert gid in u.stage(2).member_set and gid not in u.stage(1).member_set
    assert eval_expr(parse_expr("e"), u) == UNIT_ID
    assert eval_expr(parse_expr("x . e"), u) == u.x_id


def test_eval_out_of_universe():
    cfg = Config(stage_count=1, word_caps=(2,))
    u = Universe(cfg).build()
    assert eval_expr(parse_expr("x . x"), u) is not None
    with pytest.raises(OutOfUniverseError) as err:
        eval_expr(parse_expr("x . x . x . x"), u)
    assert err.value.missing_stage == 2


def test_eval_algebra_errors(exact_universe):
    u = exact_universe
    # inverting a combination that is not yet a promoted generator
    with pytest.raises(StageUnderflowError):
        eval_expr(parse_expr("inv(1/2 x + 1/2 inv(x))"), u)
    # scalar-combining a non-basis word
    with pytest.raises(BasisUnderflowError):
        eval_expr(parse_expr("e + 1/2 (x . x)"), u)


def test_eval_reassociation_invariance(exact_universe):
    u = exact_universe
    a = eval_expr(parse_expr("(x . inv(x)) . x"), u)
    b = eval_expr(parse_expr("x . (inv(x) . x)"), u)
    assert a == b == u.x_id
    c = eval_expr(parse_expr("1/2 x + (1/4 x + 1/4 x)"), u)
    d = eval_expr(parse_expr("(1/2 x + 1/4 x) + 1/4 x"), u)
    assert c == d == u.x_id


def _random_expr(rng, depth):
    """Grammar-producible trees only (see the parser's normalizations)."""
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice("xe"))
    kind = rng.randrange(4)
    if kind == 0:
        return Inv(_random_expr(rng, depth - 1))
    if kind == 1:
        return Prod(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == 2:  # scalar-prefixed atom
        return Sum(((_random_dyadic(rng), Atom(rng.choice("xe"))),))
    terms = []
    first = _random_expr(rng, depth - 1)
    if isinstance(first, Sum) and len(first.terms) == 1:
        coeff, inner = first.terms[0]
        terms.append((coeff, inner))
    else:
        terms.append((Dyadic(1), first))
    for _ in range(rng.randint(1, 3)):
        terms.append((_random_dyadic(rng), _random_expr(rng, depth - 1)))
    return Sum(tuple(terms))


def _random_dyadic(rng):
    num = rng.choice([1, -1, 3, -3, 5, 2])
    return Dyadic(num, rng.randrange(3))


def test_roundtrip_fuzz():
    rng = random.Random(0)
    for _ in range(10_000):
        expr = _random_expr(rng, 3)
        text = render_expr(expr)
        assert parse_expr(text) == expr, text


def test_roundtrip_spec_examples():
    for text in ["x . inv(x)", "1/2 x + 1/2 inv(x)", "inv(inv(x)) . e"]:
        expr = parse_expr(text)
        assert parse_expr(render_expr(expr)) == expr
