"""The freeness property: phi evaluation, norm bounds, sigma tables."""

from fractions import Fraction as F

import pytest

from freebanach import Config, Universe, UNIT_ID
from freebanach.scalars import Dyadic
from freebanach.stages import NotBuiltError
from freebanach.terms import ComboTerm
from freebanach.universal import (
    PhiMap,
    TargetSpace,
    check_morphism_bound,
    check_operation_preservation,
    phi_eval,
    sigma_table,
)


def test_phi_examples(exact_universe):
    u = exact_universe
    store = u.store
    x = u.x_id
    xi = store.lookup(store.group_inv(x))
    y = TargetSpace.real(F(1))
    assert phi_eval(u, x, y) == (F(1),)
    assert phi_eval(u, UNIT_ID, y) == (F(0),)
    assert phi_eval(u, xi, y) == (F(-1),)
    g = store.lookup(store.lin_combine([(Dyadic(1, 1), x), (Dyadic(1, 1), xi)]))
    assert phi_eval(u, g, y) == (F(0),)


def test_phi_word_is_additive():
    cfg = Config(stage_count=1, word_caps=(2,))
    u = Universe(cfg).build()
    store = u.store
    x = u.x_id
    xx = store.lookup(store.group_mul(x, x))
    y = TargetSpace.real(F(3, 2))
    assert phi_eval(u, xx, y) == (F(3),)


def test_morphism_bound_all_targets(desk_universe):
    for target in desk_universe.cfg.targets:
        rep = check_morphism_bound(desk_universe, target)
        assert rep.ok, rep.counterexamples[:3]
        # the bound is attained at the generator
        assert rep.meta["worst_ratio_sq"] == "1"


def test_bound_tight_at_generator(desk_universe):
    u = desk_universe
    s2 = u.stage(2)
    for target in u.cfg.targets:
        lhs_sq = target.norm_sq(phi_eval(u, u.x_id, target))
        rhs_sq = target.y_norm_sq() * s2.table[u.x_id] ** 2
        assert lhs_sq == rhs_sq


def test_zero_image_target(desk_universe):
    rep = check_morphism_bound(desk_universe, TargetSpace.real(F(0)))
    assert rep.ok


def test_sigma_base_values(exact_universe):
    u = exact_universe
    target = TargetSpace.real(F(1))
    table, rep = sigma_table(u, target)
    assert rep.ok
    x = u.x_id
    xi = u.store.lookup(u.store.group_inv(x))
    key = (x, UNIT_ID) if x <= UNIT_ID else (UNIT_ID, x)
    assert table.metric_sq[1][key] == 1  # sigma_1(x, e) = 1 = rho_1(x, e)
    key = (x, xi) if x <= xi else (xi, x)
    assert table.metric_sq[1][key] == 4  # sigma_1(x, x^-1) = 2 <= rho = 2


def test_sigma_dominated_normalized(desk_universe):
    """sigma <= rho entrywise after the construction's normalization, for
    every configured target including ||y|| != 1: the morphism bound's
    check, on every entry of every stage."""
    sizes = [(s.kind, len(s.members)) for s in desk_universe.stages]
    entries = sum(n * (n - 1) // 2 if kind == "word" else n for kind, n in sizes)
    for target in desk_universe.cfg.targets:
        rep = check_morphism_bound(desk_universe, target)
        assert rep.ok, rep.counterexamples[:3]
        assert rep.attempted == entries


def test_euclidean_target_exact_squares(desk_universe):
    target = TargetSpace.euclidean((F(1), F(-1, 2)))
    assert target.norm_exact((F(1), F(1))) is None
    assert target.norm_sq((F(3), F(4))) == 25
    rep = check_morphism_bound(desk_universe, target)
    assert rep.ok
    _, rep2 = sigma_table(desk_universe, target)
    assert rep2.ok


def test_operation_preservation(desk_universe):
    for target in desk_universe.cfg.targets:
        rep = check_operation_preservation(desk_universe, target)
        assert rep.ok and rep.attempted > 100


def test_scaling_covariance(desk_universe):
    """Replacing y by lambda*y scales every image by lambda.  PhiMap gives
    S phi' in ints, and S depends on the denominators of y."""
    u = desk_universe
    base = TargetSpace.maximum((F(1), F(-1, 2)))
    phi0 = PhiMap(u, base)
    for lam in (F(2), F(1, 2)):
        scaled = TargetSpace.maximum(tuple(lam * c for c in base.image))
        phi1 = PhiMap(u, scaled)
        assert phi1.scale != phi0.scale
        for m in list(u.stage(4).members)[:300]:
            assert [F(v, phi1.scale) for v in phi1(m)] == [lam * F(v, phi0.scale) for v in phi0(m)]


@pytest.mark.parametrize(
    "preset, scales", [("desk", (1, 2, 2)), ("rank", (2, 4, 4)), ("exact", (2, 4, 4))]
)
def test_phi_scale(preset, scales, request):
    """S per default target: the lcm of y's denominators times 2^K, with K
    read off the scalar sets of the norm stages that have a basis."""
    u = request.getfixturevalue(f"{preset}_universe")
    assert tuple(PhiMap(u, target).scale for target in u.cfg.targets) == scales


def _reference_phi(u, target):
    """phi' member by member in Fraction, from the store's terms: a
    combination is sum c phi'(b) over its ``coeffs_of``, a word the sum of
    its letters."""
    memo = {UNIT_ID: (F(0),) * target.dim, u.x_id: target.image}

    def phi(eid):
        if eid not in memo:
            if isinstance(u.store.term(eid), ComboTerm):
                parts = [(c.as_fraction(), phi(b)) for b, c in u.store.coeffs_of(eid)]
            else:
                parts = [(F(sign), phi(b)) for b, sign in u.store.word_of(eid)]
            memo[eid] = tuple(sum(c * w[i] for c, w in parts) for i in range(target.dim))
        return memo[eid]

    return phi


@pytest.mark.parametrize("preset", ["exact", "rank", "desk", "uneven"])
def test_phi_product_matches_member_reference(preset, request):
    """PhiMap's one product per norm stage equals the per-member reference
    on every vector-stage member, for the default targets and a Euclidean
    one; rank's and the quarters' coefficients divide exactly."""
    u = request.getfixturevalue(f"{preset}_universe")
    members = [m for s in u.stages if s.kind == "vector" for m in s.members]
    for target in (*u.cfg.targets, TargetSpace.euclidean((F(3, 4), F(-1, 2)))):
        phi, ref = PhiMap(u, target), _reference_phi(u, target)
        for m in members:
            assert tuple(F(v, phi.scale) for v in phi(m)) == ref(m)


def test_phi_past_int64(desk_universe):
    """An image of 2^62 drives stage-4 images past 2^63; they stay exact."""
    target = TargetSpace.real(F(2**62))
    phi, ref = PhiMap(desk_universe, target), _reference_phi(desk_universe, target)
    members = desk_universe.stage(4).members
    assert max(abs(phi(m)[0]) for m in members) >= 2**63
    for m in members:
        assert tuple(F(v, phi.scale) for v in phi(m)) == ref(m)


def test_phi_outside_the_tower_is_not_built(exact_universe):
    """PhiMap is filled on the sealed stages only; another id is a typed
    LookupError, not a KeyError."""
    phi = PhiMap(exact_universe, TargetSpace.real(F(1)))
    with pytest.raises(NotBuiltError, match="no sealed stage"):
        phi(len(exact_universe.store))


def test_target_validation():
    with pytest.raises(ValueError):
        TargetSpace(kind="abs", image=(F(1), F(2)))
    with pytest.raises(ValueError):
        TargetSpace(kind="spectral", image=(F(1),))
