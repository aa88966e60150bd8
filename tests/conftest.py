import dataclasses
import time

import pytest

from freebanach import Config, Universe


@pytest.fixture(scope="session")
def exact_universe():
    """Construction-exact scalars D_1; stages X_1 (3 members), X_2 (81)."""
    return Universe(Config.exact_x2()).build()


@pytest.fixture(scope="session")
def desk_universe():
    """Default desk tower through X_4 = 6561 members; build time recorded
    for the acceptance runtime assertion."""
    cfg = Config.desk(stage_count=4)
    t0 = time.time()
    universe = Universe(cfg).build()
    universe.build_seconds = time.time() - t0
    return universe


@pytest.fixture(scope="session")
def rank_universe():
    """Half-integer scalars: positive ranks (no delta clause, valued by the
    metric's rules), convex rules; three stages."""
    return Universe(Config.rank()).build()


@pytest.fixture(scope="session")
def desk_cap2_universes():
    """3-stage desk with word caps (1, 2) at the default expansion and at
    expansion 1: 197 stage-3 words."""
    cfg = dataclasses.replace(Config.desk(stage_count=3), word_caps=(1, 2))
    return Universe(cfg).build(), Universe(dataclasses.replace(cfg, ambient_expansion=1)).build()


@pytest.fixture(scope="session")
def uneven_universe():
    """Two stages over the unevenly spaced scalar set -4 -1 -1/4 0 1/4 1 4:
    X_2 has 7^2 members, and its coefficients are quarters."""
    from freebanach.scalars import Dyadic

    scalars = tuple(map(Dyadic.parse, "-4 -1 -1/4 0 1/4 1 4".split()))
    return Universe(Config(stage_count=2, scalar_sets=(scalars,))).build()


@pytest.fixture
def fit_spy(monkeypatch):
    """``fit_spy(*modules)`` wraps ``lp._fit`` where each module binds it by
    name and returns the list of every wrapped call's fitted arrays, in
    call order."""

    def spy(*modules):
        fitted = []
        for module in modules:
            monkeypatch.setattr(module, "_fit",
                                lambda bound, *arrays, fit=module._fit: fitted.append(fit(bound, *arrays)) or fitted[-1])
        return fitted

    return spy
