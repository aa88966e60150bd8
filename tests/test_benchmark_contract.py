"""The per-layer rows of the benchmark in ``perfbench/`` stay resolvable.

The benchmark's tracer reports a callable it cannot find, or a
``stage.notes`` key no stage carries, as ``null``, and a traced run with a
``null`` row is malformed.  Its correctness gate reads ``Stage.sealed``,
``Stage.member_set``, the tables and ``Universe.rho``.  Its files are read
here, never changed.
"""

import gc
import importlib
import importlib.util
import json
import weakref
from fractions import Fraction as F
from pathlib import Path

import pytest

from freebanach import Config, Universe, UNIT_ID, universal
from freebanach.terms import pair_key
from freebanach.verify import check_suites, perturbed

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}_contract", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


def test_trace_targets_resolve(tracer):
    for module_name, path, _ in tracer.TARGETS:
        owner = importlib.import_module(f"freebanach.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{path}"


def test_note_counters_on_every_norm_stage(tracer, exact_universe, rank_universe, desk_universe):
    for universe in (exact_universe, rank_universe, desk_universe):
        norm_stages = [s for s in universe.stages if s.kind == "vector" and s.index > 0]
        assert norm_stages
        for stage in norm_stages:
            for key in tracer.NOTE_COUNTERS:
                assert type(stage.notes.get(key)) is int, (stage.index, key)


def _targets_step(u):
    """The benchmark's targets step: its nine calls on three targets."""
    return [
        report
        for target in u.cfg.targets
        for report in (
            universal.check_morphism_bound(u, target),
            universal.sigma_table(u, target)[1],
            universal.check_operation_preservation(u, target, seed=u.cfg.seed),
        )
    ]


def test_universal_call_shapes(exact_universe):
    """The benchmark's targets step calls the universal checks with these
    arguments and reads ``.ok`` and ``.summary_line()`` of each report,
    ``sigma_table``'s as its second item."""
    for report in _targets_step(exact_universe):
        assert report.ok, report.summary_line()
        assert report.summary_line().startswith("[pass] ")


@pytest.mark.parametrize("preset", [Config.exact_x2, Config.rank], ids=["exact-x2", "rank"])
def test_one_tau_per_tower(preset, monkeypatch):
    """The targets step and ``check_suites`` build one ``TauMap`` per tower,
    and the suite's universal sections are, in order, what the step's
    ``check_morphism_bound`` and ``check_operation_preservation`` return."""
    u, built = Universe(preset()).build(), []
    init = universal.TauMap.__init__
    monkeypatch.setattr(universal.TauMap, "__init__", lambda tau, universe: built.append(universe) or init(tau, universe))
    reports = _targets_step(u)
    assert all(report.ok for report in reports)
    sections = check_suites(u, ("universal",)).reports
    assert [r.describe() for r in sections] == [r.describe() for k, r in enumerate(reports) if k % 3 != 1]
    assert check_suites(u).ok
    assert built == [u]


def test_a_clone_lowered_after_tau_was_read_fails(exact_universe):
    """The original's reports read first, a clone with rho(e, x) lowered
    from 1 to 1/2 (tau differs by 1 there) fails the bound, and the
    original still passes; the original's stage put back into the clone in
    place makes it pass again."""
    u = exact_universe
    target = u.cfg.targets[0]
    assert universal.check_morphism_bound(u, target).ok
    bad = perturbed(u, 1, pair_key(UNIT_ID, u.x_id), -F(1, 2))
    assert not universal.check_morphism_bound(bad, target).ok
    assert universal.check_morphism_bound(u, target).ok
    bad.stages[1] = u.stage(1)
    assert universal.check_morphism_bound(bad, target).ok


def test_tau_keeps_no_universe_alive():
    """A built universe whose tau was read is collected once dropped."""
    u = Universe(Config.exact_x2()).build()
    assert all(report.ok for report in _targets_step(u))
    ref = weakref.ref(u)
    del u
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("preset, fixture", [("exact-x2", "exact_universe"), ("rank", "rank_universe")])
def test_gate_digest_matches(preset, fixture, request):
    """The gate renders every member and table line of a preset as the
    benchmark does and finds its recorded digest."""
    universe = request.getfixturevalue(fixture)
    reference = json.loads((PERFBENCH / "digests.json").read_text())[preset]
    assert _load("gate").check_digest(universe, reference) == []
