"""The per-layer rows of the benchmark in ``perfbench/`` stay resolvable.

The benchmark's tracer reports a callable it cannot find, or a
``stage.notes`` key no stage carries, as ``null``, and a traced run with a
``null`` row is malformed.  Its correctness gate reads ``Stage.sealed``,
``Stage.member_set``, the tables and ``Universe.rho``.  Its files are read
here, never changed.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

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


def test_universal_call_shapes(exact_universe):
    """The benchmark's targets step calls the universal checks with these
    arguments and reads ``.ok`` and ``.summary_line()`` of each report,
    ``sigma_table``'s as its second item."""
    from freebanach import universal

    u = exact_universe
    for target in u.cfg.targets:
        reports = [
            universal.check_morphism_bound(u, target),
            universal.sigma_table(u, target)[1],
            universal.check_operation_preservation(u, target, seed=u.cfg.seed),
        ]
        for report in reports:
            assert report.ok, report.summary_line()
            assert report.summary_line().startswith("[pass] ")


@pytest.mark.parametrize("preset, fixture", [("exact-x2", "exact_universe"), ("rank", "rank_universe")])
def test_gate_digest_matches(preset, fixture, request):
    """The gate renders every member and table line of a preset as the
    benchmark does and finds its recorded digest."""
    universe = request.getfixturevalue(fixture)
    reference = json.loads((PERFBENCH / "digests.json").read_text())[preset]
    assert _load("gate").check_digest(universe, reference) == []
