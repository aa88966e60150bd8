"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import os
import random
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import json  # noqa: E402

import gate  # noqa: E402
import pace  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from freebanach import metric_ext, relax, verify  # noqa: E402
from freebanach.exprs import eval_expr, parse_expr  # noqa: E402
from freebanach.stages import Config, Universe  # noqa: E402

with open(os.path.join(HERE, "digests.json")) as fh:
    REFERENCES = json.load(fh)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_calls():
    # outer [0, 10] encloses inner [1, 4] and inner [5, 6]; inner encloses leaf [2, 3]
    t = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    leaf = t.wrap("leaf", lambda: None)
    inner = t.wrap("inner", lambda call_leaf: leaf() if call_leaf else None)
    outer = t.wrap("outer", lambda: (inner(True), inner(False)))
    outer()
    rows = {name: (row.calls, row.self_s) for name, row in t.rows.items()}
    assert rows == {"outer": (1, 6), "inner": (2, 3), "leaf": (1, 1)}
    assert t.root_s == 10 == sum(row.self_s for row in t.rows.values())


def test_times_are_scaled_by_the_readings_taken_around_them():
    meter = pace.Speedometer()
    meter.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    meter.readings = [k * pace.REFERENCE_S for k in (1, 1, 2, 2, 2, 4)]
    # the readings taken in the interval
    assert meter.factor(0.5, 5.5) == pytest.approx(5 / 11)
    # a short interval: the NEAREST readings nearest to it
    assert pace.NEAREST == 2
    assert meter.factor(0.5, 0.6) == pytest.approx(1)
    assert meter.factor(1.4, 1.5) == pytest.approx(1 / 1.5)
    assert meter.factor(6.0, 7.0) == pytest.approx(1 / 3)
    # a sample of several intervals, each scaled by its own readings
    assert meter.scale([(0.5, 5.5), (1.4, 1.5)]) == pytest.approx(5 * 5 / 11 + 0.1 / 1.5)


def test_the_clock_leaves_the_readings_out():
    meter = pace.Speedometer(interval=0.05)
    t0 = meter.clock()
    meter.read()
    assert meter.clock() - t0 < meter.readings[0] / 2
    meter.start()
    try:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    finally:
        meter.stop()
    assert len(meter.readings) >= 3
    assert meter.times == sorted(meter.times)


def test_wrappers_replace_by_name_imports_and_count():
    original = relax.relax_fixpoint
    t = tracing.Tracer()
    t.install()
    try:
        assert metric_ext.relax_fixpoint is relax.relax_fixpoint is not original
        Universe(Config.exact_x2()).build()
    finally:
        t.uninstall()
    assert metric_ext.relax_fixpoint is relax.relax_fixpoint is original
    m = t.metrics()
    assert m["relax.relax_fixpoint.calls"] >= 1  # called only through metric_ext's binding
    assert m["relax.relax_fixpoint.sweeps"] >= 1
    assert m["lp.MoleculeLP.solve_full.calls"] == m["norm_ext.gamma_lp_calls"] == 40
    assert m["stages.members"] == 85
    assert m["relax.PairComposition.solve.calls"] == 0
    assert m["relax.PairComposition.solve.sweeps"] == 0  # not called: zero, not absent


def test_removed_callables_and_notes_are_absent():
    targets = [
        ("relax", "NoSuchEngine.solve", None),
        ("no_such_module", "f", None),
        ("stages", "Universe.build", tracing._build_counts),
    ]
    t = tracing.Tracer()
    t.install(targets)
    try:
        universe = Universe(Config.exact_x2())
        universe.build()
    finally:
        t.uninstall()
    m = t.metrics(targets)
    assert m["relax.NoSuchEngine.solve.calls"] is None
    assert m["no_such_module.f.self_s"] is None
    assert m["stages.Universe.build.calls"] == 1
    # a counter whose source row is absent is absent too
    assert m["relax.LatticeSystem.solve.sweeps"] is None
    for stage in universe.stages:
        stage.notes.clear()
    assert "norm_ext.gamma_lp_calls" not in tracing._build_counts(universe, ())


def test_renderer_round_trips_and_digest_is_stable():
    first = Universe(Config.exact_x2()).build()
    render = gate.Renderer(first)
    assert gate.roundtrip_mismatches(first, render) == []
    assert render(first.x_id) == "x"
    assert gate.summary(first, render) == REFERENCES["exact-x2"]
    second = Universe(Config.exact_x2()).build()
    assert gate.summary(second, gate.Renderer(second)) == gate.summary(first, render)
    assert gate.check_digest(second, REFERENCES["exact-x2"]) == []


def test_expected_answers_follow_the_cli_routing_rule():
    universe = Universe(Config.exact_x2()).build()
    answers = gate.Answers(universe)
    ev = lambda text: eval_expr(parse_expr(text), universe)  # noqa: E731
    assert answers("norm", (ev("e"),)) == "0 (stage 0)"
    assert answers("norm", (ev("x"),)) == "1 (stage 2)"
    assert answers("dist", (ev("x"), ev("inv(x)"))) == "2 (stage 1)"
    assert answers("dist", (ev("x"), ev("x . inv(x) . x"))) == "0 (identical elements)"
    # 2x - (-2x) = 4x is outside stage 2, so no stage carries the pair
    assert answers("dist", (ev("e + 2 (x)"), ev("e - 2 (x)"))) is None
    for spelt in (False, True):
        stream = gate.query_stream(answers, random.Random(0), 200, spelt)
        assert [argv[0] for argv, _, _ in stream[:6]] == ["norm", "norm", "dist"] * 2
        for argv, want, ids in stream:
            assert tuple(ev(t) for t in argv[1:]) == ids
            assert answers(argv[0], ids) == want
    # timed queries use the canonical texts; the checks use other spellings
    render = gate.Renderer(universe)
    canonical = gate.query_stream(answers, random.Random(0), 10)
    assert all(argv[1:] == [render(i) for i in ids] for argv, _, ids in canonical)
    spelt = gate.query_stream(answers, random.Random(0), 10, spelt=True)
    assert all(argv[1] != render(ids[0]) for argv, _, ids in spelt)


def _query_run(tmp_path, corrupt=None):
    run = workloads.Run("query", 5, str(tmp_path), REFERENCES)
    run.setup()
    run.corrupt = corrupt
    run.one_pass()
    return run


def test_clean_pass_has_no_failures(tmp_path):
    run = _query_run(tmp_path)
    assert run.ledger.failed == 0, run.ledger.problems
    assert run.ledger.attempted > workloads.CLI_QUERIES
    assert all(run.timings.values())


def test_corrupted_table_makes_failures(tmp_path):
    def corrupt(universe):
        stage = universe.stages[2]
        member = next(m for m in stage.members if m != 0)
        return verify.perturbed(universe, 2, member, Fraction(1, 2))

    run = _query_run(tmp_path, corrupt)
    assert run.ledger.failed > 0
    assert any("digest" in p for p in run.ledger.problems)


def _fake_worker(queries, failed=0):
    samples = {"build_s": [1.0], "verify_s": [2.0], "roundtrip_s": [0.5], "query_s": [0.01] * queries}
    return {"setup_s": 0.1, "raw_setup_s": 0.1, "samples": samples, "raw_samples": samples, "peak_rss_mb": 10.0,
            "attempted": 3 + queries, "failed": failed, "problems": []}


def test_query_run_is_a_fixed_set_of_workers():
    calls = []

    def spawn(workload, seed, passes, trace, setup_only, index, workdir):
        calls.append((setup_only, index, passes))
        return _fake_worker(0 if setup_only else 48)

    result = run.measure("query", 7, 10, 0, "w", spawn=spawn)
    # the same hash seeds and passes whatever the speed of the program
    assert calls == [(False, i, 1) for i in range(run.QUERY_WORKERS)]
    assert len(result["setup"]) == run.QUERY_WORKERS
    values = run.end_to_end(result)
    assert values["query_p50_ms"] == values["query_p95_ms"] == 10.0
    assert values["pass_ratio"] == 1.0
    assert run.plan("query", 1) == [1] * run.QUERY_WORKERS


def test_a_long_pass_is_one_worker_plus_setup_probes():
    calls = []

    def spawn(workload, seed, passes, trace, setup_only, index, workdir):
        calls.append((setup_only, index))
        return _fake_worker(0 if setup_only else 2000)

    result = run.measure("desk", 7, 10, 0, "w", spawn=spawn)
    assert calls == [(False, 0)] + [(True, i) for i in range(1, run.SETUP_SAMPLES)]
    assert len(result["workers"]) == 1 and len(result["setup"]) == run.SETUP_SAMPLES


def test_run_stops_at_the_first_failure():
    def spawn(workload, seed, passes, trace, setup_only, index, workdir):
        return _fake_worker(0, failed=1)

    result = run.measure("query", 7, 10, 0, "w", spawn=spawn)
    assert len(result["workers"]) == 1 and result["failed"] == run.SETUP_SAMPLES
    assert run.end_to_end(result)["pass_ratio"] < 1.0


def test_query_pass_times_canonical_queries_and_checks_spellings(tmp_path):
    w = workloads.Run("query", 1, str(tmp_path), REFERENCES)
    w.setup(2)
    w.measure(2)
    assert len(w.timings["query_s"]) == 2 * workloads.CLI_QUERIES
    assert w.ledger.failed == 0, w.ledger.problems
    # the warm-up and every spelling check are operations too
    assert w.ledger.attempted >= 1 + 2 * (workloads.CLI_QUERIES + workloads.CLI_SPELLINGS)
