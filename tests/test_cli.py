"""Command-line surface: subcommands, exit codes, exports, config files."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from freebanach import Config, Dyadic, Universe, cli, oracles, stages, verify
from freebanach.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    USAGE_ERRORS,
    export_bytes,
    import_universe,
    main,
)
from freebanach.metric_ext import MetricExtensionError
from freebanach.relax import PairComposition
from freebanach.stages import ConfigError
from freebanach.verify import check_conditions, check_suites, perturbed


def run_cli(*argv):
    return main(list(argv))


def test_norm_subcommand(capsys):
    assert run_cli("norm", "x", "--preset", "exact-x2") == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == "1 (stage 2)"


def test_dist_subcommand(capsys):
    assert run_cli("dist", "x", "inv(x)", "--preset", "exact-x2") == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == "2 (stage 1)"


def test_dist_derived_difference(capsys):
    code = run_cli("dist", "1/2 x + 1/2 inv(x)", "e", "--preset", "exact-x2")
    assert code == EXIT_OK
    assert "(stage 2)" in capsys.readouterr().out


def test_syntax_error_exit_code(capsys):
    assert run_cli("norm", "x +", "--preset", "exact-x2") == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_out_of_universe_exit_code(capsys):
    assert run_cli("norm", "x . x", "--preset", "exact-x2") == EXIT_USAGE


def test_verify_subcommand_small(capsys):
    assert run_cli("verify", "--preset", "exact-x2", "--suite", "conditions") == EXIT_OK
    out = capsys.readouterr().out
    assert "overall: pass" in out


def test_build_and_reimport(tmp_path, capsys):
    out = tmp_path / "export.json"
    assert run_cli("build", "--preset", "exact-x2", "--out", str(out)) == EXIT_OK
    data = json.loads(out.read_bytes())
    assert data["format"] == "freebanach-export"
    stage1 = data["stages"][1]
    assert stage1["count"] == 3
    assert len(stage1["table"]) == 3

    u = import_universe(str(out), Config.exact_x2())
    suite = check_conditions(u)
    assert suite.ok
    assert export_bytes(u, suite) == out.read_bytes()


def _write(tmp_path, doc):
    path = tmp_path / "export.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_import_checks_the_verification_section(tmp_path, monkeypatch, capsys):
    """A document's ``verification`` section is ``check_conditions``'
    report, and import re-runs it.  With ``main``'s universe imported from
    a document, an honest ``build --out`` document passes (exit 0) and the
    honest report of corrupted tables fails (exit 1).  That report edited
    to pass, in its ``ok`` or in a section's ``passed``, or moved before
    ``stages``, is a ConfigError (exit 2)."""
    out = tmp_path / "export.json"
    assert run_cli("build", "--preset", "exact-x2", "--out", str(out)) == EXIT_OK
    monkeypatch.setattr(cli, "_build", lambda cfg: import_universe(str(out), cfg))
    assert run_cli("verify", "--preset", "exact-x2", "--suite", "conditions") == EXIT_OK

    u = Universe(Config.exact_x2()).build()
    bad = perturbed(u, 2, u.stage(2).members[0], Fraction(1))
    honest = json.loads(export_bytes(bad, check_conditions(bad)))
    assert not honest["verification"]["ok"]
    out.write_text(json.dumps(honest))
    assert run_cli("verify", "--preset", "exact-x2", "--suite", "conditions") == EXIT_VERIFICATION
    capsys.readouterr()

    def forged_ok(doc):
        doc["verification"]["ok"] = True

    def forged_passed(doc):
        section = next(s for s in doc["verification"]["sections"] if not s["ok"])
        section["passed"] = section["attempted"]

    def moved(doc):
        stages = doc.pop("stages")
        doc["verification"] = doc.pop("verification")
        doc["stages"] = stages

    for edit, message in ((forged_ok, "verification section"), (forged_passed, "verification section"),
                          (moved, "fields")):
        doc = json.loads(json.dumps(honest))
        edit(doc)
        out.write_text(json.dumps(doc))
        assert run_cli("verify", "--preset", "exact-x2", "--suite", "conditions") == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, err


def test_import_refuses_the_removed_quantifier_budget(tmp_path, monkeypatch, capsys):
    """Export format version 2 is kept, and a config carries no
    ``quantifier_budget`` since verification became exhaustive.  A
    document whose config still has the key, as one written before its
    removal does, is not this config's export: import refuses it with a
    ConfigError, given the config or reading the document's, and a
    command whose universe it would be exits 2."""
    u = Universe(Config.exact_x2()).build()
    doc = json.loads(export_bytes(u, check_conditions(u)))
    items = list(doc["config"].items())
    at = [key for key, _ in items].index("pair_cell_budget") + 1
    doc["config"] = dict(items[:at] + [("quantifier_budget", 10_000_000)] + items[at:])
    path = _write(tmp_path, doc)
    for cfg in (Config.exact_x2(), None):
        with pytest.raises(ConfigError, match="was not exported under this config"):
            import_universe(path, cfg)
    monkeypatch.setattr(cli, "_build", lambda cfg: import_universe(path, cfg))
    assert run_cli("verify", "--preset", "exact-x2") == EXIT_USAGE
    assert "was not exported under this config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["1/0", "1/3", "1/-2", "true/2", "1/true", "1.0/2", "1/2.0"],
    ids=["0", "3", "-2", "num-true", "den-true", "num-1.0", "den-1.0"],
)
def test_import_refuses_a_combination_denominator_off_the_powers_of_two(tmp_path, text):
    """A vector stage's coefficients are its scalar set.  A scalar ``1/2``
    rewritten with a denominator of 0, 3 or -2, or with its numerator or
    denominator spelled as a bool or a float, is refused with a ConfigError
    (exit 2), whether the config is given or read from the document: not a
    bare ``ZeroDivisionError``, a non-dyadic coefficient or the silent sign
    flip that ``Fraction(1, -2)`` would be."""
    doc = json.loads(export_bytes(Universe(Config.exact_x2()).build()))
    for scalars in (doc["config"]["scalar_sets"][0], doc["stages"][2]["scalar_set"]):
        scalars[scalars.index("1/2")] = text
    path = _write(tmp_path, doc)
    for cfg in (Config.exact_x2(), None):
        with pytest.raises(ConfigError):
            import_universe(path, cfg)


FRESH_BUILDS = {"exact-cap2": lambda: Universe(dataclasses.replace(Config.exact_x2(), word_caps=(2,))).build(),
                "desk-3": lambda: Universe(Config.desk(stage_count=3)).build()}


@pytest.mark.parametrize("preset", ["desk", "rank", "exact", "exact-cap2", "desk-3"])
def test_import_reproduces_the_build(tmp_path, request, preset):
    """Import re-derives every stage by the build's own enumeration: the
    members, every member's term, the store size, the generators, the
    basis, the scalar sets and the tables are the build's, and the
    re-export is the export's bytes.  exact-x2 at word cap 2 has stages of
    1, 5 and 6561 members.  The desk export without a suite is under
    100 KB, since no member is written."""
    u = FRESH_BUILDS[preset]() if preset in FRESH_BUILDS else request.getfixturevalue(f"{preset}_universe")
    data = export_bytes(u)
    path = tmp_path / "export.json"
    path.write_bytes(data)
    v = import_universe(str(path))
    assert v.cfg == u.cfg
    assert len(v.store) == len(u.store)
    assert all(v.store.term(i) == u.store.term(i) for i in range(len(u.store)))
    for mine, theirs in zip(v.stages, u.stages, strict=True):
        assert (mine.index, mine.kind, mine.members, mine.member_set) == \
            (theirs.index, theirs.kind, theirs.members, theirs.member_set)
        assert (mine.generators, mine.word_cap, mine.basis, mine.scalar_set) == \
            (theirs.generators, theirs.word_cap, theirs.basis, theirs.scalar_set)
        assert mine.table == theirs.table
    assert export_bytes(v) == data
    if preset == "exact-cap2":
        assert [len(s.members) for s in v.stages] == [1, 5, 6561]
    if preset == "desk":
        assert len(data) < 100_000


def _word_row(field, value):
    def edit(doc):
        doc["stages"][1]["table"][0][field] = value
    return edit


def _vector_row(field, value):
    def edit(doc):
        doc["stages"][2]["table"][1][field] = value
    return edit


def _basis_swapped(doc):
    basis = doc["stages"][2]["basis"]
    basis[0], basis[1] = basis[1], basis[0]


def _not_lowest_terms(doc):
    doc["stages"][2]["table"][1] = [14, 4]


ROW_EDITS = [(f"{kind}-{name}", edit(field, value), word)
             for kind, edit in (("word", _word_row), ("vector", _vector_row))
             for name, field, value, word in (
                 ("den-0", 1, 0, "denominator"), ("den-negative", 1, -1, "denominator"),
                 ("den-float", 1, 2.0, "denominator"), ("den-true", 1, True, "denominator"),
                 ("num-negative", 0, -1, "numerator"), ("num-float", 0, 1.5, "numerator"),
                 ("num-true", 0, True, "numerator"))]


@pytest.mark.parametrize(
    "edit, message",
    [(edit, message) for _, edit, message in ROW_EDITS]
    + [(_basis_swapped, r"stage 2: basis \[2, 1\], but the stages below give \[1, 2\]"),
       (_not_lowest_terms, "lowest terms")],
    ids=[name for name, _, _ in ROW_EDITS] + ["vector-basis-swapped", "vector-not-in-lowest-terms"],
)
def test_import_validates_tables_and_member_order(tmp_path, edit, message):
    """A table value that is not a non-negative int over a positive int in
    lowest terms (a bool or a float is not an int here), or a vector stage
    whose stated basis is not the one the stages below derive (so its
    members would fall in other grid cells), is a ConfigError (exit 2), not
    a ZeroDivisionError, a bare TypeError, a negative norm, ``true`` read as
    1, a table that re-exports to other bytes or a stage condition 5 would
    misread."""
    doc = json.loads(export_bytes(Universe(Config.exact_x2()).build()))
    edit(doc)
    with pytest.raises(ConfigError, match=message):
        import_universe(_write(tmp_path, doc), Config.exact_x2())


def _delete(*path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def _set(value, *path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [(_delete("stages"), "fields"),
     (_delete("stages", 1, "kind"), "stage 1: not a word stage with index 1"),
     (_set("loop", "stages", 1, "kind"), "stage 1: not a word stage with index 1"),
     (_set(["word"], "stages", 1, "kind"), "stage 1: not a word stage with index 1"),
     (_set("vector", "stages", 1, "kind"), "stage 1: not a word stage with index 1"),
     (_set(3, "stages", 2, "index"), "stage 2: not a vector stage with index 2"),
     (_set(81, "stages", 2, "members"), "stage 2: not a vector stage with index 2"),
     (_set("81", "stages", 2, "count"), "stage 2: count '81'"),
     (_set(80, "stages", 2, "count"), "stage 2: count 80"),
     (_set(2, "stages", 1, "word_cap"), "stage 1: word_cap 2"),
     (_set([1], "stages", 2, "table", 0), r"stage 2: a table row is not a \[num, den\] list"),
     (_set([1, 1, 1], "stages", 2, "table", 0), r"stage 2: a table row is not a \[num, den\] list"),
     (_set({"1": 1}, "stages", 2, "table"), "stage 2: the table is not a list of 81 rows"),
     (_delete("stages", 2, "table", 80), "stage 2: the table is not a list of 81 rows"),
     (_set(-2, "stages", 2, "scalar_set", 0), "stage 2: scalar_set"),
     (_set(-2, "config", "scalar_sets", 0, 0), "not exported under this config"),
     (_set(1, "version"), r"version 1; only version 2 is read: rebuild it with `freebanach build`"),
     (_set(3, "version"), "version 3; only version 2 is read"),
     (_set(2.0, "version"), "version 2.0; only version 2 is read"),
     (_set([], "stages"), "the config asks for 3 stages"),
     (_set(0, "extra"), "fields")],
    ids=["no-stages", "no-kind", "unknown-kind", "list-kind", "kind-for-index", "index-out-of-order",
         "members-int", "count-string", "count-off", "word-cap-off", "short-row", "long-row",
         "table-not-list", "table-short", "scalar-not-string", "config-off", "version-1", "version-3",
         "version-float", "no-stage", "unknown-field"],
)
def test_import_refuses_malformed_documents(tmp_path, edit, message):
    """Each malformed document is a ConfigError (exit 2) that names what is
    wrong: never a bare KeyError, TypeError or ValueError, and never a
    universe that re-exports to other bytes.  A version-1 document (every
    member written out) is refused with the command that rebuilds it."""
    doc = json.loads(export_bytes(Universe(Config.exact_x2()).build()))
    edit(doc)
    with pytest.raises(ConfigError, match=message):
        import_universe(_write(tmp_path, doc), Config.exact_x2())


def test_import_refuses_what_is_not_json(tmp_path):
    path = tmp_path / "export.json"
    for data in (b"{", b"\xff", b"[]"):
        path.write_bytes(data)
        with pytest.raises(ConfigError):
            import_universe(str(path))


@st.composite
def mutations(draw, doc):
    """A copy of ``doc`` with one mutation: a key deleted, a field re-typed,
    a table truncated, two basis ids swapped, or the version bumped."""
    doc = json.loads(json.dumps(doc))
    kind = draw(st.sampled_from(["delete", "retype", "truncate", "swap", "version"]))
    if kind == "version":
        doc["version"] += draw(st.integers(1, 3))
        return doc
    if kind in ("truncate", "swap"):
        key = "table" if kind == "truncate" else "basis"
        stage = draw(st.sampled_from([s for s in doc["stages"] if len(s.get(key, ())) >= 2]))
        if kind == "truncate":
            del stage[key][draw(st.integers(0, len(stage[key]) - 1)):]
        else:
            i, j = draw(st.lists(st.integers(0, len(stage[key]) - 1), min_size=2, max_size=2, unique=True))
            stage[key][i], stage[key][j] = stage[key][j], stage[key][i]
        return doc
    places = []  # (container, key) of every field below the root

    def walk(node):
        for key in (node if isinstance(node, dict) else range(len(node))):
            places.append((node, key))
            if isinstance(node[key], (dict, list)):
                walk(node[key])

    walk(doc)
    node, key = draw(st.sampled_from([p for p in places if kind == "retype" or isinstance(p[0], dict)]))
    if kind == "delete":
        del node[key]
    else:
        old = node[key]
        node[key] = draw(st.sampled_from([v for v in (0, 1.0, True, None, "1", [], {}, [old])
                                          if json.dumps(v) != json.dumps(old)]))
    return doc


@pytest.mark.parametrize("preset", ["exact", "rank"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_import_of_a_mutated_document_refuses_or_round_trips(tmp_path_factory, request, preset, data):
    """Each mutation of an export is either refused with an error ``main``
    maps to exit 2, or imported as a universe whose export is the mutated
    document re-serialized; no other exception escapes."""
    u = request.getfixturevalue(f"{preset}_universe")
    doc = data.draw(mutations(json.loads(export_bytes(u))))
    text = (json.dumps(doc, separators=(",", ":")) + "\n").encode()
    path = tmp_path_factory.getbasetemp() / f"mutated-{preset}.json"
    path.write_bytes(text)
    try:
        v = import_universe(str(path), data.draw(st.sampled_from([u.cfg, None])))
    except USAGE_ERRORS:
        return
    assert export_bytes(v) == text


def test_export_byte_determinism(tmp_path):
    cfg = Config.desk(stage_count=3)
    a = export_bytes(Universe(cfg).build(), None)
    b = export_bytes(Universe(cfg).build(), None)
    assert a == b


def test_config_file(tmp_path, capsys):
    path = tmp_path / "conf.ini"
    path.write_text(
        "[build]\n"
        "stage_count = 2\n"
        "scalar_sets = -1 -1/2 0 1/2 1\n"
        "word_caps = 1\n"
        "member_budget = 100000\n"
        "[target.main]\n"
        "kind = max\n"
        "image = 1 -1/2\n"
    )
    cfg = Config.from_file(str(path))
    assert cfg.stage_count == 2
    assert len(cfg.scalar_set(1)) == 5
    assert cfg.targets[0].kind == "max"
    assert run_cli("verify", "--config", str(path), "--suite", "conditions") == EXIT_OK


def test_config_file_preset_base(tmp_path):
    path = tmp_path / "conf.ini"
    path.write_text("[build]\npreset = rank\nstage_count = 2\n")
    cfg = Config.from_file(str(path))
    assert cfg.stage_count == 2
    assert len(cfg.scalar_set(1)) == 5


def test_missing_config_file():
    assert run_cli("verify", "--config", "/nonexistent/conf.ini") == EXIT_USAGE


def test_budget_error_exit(tmp_path):
    path = tmp_path / "conf.ini"
    path.write_text("[build]\nstage_count = 3\nmember_budget = 10\n")
    assert run_cli("build", "--config", str(path), "--out", str(tmp_path / "x.json")) == EXIT_USAGE


def test_export_unwritable_path():
    assert (
        run_cli("build", "--preset", "exact-x2", "--out", "/nonexistent/dir/x.json")
        == EXIT_USAGE
    )


def test_console_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "freebanach.cli", "norm", "x", "--preset", "exact-x2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 (stage 2)"


def test_cli_calls_share_no_state(monkeypatch, capsys):
    """``main`` keeps one parser per process, but each call parses into a
    fresh namespace: a ``--preset`` does not carry over to the next call,
    and each call prints its own answer.  (The build is cut to two stages:
    the answers lie in stages 1 and 2.)"""
    configs = []

    def build(cfg):
        configs.append(cfg)
        return Universe(dataclasses.replace(cfg, stage_count=2)).build()

    monkeypatch.setattr(cli, "_build", build)
    assert run_cli("norm", "x", "--preset", "exact-x2") == EXIT_OK
    assert capsys.readouterr().out == "1 (stage 2)\n"
    assert run_cli("dist", "x", "inv(x)") == EXIT_OK
    assert capsys.readouterr().out == "2 (stage 1)\n"
    assert configs == [Config.exact_x2(), Config.desk()]


def test_seed_is_an_oracle_option(monkeypatch, capsys):
    """``--seed`` picks the oracles' random instances, the one reader of the
    config's ``seed``, so ``oracle`` alone takes it; on any other
    subcommand it is a usage error (exit 2)."""
    seeds = []

    def run_all_oracles(cfg):
        seeds.append(cfg.seed)
        yield "stub", True

    monkeypatch.setattr(oracles, "run_all_oracles", run_all_oracles)
    assert run_cli("oracle", "--preset", "exact-x2", "--seed", "7") == EXIT_OK
    assert run_cli("oracle", "--preset", "exact-x2") == EXIT_OK
    assert capsys.readouterr().out == "[pass] stub\n" * 2
    assert seeds == [7, Config.exact_x2().seed]
    for argv in (["build"], ["dist", "x", "e"], ["norm", "x"], ["verify"], ["bench"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--seed", "7")
        assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_bench_runs(capsys):
    assert run_cli("bench", "--preset", "exact-x2") == EXIT_OK
    out = capsys.readouterr().out
    assert "build all stages" in out
    assert "stage 2 gamma_lp_pivots" in out
    assert "\nconditions " in out and "\nuniversal " in out and "\nround trip " in out


def test_bench_round_trip_that_differs_exits_1(monkeypatch, capsys):
    """``bench`` times export -> file -> import -> export, and a re-export
    whose bytes differ is a failure (exit 1)."""
    monkeypatch.setattr(cli, "import_universe",
                        lambda path, cfg: Universe(Config.exact_x2(stage_count=1)).build())
    assert run_cli("bench", "--preset", "exact-x2") == EXIT_VERIFICATION
    captured = capsys.readouterr()
    assert "\nround trip " in captured.out
    assert captured.err == "error: the re-imported universe exports other bytes\n"


def test_construction_error_exit(tmp_path, capsys):
    """A metric members space over the pair-cell budget is a config error
    (exit 2), not a traceback with the verification-failure code: desk
    stage 3 has 15 words, and its members-space check (15^2 = 225 cells)
    refuses the stage at a budget of 10."""
    path = tmp_path / "conf.ini"
    path.write_text("[build]\npreset = desk\npair_cell_budget = 10\n")
    assert run_cli("norm", "x", "--config", str(path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pair_cell_budget" in err


def test_first_word_cap_above_one_builds(tmp_path, capsys):
    """Stage 1 is rho(x^a, x^b) = |a - b| for every first word cap, so
    exact-x2 at word cap 2 (stages of 1, 5 and 6561 members) builds, passes
    its conditions and writes its export."""
    path = tmp_path / "conf.ini"
    path.write_text("[build]\npreset = exact-x2\nword_caps = 2\n")
    out = tmp_path / "x.json"
    assert run_cli("build", "--config", str(path), "--out", str(out)) == EXIT_OK
    assert "overall: pass" in capsys.readouterr().out
    sizes = [len(s.members) for s in import_universe(str(out)).stages]
    assert sizes == [1, 5, 6561]


@pytest.mark.parametrize(
    "argv, tail",
    [
        (["dist", "x.x", "e"], "2 (stage 1)\n"),
        (["verify"], "overall: pass\n"),
        (["verify", "--suite", "biinvariance"], "overall: pass\n"),
    ],
    ids=["dist", "verify", "verify-biinvariance"],
)
def test_one_stage_first_word_cap_two(tmp_path, argv, tail):
    """A one-stage tower with a first word cap of 2 has a distance for every
    pair of its five words, so queries and verification run on all of them:
    rho(x^2, e) = 2."""
    path = tmp_path / "conf.ini"
    path.write_text("[build]\npreset = exact-x2\nword_caps = 2\nstage_count = 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "freebanach.cli", *argv, "--config", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.endswith(tail)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_closure_space_counted_before_it_is_built(tmp_path):
    """3-stage desk at word cap 2 has 23 717 stage-3 words, whose metric
    members space exceeds the pair-cell budget.  The stage's enumeration
    counts them and refuses the stage before interning any, so the whole
    process exits 2 within a second, and in process the store keeps the
    size it had after stage 2.  The child's address space is capped at
    2 GiB, with one BLAS thread so that the cap does not depend on the core
    count."""
    path = tmp_path / "conf.ini"
    path.write_text("[build]\npreset = desk\nstage_count = 3\nword_caps = 2\n")
    argv = [sys.executable, "-m", "freebanach.cli", "build", "--config", str(path),
            "--out", str(tmp_path / "x.json")]
    t0 = time.perf_counter()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env,
                          preexec_fn=_limit_memory)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr == "error: stage-3 metric members space 23717^2 exceeds pair_cell_budget\n"
    assert elapsed < 1.0
    cfg = Config.from_file(str(path))
    refused = Universe(cfg)
    with pytest.raises(MetricExtensionError, match="stage-3 metric members space"):
        refused.build()
    assert len(refused.store) == len(Universe(dataclasses.replace(cfg, stage_count=2)).build().store)


@pytest.mark.parametrize(
    "text",
    [
        "[build]\nstage_count = two\n",
        "[build]\nstage_cout = 2\n",
        "[biuld]\nstage_count = 2\n",
        "[build]\ndecomp_cap = 6\n",
        "[build]\nsum_cap = 6\n",
        "[build]\nlattice_cell_budget = 1000000\n",
        "[build]\nstage_count = 2\n[target.a]\nkind = foo\nimage = 1\n",
        "[build]\nstage_count = 2\n[target.a]\nkind = abs\n",
        "[build]\npreset = exact-x2\nquantifier_budget = 10000000\n",
        "[build]\npreset = exact-x2\nmember_budget = 0\n",
        "[build]\npreset = exact-x2\npair_cell_budget = 0\n",
        "[build]\nstage_count = 2\nscalar_sets = -1 0 1 1\n",
        "[build]\nstage_count = 2\nscalar_sets = -1 0 1 2/2\n",
    ],
    ids=["malformed-int", "unknown-key", "unknown-section", "decomp_cap", "sum_cap",
         "lattice_cell_budget", "unknown-kind", "no-image", "quantifier_budget",
         "member_budget-0", "pair_cell_budget-0", "repeated-scalar", "repeated-scalar-by-value"],
)
def test_config_file_errors_exit_2(tmp_path, capsys, text):
    """Config files are outside input: an unknown section, an unknown or
    removed key (``decomp_cap``, ``sum_cap``, ``lattice_cell_budget``,
    ``quantifier_budget``, even at its old default), or a malformed value
    is an error line and exit 2, never a traceback or a silently ignored
    setting."""
    path = tmp_path / "conf.ini"
    path.write_text(text)
    with pytest.raises(ConfigError):
        Config.from_file(str(path))
    assert run_cli("norm", "x", "--config", str(path)) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


def _config_text(preset, stages, caps, expansion, members, cells):
    return (f"[build]\npreset = {preset}\nstage_count = {stages}\nword_caps = {caps}\n"
            f"ambient_expansion = {expansion}\nmember_budget = {members}\n"
            f"pair_cell_budget = {cells}\n")


UNEVEN_SCALARS = "scalar_sets = -4 -1 -1/4 0 1/4 1 4\n"


@st.composite
def small_config_files(draw):
    """A valid ``[build]`` section: a preset's scalar sets, or a drawn
    symmetric dyadic set holding 0 and +-1 (in general unevenly spaced),
    1-4 stages, non-decreasing word caps 1-3, ambient expansion 1-2 and
    budgets of a few thousand at most."""
    text = _config_text(
        draw(st.sampled_from(["desk", "rank", "exact-x2"])),
        draw(st.integers(1, 4)),
        " ".join(map(str, sorted(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))))),
        draw(st.integers(1, 2)),
        draw(st.integers(1, 6000)),
        draw(st.integers(1, 6000)),
    )
    extra = draw(st.sets(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(2), Fraction(4)]),
                         max_size=2))
    if extra:
        values = sorted({s * v for v in (Fraction(0), Fraction(1), *extra) for s in (1, -1)})
        text += f"scalar_sets = {' '.join(map(str, values))}\n"
    return text


@given(small_config_files())
@example(_config_text("desk", 2, "1", 2, 6000, 6000) + UNEVEN_SCALARS)  # digit offsets are not sums
@example(_config_text("desk", 3, "1", 2, 6000, 6000))  # rho_3 on the members space
@example(_config_text("desk", 3, "1", 1, 6000, 100))  # members space refused
@example(_config_text("desk", 4, "1", 2, 6000, 6000))  # stage 4 over member_budget
@example(_config_text("rank", 2, "2", 2, 6000, 6000))
@example(_config_text("exact-x2", 3, "1", 2, 6000, 6000))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_every_valid_config_builds_or_exits_2(text):
    """Every config that validates either builds with its conditions passing
    (exit 0) or is refused with one error line (exit 2): never a traceback,
    a MemoryError or the verification-failure code.  The budgets bound every
    stage and every closure space, so each case stays small."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/conf.ini"
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["build", "--config", path, "--out", f"{tmp}/x.json"])
    if code == EXIT_OK:
        assert "overall: pass" in out.getvalue()
    else:
        assert code == EXIT_USAGE, (text, out.getvalue())
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


def test_stage1_obeys_pair_cell_budget(tmp_path, capsys):
    """Stage 1 at word cap c has 2c + 1 members, and its table must fit
    ``pair_cell_budget`` like every other metric table: at the default
    400 000 cells cap 315 (631^2 cells) builds, and cap 316 (633^2) exits
    2 before any distance is computed."""
    path = tmp_path / "conf.ini"
    path.write_text("[build]\npreset = exact-x2\nstage_count = 1\nword_caps = 316\n")
    assert run_cli("dist", "x", "inv(x)", "--config", str(path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pair_cell_budget" in err
    path.write_text("[build]\npreset = exact-x2\nstage_count = 1\nword_caps = 315\n")
    assert run_cli("dist", "x", "inv(x)", "--config", str(path)) == EXIT_OK
    assert capsys.readouterr().out == "2 (stage 1)\n"


def test_oracle_stage2_on_requested_preset(monkeypatch):
    """The stage-2 oracle checks the preset asked for (cut to two stages),
    not exact-x2 whatever the preset, whatever its first word cap: at cap 2
    its molecules are the ten stage-1 pair differences."""
    monkeypatch.setattr(oracles, "check_relax_oracle", lambda **kw: ("relax", True))
    monkeypatch.setattr(oracles, "check_lp_oracle", lambda **kw: ("lp", True))
    for cfg, tail in (
        (Config.desk(), "(9 entries)"),
        (Config.rank(), "(25 entries)"),
        (Config.exact_x2(), "(81 entries)"),
        (dataclasses.replace(Config.desk(), word_caps=(2,)), "(81 entries)"),
    ):
        line, ok = list(islice(oracles.run_all_oracles(cfg), 3))[2]
        assert ok and line.endswith(tail), line


# SHA-256 of export_bytes(u, check_conditions(u)); the export format
# (version 2) and every table and report value are pinned by these digests.
EXPORT_DIGESTS = {
    "desk": "0599df6adb482d00764870e800d6199581aec055153eb0357f6fd0c20662e3d9",
    "exact": "4aab224eb4b07821416e8f5ce8cd72358c59db48c03dc75ae51d8cf4ef3216ef",
    "rank": "1c837973323a101e360d6c3cf6bd82d47e7c688b06e03db7eb2ff152be37d3c9",
}


@pytest.mark.parametrize("preset", sorted(EXPORT_DIGESTS))
def test_export_bytes_pinned(preset, request):
    u = request.getfixturevalue(f"{preset}_universe")
    data = export_bytes(u, check_conditions(u))
    assert hashlib.sha256(data).hexdigest() == EXPORT_DIGESTS[preset]


def test_build_certifies_rank_before_it_exports(tmp_path, capsys):
    """``build`` on rank runs the stage-3 rank-0 dominance certificate and
    prints it after the conditions; the export is the pinned one, whose
    verification section stays the conditions report."""
    out = tmp_path / "rank.json"
    assert main(["build", "--preset", "rank", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.endswith("\n[pass] rank-0 dominance stage 3: 276/276\noverall: pass\n")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_DIGESTS["rank"]


@pytest.mark.parametrize("stage_count, k", [(2, -70), (2, 70), (3, -40)],
                         ids=["2-stage-2^-70", "2-stage-2^70", "3-stage-2^-40"])
def test_towers_past_int64(stage_count, k, tmp_path, fit_spy, capsys):
    """A tower over the scalars {0, +-1, +-2^k} whose scaled tables or
    products pass int64 is checked in Python ints, not refused: every
    section of ``check_suites`` passes through ``lp._fit``'s object path,
    ``build`` and ``verify`` exit 0, and the export re-imports (re-running
    ``check_conditions`` on its verification section) to the same bytes.
    The norm of 2^k x halved fails homogeneity with an exact counterexample."""
    s = Fraction(2) ** k
    config = tmp_path / "tower.ini"
    config.write_text(f"[build]\nstage_count = {stage_count}\nscalar_sets = -{s} -1 0 1 {s}\n")
    cfg = Config.from_file(str(config))
    u = Universe(cfg).build()
    fitted = fit_spy(stages, verify)
    suite = check_suites(u)
    assert suite.ok, suite.render()
    assert object in [arrays[0].dtype for arrays in fitted]

    out = tmp_path / "tower.json"
    assert run_cli("build", "--config", str(config), "--out", str(out)) == EXIT_OK
    imported = import_universe(str(out), cfg)
    assert export_bytes(imported, check_conditions(imported)) == out.read_bytes()
    assert run_cli("verify", "--config", str(config)) == EXIT_OK
    assert capsys.readouterr().out.endswith("overall: pass\n")

    x = u.x_id
    m = u.store.lookup(u.store.lin_combine([(Dyadic.from_fraction(s), x)]))
    bad = {r.suite: r for r in check_suites(perturbed(u, 2, m, -s / 2)).reports}
    homogeneity = bad["condition 5 homogeneity stage 2"]
    assert not homogeneity.ok
    assert {"element": x, "alpha": str(s), "lhs": str(s / 2), "rhs": str(s)} in homogeneity.counterexamples


def test_pair_closure_refuses_a_value_too_large_at_once(tmp_path, monkeypatch, capsys):
    """On a 3-stage tower over {0, +-1, +-2^-70} the stage-3 pair closure
    holds a seed past 2^60 at its first scale.  A larger scale only makes it
    larger, so the closure runs once and ``build`` exits 2 naming it, with
    no retry."""
    s = Fraction(1, 2**70)
    config = tmp_path / "tower.ini"
    config.write_text(f"[build]\nstage_count = 3\nscalar_sets = -{s} -1 0 1 {s}\n")
    scales = []
    solve_scaled = PairComposition._solve_scaled
    monkeypatch.setattr(PairComposition, "_solve_scaled",
                        lambda self, scale, *args: scales.append(scale) or solve_scaled(self, scale, *args))
    assert run_cli("build", "--config", str(config), "--out", str(tmp_path / "tower.json")) == EXIT_USAGE
    assert len(scales) == 1
    assert re.fullmatch(r"error: scaled value \d+ too large\n", capsys.readouterr().err)
    assert not (tmp_path / "tower.json").exists()
