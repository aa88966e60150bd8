"""Command-line surface: subcommands, exit codes, exports, config files."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from freebanach import Config, Universe, oracles
from freebanach.cli import (
    EXIT_OK,
    EXIT_USAGE,
    export_bytes,
    import_universe,
    main,
)
from freebanach.cli import _term_doc, _term_from_doc
from freebanach.scalars import Dyadic, ScalarDomainError
from freebanach.stages import ConfigError
from freebanach.terms import ComboTerm
from freebanach.verify import check_conditions


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
    assert len(stage1["members"]) == 3
    assert len(stage1["table"]) == 3

    u = import_universe(str(out), Config.exact_x2())
    suite = check_conditions(u)
    assert suite.ok
    assert export_bytes(u, suite) == out.read_bytes()


@pytest.mark.parametrize(
    "field, value",
    [(2, 0), (2, 3), (2, -2), (1, True), (2, True), (1, 1.0), (2, 1.0)],
    ids=["0", "3", "-2", "num-true", "den-true", "num-1.0", "den-1.0"],
)
def test_import_refuses_a_combination_denominator_off_the_powers_of_two(tmp_path, field, value):
    """A combination coefficient whose denominator is 0, 3 or -2, or whose
    numerator or denominator is a bool or a float, is no dyadic scalar: the
    import raises ``ScalarDomainError``, which ``main`` maps to exit 2,
    rather than a bare ``ZeroDivisionError`` or a silent sign flip.  The
    edited coefficient is the last one whose field equals 1 and whose exact
    triple an earlier member already holds, so ``true`` and ``1.0`` (equal
    to 1, and hashed alike) would pass a memo keyed on the raw triple."""
    doc = json.loads(export_bytes(Universe(Config.exact_x2()).build()))
    combos = [m["term"][1] for s in doc["stages"] for m in s["members"] if m["term"][0] == "combo"]
    seen = [{tuple(c) for c in coeffs} for coeffs in combos]
    i, c = next((i, c) for i in reversed(range(len(combos))) for c in combos[i]
                if c[field] == 1 and any(tuple(c) in earlier for earlier in seen[:i]))
    c[field] = value
    path = tmp_path / "export.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScalarDomainError):
        import_universe(str(path), Config.exact_x2())


def test_import_shares_one_pair_per_coefficient_triple(tmp_path, desk_universe):
    """The import reads each distinct ``[b, num, den]`` triple once: equal
    coefficient pairs of the imported store are one object, and the members,
    their terms and the store size are those of the build."""
    path = tmp_path / "export.json"
    path.write_bytes(export_bytes(desk_universe))
    u = import_universe(str(path), Config.desk())
    assert [s.members for s in u.stages] == [s.members for s in desk_universe.stages]
    assert len(u.store) == 1 + max(m for s in desk_universe.stages for m in s.members)
    assert all(u.store.term(m) == desk_universe.store.term(m) for s in u.stages for m in s.members)
    pairs = [p for i in range(len(u.store)) if isinstance(t := u.store.term(i), ComboTerm) for p in t.coeffs]
    assert len({id(p) for p in pairs}) == len(set(pairs)) == 16  # 8 axes x the scalars +-1


def _word_den_zero(doc):
    doc["stages"][1]["table"][0][3] = 0


def _vector_den_negative(doc):
    doc["stages"][2]["table"][1][2] = -1


def _word_num_true(doc):
    doc["stages"][1]["table"][0][2] = True


def _vector_num_negative(doc):
    doc["stages"][2]["table"][1][1] = -1


def _vector_num_float(doc):
    doc["stages"][2]["table"][1][1] = 1.5


def _vector_den_float(doc):
    doc["stages"][2]["table"][1][2] = 2.0


def _vector_den_true(doc):
    doc["stages"][2]["table"][1][2] = True


def _vector_members_swapped(doc):
    stage = doc["stages"][2]
    for rows in (stage["members"], stage["table"]):
        rows[3], rows[7] = rows[7], rows[3]


@pytest.mark.parametrize(
    "edit, message",
    [(_word_den_zero, "denominator"), (_vector_den_negative, "denominator"),
     (_word_num_true, "numerator"), (_vector_num_negative, "numerator"),
     (_vector_num_float, "numerator"), (_vector_den_float, "denominator"),
     (_vector_den_true, "denominator"),
     (_vector_members_swapped, r"stage 2: members off their digit-grid cells \[3, 7\]")],
    ids=["word-den-0", "vector-den-negative", "word-num-true", "vector-num-negative",
         "vector-num-float", "vector-den-float", "vector-den-true", "vector-members-swapped"],
)
def test_import_validates_tables_and_member_order(tmp_path, edit, message):
    """A table value that is not a non-negative int over a positive int (a
    bool or a float is not an int here), or a vector stage whose members
    are not in digit-grid order, is a ConfigError (exit 2), not a
    ZeroDivisionError, a bare TypeError, a negative norm, ``true`` read as 1
    or a stage condition 5 would misread."""
    doc = json.loads(export_bytes(Universe(Config.exact_x2()).build()))
    edit(doc)
    path = tmp_path / "export.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=message):
        import_universe(str(path), Config.exact_x2())


dyadic_coeffs = st.builds(Dyadic, st.integers(-(2**70), 2**70).filter(bool), st.integers(0, 80))


@given(st.lists(dyadic_coeffs, min_size=1, max_size=6))
def test_combo_term_document_round_trip(coeffs):
    """A combination's document holds each coefficient as the Fraction's
    own lowest-terms pair, and reads back as the same term."""
    term = ComboTerm(tuple(enumerate(coeffs, start=1)))
    doc = json.loads(json.dumps(_term_doc(term)))
    assert doc[1] == [[b, c.as_fraction().numerator, c.as_fraction().denominator] for b, c in term.coeffs]
    assert _term_from_doc(doc) == term


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


def test_bench_runs(capsys):
    assert run_cli("bench", "--preset", "exact-x2") == EXIT_OK
    out = capsys.readouterr().out
    assert "build all stages" in out
    assert "stage 2 gamma_lp_pivots" in out
    assert "\nconditions " in out and "\nuniversal " in out


def test_construction_error_exit(tmp_path, capsys):
    """A rank-0 closure over the pair-cell budget is a config error
    (exit 2), not a traceback with the verification-failure code."""
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
    """3-stage desk at word cap 2 asks for a rank-0 closure over 37 459 269
    words.  The budget check counts them instead of enumerating them, so
    the whole process exits 2 within a second rather than after building
    the space (about a minute and 6 GB).  The child's address space is
    capped at 2 GiB, with one BLAS thread so that the cap does not depend
    on the core count."""
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
    assert proc.stderr == "error: rank-0 closure space 37459269^2 exceeds pair_cell_budget\n"
    assert elapsed < 1.0


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
        "[build]\npreset = exact-x2\nquantifier_budget = 0\n",
        "[build]\npreset = exact-x2\nmember_budget = 0\n",
        "[build]\npreset = exact-x2\npair_cell_budget = 0\n",
        "[build]\nstage_count = 2\nscalar_sets = -1 0 1 1\n",
        "[build]\nstage_count = 2\nscalar_sets = -1 0 1 2/2\n",
    ],
    ids=["malformed-int", "unknown-key", "unknown-section", "decomp_cap", "sum_cap",
         "lattice_cell_budget", "unknown-kind", "no-image", "quantifier_budget-0",
         "member_budget-0", "pair_cell_budget-0", "repeated-scalar", "repeated-scalar-by-value"],
)
def test_config_file_errors_exit_2(tmp_path, capsys, text):
    """Config files are outside input: an unknown section, an unknown or
    removed key, or a malformed value is an error line and exit 2, never a
    traceback or a silently ignored setting."""
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


def test_small_quantifier_budget_still_samples(tmp_path, capsys):
    """A quantifier budget below the row length still walks one sampled
    splitting row (exact-x2's 7 product pairs against one of them) rather
    than reporting a pass over nothing."""
    path = tmp_path / "conf.ini"
    path.write_text("[build]\npreset = exact-x2\nquantifier_budget = 5\n")
    assert run_cli("verify", "--config", str(path), "--suite", "conditions") == EXIT_OK
    assert "[pass] condition 3 splitting stage 1: 7/7\n" in capsys.readouterr().out


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


# SHA-256 of export_bytes(u, check_conditions(u)); the export format and
# every table and report value are pinned by these digests.
EXPORT_DIGESTS = {
    "desk": "0256a391db2e9e1ac2f69d912565db9bf12fde61bcbca812bc9657a0f3d641b4",
    "exact": "94f460b7e8b5e92ff0eb370632013a7471123aaab6c4ba7603bd3b9c126b9418",
    "rank": "c32ab993a14dfe1db8f6792508140067dc371489430b36de73959e7e87eda2e3",
}


@pytest.mark.parametrize("preset", sorted(EXPORT_DIGESTS))
def test_export_bytes_pinned(preset, request):
    u = request.getfixturevalue(f"{preset}_universe")
    data = export_bytes(u, check_conditions(u))
    assert hashlib.sha256(data).hexdigest() == EXPORT_DIGESTS[preset]
