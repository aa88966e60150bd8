"""Command-line surface: subcommands, exit codes, exports, config files."""

import dataclasses
import hashlib
import json
import subprocess
import sys
from itertools import islice

import pytest

from freebanach import Config, Universe, oracles
from freebanach.cli import (
    EXIT_OK,
    EXIT_USAGE,
    export_bytes,
    import_universe,
    main,
)
from freebanach.stages import ConfigError
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


def test_first_word_cap_above_one_exit_2(tmp_path, capsys):
    """A stage 1 with words beyond x^±1 has no stage-1 metric for stage 2 to
    read: the build is refused with an error line and exit 2, not a
    KeyError traceback with the verification-failure code."""
    path = tmp_path / "conf.ini"
    path.write_text("[build]\npreset = exact-x2\nword_caps = 2\n")
    out = tmp_path / "x.json"
    assert run_cli("build", "--config", str(path), "--out", str(out)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "first word cap of 1 only" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["dist", "x.x", "e"], ["verify"], ["verify", "--suite", "biinvariance"]],
    ids=["dist", "verify", "verify-biinvariance"],
)
def test_one_stage_first_word_cap_two_exit_2(tmp_path, argv):
    """A one-stage tower with a first word cap of 2 builds, but its stage-1
    table holds only the pairs of e, x and x^-1: reading another pair is an
    error line and exit 2, not a KeyError traceback or a missing pair read
    as distance 0."""
    path = tmp_path / "conf.ini"
    path.write_text("[build]\npreset = exact-x2\nword_caps = 2\nstage_count = 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "freebanach.cli", *argv, "--config", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: stage 1 has ")


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
    ],
    ids=["malformed-int", "unknown-key", "unknown-section", "decomp_cap", "sum_cap",
         "lattice_cell_budget", "unknown-kind", "no-image", "quantifier_budget-0",
         "member_budget-0", "pair_cell_budget-0"],
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


def test_small_quantifier_budget_still_samples(tmp_path, capsys):
    """A quantifier budget below 10 still draws one splitting sample rather
    than reporting a pass over nothing."""
    path = tmp_path / "conf.ini"
    path.write_text("[build]\npreset = exact-x2\nquantifier_budget = 5\n")
    assert run_cli("verify", "--config", str(path), "--suite", "conditions") == EXIT_OK
    assert "[pass] condition 3 splitting stage 1: 1/1\n" in capsys.readouterr().out


def test_oracle_stage2_on_requested_preset(monkeypatch):
    """The stage-2 oracle checks the preset asked for (cut to two stages),
    not exact-x2 whatever the preset.  A first word cap above 1, which the
    stage-1 metric does not cover, falls back to exact-x2 and says so."""
    monkeypatch.setattr(oracles, "check_relax_oracle", lambda **kw: ("relax", True))
    monkeypatch.setattr(oracles, "check_lp_oracle", lambda **kw: ("lp", True))
    for cfg, tail in (
        (Config.desk(), "(9 entries)"),
        (Config.rank(), "(25 entries)"),
        (Config.exact_x2(), "(81 entries)"),
        (dataclasses.replace(Config.desk(), word_caps=(2,)), "(81 entries) on exact-x2"),
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
