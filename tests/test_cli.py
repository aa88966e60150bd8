"""Command-line surface: subcommands, exit codes, exports, config files."""

import json
import subprocess
import sys

from freebanach import Config, Universe
from freebanach.cli import (
    EXIT_OK,
    EXIT_USAGE,
    export_bytes,
    import_universe,
    main,
)
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


def test_construction_error_exit(tmp_path, capsys):
    """A rank-0 closure over the pair-cell budget is a config error
    (exit 2), not a traceback with the verification-failure code."""
    path = tmp_path / "conf.ini"
    path.write_text("[build]\npreset = desk\npair_cell_budget = 10\n")
    assert run_cli("norm", "x", "--config", str(path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pair_cell_budget" in err
