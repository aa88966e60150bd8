"""Command-line entry points and bit-exact table export.

Subcommands: build, dist, norm, verify, oracle, bench.  Exit codes: 0 on
success, 1 on verification failure (or a ``bench`` round trip whose bytes
differ), 2 on usage, config, evaluation, construction (a relaxation or
molecule program that cannot finish within the config, or a metric table
that fails its rank-0 certificate, ``_certify``) or export-document
errors.  Exports (format version 2, see ``export_document``) are
deterministic byte-for-byte for a fixed config: values are integer pairs,
never decimals, and field order is fixed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from fractions import Fraction
from functools import cache

from .exprs import ExprSyntaxError, OutOfUniverseError, eval_expr, parse_expr
from .lp import InfeasibleLP
from .relax import RelaxError
from .scalars import Dyadic, ScalarDomainError, fraction_str
from .stages import PRESETS, BudgetExceededError, Config, ConfigError, NotBuiltError, Stage, Universe, fraction_ints
from .terms import AlgebraError
from .verify import SUITES, SuiteReport, check_conditions, check_rank0_dominance, check_suites

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
# what ``main`` reports as one error line and exit 2
USAGE_ERRORS = (ConfigError, ExprSyntaxError, ScalarDomainError, OutOfUniverseError, AlgebraError,
                BudgetExceededError, NotBuiltError, OSError, RelaxError, InfeasibleLP)


# ---------------------------------------------------------------------------
# export document
# ---------------------------------------------------------------------------

FORMAT_VERSION = 2
TOP_KEYS = ("format", "version", "config", "stages")  # then "verification", if a report was given
STAGE_KEYS = {"word": ("index", "kind", "generators", "word_cap", "count", "table"),
              "vector": ("index", "kind", "basis", "scalar_set", "count", "table")}


def export_document(universe, suite: SuiteReport | None = None) -> dict:
    """Format version 2: a stage is its generating data, its member count
    and its table as ``[num, den]`` rows over ``Stage.cells``.  Members and
    ids are not written: ``import_universe`` re-derives them.  ``suite``,
    if given, must be the universe's ``check_conditions`` report, as
    ``build`` writes it: it becomes the last key, ``verification``, and
    import re-runs ``check_conditions`` and refuses a section that differs."""
    stages = []
    for stage in universe.stages:
        data = ({"generators": list(stage.generators), "word_cap": stage.word_cap} if stage.kind == "word"
                else {"basis": list(stage.basis), "scalar_set": [str(d) for d in stage.scalar_set]})
        ints, scale = stage.scaled_table()  # rows from the integers: one pair per distinct value
        cells = ints.tolist()
        if stage.kind == "word":  # the cells i < j, row-major
            cells = [v for i, row in enumerate(cells) for v in row[i + 1:]]
        rows = {v: Fraction(v, scale).as_integer_ratio() for v in set(cells)}  # a tuple, written as a list
        stages.append({"index": stage.index, "kind": stage.kind, **data, "count": len(stage.members),
                       "table": [rows[v] for v in cells]})
    doc = {
        "format": "freebanach-export",
        "version": FORMAT_VERSION,
        "config": universe.cfg.describe(),
        "stages": stages,
    }
    if suite is not None:
        doc["verification"] = suite.describe()
    return doc


def export_bytes(universe, suite: SuiteReport | None = None) -> bytes:
    doc = export_document(universe, suite)
    return (json.dumps(doc, separators=(",", ":"), sort_keys=False) + "\n").encode()


def export_tables(universe, path: str, suite: SuiteReport | None = None) -> None:
    data = export_bytes(universe, suite)
    with open(path, "wb") as fh:
        fh.write(data)


def _same(value, expected) -> bool:
    """Equal as JSON text, so that 1, 1.0 and true are three values here."""
    return json.dumps(value) == json.dumps(expected)


def _table(rows, stage: Stage, where: str) -> Stage:
    """``stage`` with its table read from one ``[num, den]`` row per cell:
    an int numerator >= 0 over a positive int denominator, in lowest terms.
    Each distinct pair is read once, but only once every field is known to
    be an int: a bool or a float equals and hashes like the int it would
    pass for."""
    n = len(stage.members)
    count = n * (n - 1) // 2 if stage.kind == "word" else n
    if type(rows) is not list or len(rows) != count:
        raise ConfigError(f"{where}: the table is not a list of {count} rows")
    if not all(type(row) is list and len(row) == 2 for row in rows):
        raise ConfigError(f"{where}: a table row is not a [num, den] list")
    pairs = list(map(tuple, rows))
    ints = all(type(num) is int and type(den) is int for num, den in pairs)
    values = {}
    for num, den in set(pairs) if ints else pairs:
        if type(den) is not int or den <= 0:
            raise ConfigError(f"{where}: table value {num!r}/{den!r}: the denominator is not a positive int")
        if type(num) is not int or num < 0:
            raise ConfigError(f"{where}: table value {num!r}/{den!r}: the numerator is not a non-negative int")
        value = values[num, den] = Fraction(num, den)
        if value.denominator != den:
            raise ConfigError(f"{where}: table value {num}/{den} is not in lowest terms")
    numerators, scale = fraction_ints(list(values.values()))
    scaled = dict(zip(values, numerators))
    return stage.with_ints([scaled[pair] for pair in pairs], scale)


def _stage_from_doc(universe, n: int, sdoc) -> Stage:
    """Stage n, enumerated after the stages below it from the document's
    word cap or scalar set, with every field checked."""
    where, kind = f"stage {n}", "word" if n % 2 else "vector"
    keys = STAGE_KEYS[kind]
    if type(sdoc) is not dict or tuple(sdoc) != keys or sdoc["kind"] != kind or not _same(sdoc["index"], n):
        raise ConfigError(f"{where}: not a {kind} stage with index {n} and the fields {keys}")
    cfg = universe.cfg
    key, given = ("word_cap", cfg.word_cap(n // 2)) if kind == "word" else (
        "scalar_set", [str(d) for d in sorted(cfg.scalar_set(n // 2))] if n else [])
    if not _same(sdoc[key], given):  # before the enumeration reads it
        raise ConfigError(f"{where}: {key} {sdoc[key]!r}, but the config gives {given!r}")
    if n == 0:
        stage = universe._unit_stage()
    elif kind == "word":
        stage = universe._enumerate_word_stage(n, sdoc["word_cap"])
    else:
        stage = universe._enumerate_vector_stage(n, list(map(Dyadic.parse, sdoc["scalar_set"])))
    spanning = "generators" if kind == "word" else "basis"
    for key, derived in ((spanning, list(getattr(stage, spanning))), ("count", len(stage.members))):
        if not _same(sdoc[key], derived):
            raise ConfigError(f"{where}: {key} {sdoc[key]!r}, but the stages below give {derived!r}")
    return _table(sdoc["table"], stage, where)


def import_universe(path: str, cfg: Config | None = None):
    """Rebuild a universe from a format-version-2 export document, under
    ``cfg`` or, if None, the document's config, which must be the same.
    Each stage is enumerated by the build's own enumeration from the word
    cap or scalar set the document states, so the store is the build's id
    for id; the stated generators, basis and member count must be the
    derived ones.  A ``verification`` section, if present, must be the last
    key and the imported universe's ``check_conditions`` report.  Any other
    version, or any malformed document, is a ConfigError (exit 2): a
    version-1 document has to be rebuilt."""
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read().decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path!r} is not a JSON document: {exc}") from None
    if type(doc) is not dict or doc.get("format") != "freebanach-export":
        raise ConfigError(f"{path!r} is not an export document")
    if not _same(doc.get("version"), FORMAT_VERSION):
        raise ConfigError(f"{path!r} has export format version {doc.get('version')!r}; only version "
                          f"{FORMAT_VERSION} is read: rebuild it with `freebanach build`")
    if tuple(doc) not in (TOP_KEYS, (*TOP_KEYS, "verification")):
        raise ConfigError(f"{path!r}: expected the fields {TOP_KEYS}, then an optional 'verification', "
                          f"found {tuple(doc)}")
    cfg = cfg if cfg is not None else Config.from_description(doc["config"])
    if not _same(doc["config"], cfg.describe()):
        raise ConfigError(f"{path!r} was not exported under this config")
    if type(doc["stages"]) is not list or len(doc["stages"]) != cfg.stage_count + 1:
        raise ConfigError(f"{path!r}: the config asks for {cfg.stage_count + 1} stages")
    universe = Universe(cfg)
    for n, sdoc in enumerate(doc["stages"]):
        universe.stages.append(_stage_from_doc(universe, n, sdoc))
    if "verification" in doc and not _same(doc["verification"], check_conditions(universe).describe()):
        raise ConfigError(f"{path!r}: the verification section is not the tables' check_conditions report")
    return universe


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _load_config(args) -> Config:
    """The command's config.  It is not validated here: ``Config.from_file``
    validates what it reads, the presets are valid, and ``Universe``
    validates its config again."""
    if args.config:
        return Config.from_file(args.config)
    return PRESETS[args.preset]()


def _build(cfg: Config) -> Universe:
    return Universe(cfg).build()


def _certify(universe) -> list:
    """The rank-0 dominance section of each word stage from stage 3
    (``verify.check_rank0_dominance``), which ``build``, ``dist`` and
    ``norm`` run on their fresh build before they export or answer: at
    ambient_expansion >= 2 a word stage's table is the construction's only
    where it passes.  A failing section is a construction error (exit 2),
    as is a delta_0 space over ``pair_cell_budget``; either way nothing is
    exported.  ``verify`` runs the same section in its biinvariance
    suite."""
    reports = []
    for stage in universe.stages:
        if stage.kind == "word" and stage.index >= 3:
            report = check_rank0_dominance(universe, stage)
            if not report.ok:
                from .metric_ext import MetricExtensionError

                raise MetricExtensionError(f"stage-{stage.index} metric exceeds the rank-0 clause on "
                                           f"{report.attempted - report.passed} of {report.attempted} delta_0 cells")
            reports.append(report)
    return reports


def cmd_build(args) -> int:
    cfg = _load_config(args)
    universe = _build(cfg)
    certificate = _certify(universe)
    suite = check_conditions(universe)
    export_tables(universe, args.out, suite)
    print(f"built stages 0..{universe.top.index}; export written to {args.out}")
    print(SuiteReport(suite.reports + certificate).render())
    return EXIT_OK if suite.ok else EXIT_VERIFICATION


def _eval_arg(universe, text: str) -> int:
    return eval_expr(parse_expr(text), universe)


def cmd_dist(args) -> int:
    cfg = _load_config(args)
    universe = _build(cfg)
    _certify(universe)
    a = _eval_arg(universe, args.e1)
    b = _eval_arg(universe, args.e2)
    if a == b:
        print("0 (identical elements)")
        return EXIT_OK
    for stage in universe.stages:
        if not (a in stage.member_set and b in stage.member_set):
            continue
        value = universe.rho(stage, a, b) if stage.kind == "word" else universe.norm_of_diff(stage, a, b)
        if value is not None:  # a vector stage carries the pair when a - b is a member
            print(f"{fraction_str(value)} (stage {stage.index})")
            return EXIT_OK
    print("no built stage carries this pair", file=sys.stderr)
    return EXIT_USAGE


def cmd_norm(args) -> int:
    cfg = _load_config(args)
    universe = _build(cfg)
    _certify(universe)
    eid = _eval_arg(universe, args.e)
    for stage in universe.stages:
        if stage.kind == "vector" and eid in stage.member_set:
            print(f"{fraction_str(stage.table[eid])} (stage {stage.index})")
            return EXIT_OK
    print("no built norm stage contains this element", file=sys.stderr)
    return EXIT_USAGE


def cmd_verify(args) -> int:
    universe = _build(_load_config(args))
    suite = check_suites(universe, SUITES if args.suite == "all" else (args.suite,))
    print(suite.render())
    return EXIT_OK if suite.ok else EXIT_VERIFICATION


def cmd_oracle(args) -> int:
    cfg = _load_config(args)
    if args.seed is not None:  # the oracles' random instances are the config's only reader of seed
        cfg = replace(cfg, seed=args.seed)
    ok = True
    from .oracles import run_all_oracles

    for line, passed in run_all_oracles(cfg):
        print(("[pass] " if passed else "[FAIL] ") + line)
        ok = ok and passed
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    rows = []
    t0 = time.perf_counter()
    universe = Universe(cfg).build()
    rows.append(("build all stages", time.perf_counter() - t0))
    for stage in universe.stages:
        for key, value in stage.notes.items():
            rows.append((f"stage {stage.index} {key}", value))
    t0 = time.perf_counter()
    check_conditions(universe)
    rows.append(("conditions", time.perf_counter() - t0))
    t0 = time.perf_counter()
    check_suites(universe, ("universal",))
    rows.append(("universal", time.perf_counter() - t0))
    import tempfile  # here, so that no other subcommand pays for importing it

    t0 = time.perf_counter()
    data = export_bytes(universe)
    with tempfile.NamedTemporaryFile(suffix=".json") as fh:
        fh.write(data)
        fh.flush()
        same = export_bytes(import_universe(fh.name, cfg)) == data
    rows.append(("round trip", time.perf_counter() - t0))
    width = max(len(r[0]) for r in rows)
    for name, value in rows:
        shown = f"{value:.3f}s" if isinstance(value, float) else str(value)
        print(f"{name:<{width}}  {shown}")
    if not same:
        print("error: the re-imported universe exports other bytes", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``main`` parses each
    argv into a fresh namespace, and the subcommands look their helpers up
    at call time."""
    parser = argparse.ArgumentParser(
        prog="freebanach",
        description="finite-stage free uniform Banach group construction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="config file (key/value format)")
        p.add_argument("--preset", default="desk", choices=sorted(PRESETS))

    p = sub.add_parser("build", help="construct stages and write the export document")
    common(p)
    p.add_argument("--out", default="export.json")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("dist", help="metric distance between two expressions")
    common(p)
    p.add_argument("e1")
    p.add_argument("e2")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("norm", help="norm of an expression")
    common(p)
    p.add_argument("e")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("verify", help="run verification suites")
    common(p)
    p.add_argument(
        "--suite",
        default="all",
        choices=[*SUITES, "all"],
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force cross-checks")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="seed of the random oracle instances")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="timing table")
    common(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
