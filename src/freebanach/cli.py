"""Command-line entry points and bit-exact table export.

Subcommands: build, dist, norm, verify, oracle, bench.  Exit codes: 0 on
success, 1 on verification failure, 2 on usage, config, evaluation, or
construction errors (a relaxation or molecule program that cannot finish
within the config).  Exported documents are deterministic byte-for-byte
for a fixed config: values are integer pairs, never decimals, and field
order is fixed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .exprs import ExprSyntaxError, OutOfUniverseError, eval_expr, parse_expr
from .lp import InfeasibleLP
from .relax import RelaxError
from .scalars import Dyadic, ScalarDomainError, fraction_str
from .stages import (PRESETS, BudgetExceededError, Config, ConfigError, NotBuiltError, Stage, Universe,
                     off_grid_cells)
from .terms import (
    AlgebraError,
    ComboTerm,
    GenTerm,
    UnitTerm,
    WordTerm,
)
from .verify import SUITES, SuiteReport, check_conditions, check_suites

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# export document
# ---------------------------------------------------------------------------


def _term_doc(term):
    if isinstance(term, UnitTerm):
        return ["e"]
    if isinstance(term, GenTerm):
        return ["gen", term.index]
    if isinstance(term, WordTerm):
        return ["word", [[b, s] for b, s in term.letters]]
    if isinstance(term, ComboTerm):
        # a normalized Dyadic is already in lowest terms: num over 2^log2den
        return ["combo", [[b, c.num, 1 << c.log2den] for b, c in term.coeffs]]
    raise TypeError(f"unknown term {term!r}")


def _term_from_doc(doc, pairs: dict | None = None):
    """The term of a member document.  ``pairs`` memoizes combination
    coefficients, so that every ``[b, num, den]`` triple read with the same
    memo passes through ``Dyadic.from_pair`` once and shares one ``(b, c)``
    pair; only triples of exact ints are kept, since ``1.0 == True == 1``
    would otherwise let a float or a bool field through as a hit."""
    kind = doc[0]
    if kind == "e":
        return UnitTerm()
    if kind == "gen":
        return GenTerm(doc[1])
    if kind == "word":
        return WordTerm(tuple((b, s) for b, s in doc[1]))
    if kind == "combo":
        if pairs is None:
            pairs = {}
        coeffs = []
        for b, n, d in doc[1]:
            if type(b) is int and type(n) is int and type(d) is int:
                pair = pairs.get((b, n, d))
                if pair is None:
                    pair = pairs[b, n, d] = (b, Dyadic.from_pair(n, d))
            else:
                pair = (b, Dyadic.from_pair(n, d))
            coeffs.append(pair)
        return ComboTerm(tuple(coeffs))
    raise ValueError(f"unknown term document {doc!r}")


def export_document(universe, suite: SuiteReport | None = None) -> dict:
    stages = []
    for stage in universe.stages:
        if not stage.sealed:
            continue
        entry = {
            "index": stage.index,
            "kind": stage.kind,
            "members": [
                {"id": m, "term": _term_doc(universe.store.term(m))}
                for m in stage.members
            ],
        }
        if stage.kind == "word":
            entry["word_cap"] = stage.word_cap
            entry["generators"] = list(stage.generators)
            entry["table"] = [
                [a, b, v.numerator, v.denominator]
                for (a, b), v in sorted(stage.table.items())
            ]
        else:
            entry["scalar_set"] = [str(d) for d in stage.scalar_set]
            entry["basis"] = list(stage.basis)
            entry["table"] = [
                [m, stage.table[m].numerator, stage.table[m].denominator]
                for m in stage.members
            ]
        stages.append(entry)
    doc = {
        "format": "freebanach-export",
        "version": 1,
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


def _table_value(num, den) -> Fraction:
    """A norm or distance read from a table: an int numerator >= 0 over a
    positive int denominator (a bool or a float is not an int here)."""
    if type(den) is not int or den <= 0:
        raise ConfigError(f"table value {num}/{den}: the denominator is not a positive int")
    if type(num) is not int or num < 0:
        raise ConfigError(f"table value {num}/{den}: the numerator is not a non-negative int")
    return Fraction(num, den)


def import_universe(path: str, cfg: Config | None = None):
    """Rebuild a universe from an export document: terms are interned in id
    order so the reconstructed store is identical to the original.  A table
    value that is not a non-negative int over a positive int, or a vector
    stage whose members are not its digit grid in order
    (``stages.off_grid_cells``), is a ConfigError.  The document is
    untrusted, so every new member is checked by ``intern``; only its
    combination coefficients are shared, one per distinct triple read
    (``_term_from_doc``'s memo, which lives for this call)."""
    with open(path, "rb") as fh:
        doc = json.loads(fh.read().decode())
    if doc.get("format") != "freebanach-export":
        raise ConfigError(f"{path!r} is not an export document")
    cfg = cfg if cfg is not None else Config()
    universe = Universe(cfg)
    universe.stages = []
    store = universe.store
    pending: dict[int, list] = {}
    pairs: dict = {}
    for sdoc in doc["stages"]:
        for gid in sdoc.get("generators", ()):  # registration precedes letters
            store.register_generator(gid)
        for bid in sdoc.get("basis", ()):
            store.register_basis(bid)
        for m in sdoc["members"]:
            pending[m["id"]] = m["term"]
        for eid in sorted(pending):
            if eid < len(store):
                continue
            term = _term_from_doc(pending[eid], pairs)
            got = store.intern(term)
            if got != eid:
                raise ConfigError(f"id mismatch on import: {got} != {eid}")
        ids = tuple(m["id"] for m in sdoc["members"])
        common = dict(index=sdoc["index"], members=ids, member_set=frozenset(ids), sealed=True)
        if sdoc["kind"] == "word":
            stage = Stage(kind="word", **common, generators=tuple(sdoc["generators"]),
                          table={(a, b): _table_value(n, d) for a, b, n, d in sdoc["table"]},
                          word_cap=sdoc["word_cap"])
        else:
            stage = Stage(kind="vector", **common, basis=tuple(sdoc.get("basis", ())),
                          table={m: _table_value(n, d) for m, n, d in sdoc["table"]},
                          scalar_set=tuple(Dyadic.parse(s) for s in sdoc.get("scalar_set", ())))
            off = off_grid_cells(store, stage)
            if off:
                raise ConfigError(f"stage {stage.index}: members off their digit-grid cells {off[:5]}")
        universe.stages.append(stage)
    return universe


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _load_config(args) -> Config:
    if args.config:
        cfg = Config.from_file(args.config)
    else:
        cfg = PRESETS[args.preset]()
    if args.seed is not None:
        cfg = Config(**{**vars(cfg), "seed": args.seed})
    cfg.validate()
    return cfg


def _build(cfg: Config) -> Universe:
    return Universe(cfg).build()


def cmd_build(args) -> int:
    cfg = _load_config(args)
    universe = _build(cfg)
    suite = check_conditions(universe)
    export_tables(universe, args.out, suite)
    print(f"built stages 0..{universe.top.index}; export written to {args.out}")
    print(suite.render())
    return EXIT_OK if suite.ok else EXIT_VERIFICATION


def _eval_arg(universe, text: str) -> int:
    return eval_expr(parse_expr(text), universe)


def cmd_dist(args) -> int:
    cfg = _load_config(args)
    universe = _build(cfg)
    a = _eval_arg(universe, args.e1)
    b = _eval_arg(universe, args.e2)
    if a == b:
        print("0 (identical elements)")
        return EXIT_OK
    for stage in universe.stages:
        if not stage.sealed:
            continue
        if stage.kind == "word" and a in stage.member_set and b in stage.member_set:
            print(f"{fraction_str(universe.rho(stage, a, b))} (stage {stage.index})")
            return EXIT_OK
        if stage.kind == "vector" and a in stage.member_set and b in stage.member_set:
            diff = universe.store.combine_id(a, b)
            if diff is not None and diff in stage.member_set:
                print(f"{fraction_str(stage.table[diff])} (stage {stage.index})")
                return EXIT_OK
    print("no built stage carries this pair", file=sys.stderr)
    return EXIT_USAGE


def cmd_norm(args) -> int:
    cfg = _load_config(args)
    universe = _build(cfg)
    eid = _eval_arg(universe, args.e)
    for stage in universe.stages:
        if stage.sealed and stage.kind == "vector" and eid in stage.member_set:
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
    width = max(len(r[0]) for r in rows)
    for name, value in rows:
        shown = f"{value:.3f}s" if isinstance(value, float) else str(value)
        print(f"{name:<{width}}  {shown}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="freebanach",
        description="finite-stage free uniform Banach group construction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="config file (key/value format)")
        p.add_argument("--preset", default="desk", choices=sorted(PRESETS))
        p.add_argument("--seed", type=int, default=None)

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
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="timing table")
    common(p)
    p.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ExprSyntaxError, ScalarDomainError, OutOfUniverseError,
            AlgebraError, BudgetExceededError, NotBuiltError, OSError, RelaxError,
            InfeasibleLP) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
