"""The benchmark's workloads: one closed loop, one client, one process.

Every workload runs the same operations on its own preset, so that every
end-to-end metric exists on every workload:

* build     -- ``Universe.build`` of the preset;
* verify    -- what ``freebanach verify --suite all`` checks (conditions,
               bi-invariance per word stage, the three universal checks per
               target), plus on ``rank`` the four oracles that do not
               rebuild ``desk``;
* roundtrip -- ``export_bytes`` -> ``import_universe`` -> re-export, which
               must give the same bytes;
* digest    -- the id-independent table digest against the reference
               recorded at the seed (see ``gate``);
* query     -- seeded ``norm``/``dist`` queries on canonical texts, timed,
               and on equivalent non-canonical spellings, checked but not
               timed.  On ``query`` each goes through ``cli.main(...,
               "--preset", "exact-x2")``, which rebuilds stages 1-2; on
               ``desk`` and ``rank`` the queries are parsed and evaluated
               against the tower, as a library caller would, because a CLI
               query there rebuilds the whole tower (about a minute on
               ``desk``).

The mix differs: ``desk`` and ``rank`` spend their time in one big build,
``query`` in hundreds of tiny ones.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import random
import traceback

from freebanach import cli, oracles, universal, verify
from freebanach.exprs import eval_expr, parse_expr
from freebanach.stages import Config, Universe

import gate
import pace

# workload -> (preset, config, how queries reach the program)
PRESETS = {
    "desk": ("desk", Config.desk, "library"),
    "rank": ("rank", Config.rank, "library"),
    "query": ("exact-x2", Config.exact_x2, "cli"),
}

QUERY_ROUNDTRIPS = 4  # per pass of the query workload
# Builds and verifications per pass of the query workload: one takes 20-80
# ms, and one sample per worker left their medians at the mercy of a few.
QUERY_REPEATS = 2
CLI_QUERIES = 24  # timed, per pass of the query workload
CLI_SPELLINGS = 4  # untimed correctness checks, per pass of the query workload
# desk and rank: the build outlasts the run, so a pass checks the built tower
# in one verification, with a window of round trips and library queries
# before it and after each of its steps (3 windows on desk, 7 on rank), so
# that the millisecond operations are sampled across the pass.
WINDOW_ROUNDTRIPS = {"desk": 2, "rank": 10}  # a desk round trip takes 0.5 s, a rank one 7 ms
WINDOW_QUERIES = 500  # timed, per window
WINDOW_SPELLINGS = 50  # untimed correctness checks, per window
PHASES = ("build", "verify", "roundtrip", "digest", "query")


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def attempt(self, what: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, or None after recording its exception
        as a failed operation."""
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.check(False, f"{what}: {traceback.format_exc(limit=3)}")
            return None


class Run:
    """One worker's share of a workload run: set-up, then a fixed number of
    passes.  Operations are timed on ``meter.clock``, as ``(t0, t1)``
    intervals, and turned into samples by ``samples``."""

    def __init__(self, workload: str, seed: int, workdir: str, references: dict, index: int = 0, meter=None):
        self.workload = workload
        self.preset, make, self.queries = PRESETS[workload]
        self.cfg = Config(**{**vars(make()), "seed": seed})
        self.workdir = workdir
        self.reference = references[self.preset]
        self.ledger = Ledger()
        self.rng = random.Random(seed * 1_000_003 + index)  # each process of a run draws its own queries
        self.meter = meter or pace.Speedometer()
        self.clock = self.meter.clock
        # metric -> one list of (t0, t1) intervals per sample: the steps of a
        # verification, the single call of any other operation
        self.timings: dict[str, list[list[tuple[float, float]]]] = {
            "build_s": [],
            "verify_s": [],
            "roundtrip_s": [],
            "query_s": [],
        }
        self.tracer = None  # a tracing.Tracer in a traced run
        self.stream: list = []  # query workload: timed CLI queries
        self.spellings: list = []  # query workload: untimed spelling checks
        self.corrupt = None  # tests set this to damage each built universe

    @contextlib.contextmanager
    def _phase(self, name: str, timed: bool = True):
        # Each timed phase starts from a collected heap, so that garbage the
        # previous phase left is not collected inside this one's timing:
        # without it a rank round trip read 4.8-7.0 ms from process to
        # process, with it 4.3-4.5 ms.  It then starts and ends with a
        # host-speed reading, so that an operation of a few milliseconds is
        # scaled by the host's speed at its time, not by readings a periodic
        # tick took up to INTERVAL_S away (see ``pace``).
        if timed:
            gc.collect()
            self.meter.read()
        with self.tracer.span(f"bench.{name}") if self.tracer else contextlib.nullcontext():
            yield
        if timed:
            self.meter.read()

    # -- set-up ----------------------------------------------------------

    def setup(self, passes: int = 1) -> None:
        """The query workload's queries, as many as ``passes`` use, and
        their expected answers come from a set-up build whose tables must
        match the reference digest."""
        if self.queries != "cli":
            return
        universe = self.ledger.attempt("set-up build", Universe(self.cfg).build)
        if universe is None:
            return
        self.digest(universe)
        answers = gate.Answers(universe)
        self.stream = gate.query_stream(answers, self.rng, passes * CLI_QUERIES)
        self.spellings = gate.query_stream(answers, self.rng, passes * CLI_SPELLINGS, spelt=True)
        argv, expected, _ = self.stream[0]
        self.cli_query(argv, expected)  # warm-up, not timed

    # -- operations ------------------------------------------------------

    def build(self):
        with self._phase("build"):
            t0 = self.clock()
            universe = self.ledger.attempt("build", Universe(self.cfg).build)
            t1 = self.clock()
        if universe is not None:
            self.ledger.check(True, "build")
            self.timings["build_s"].append([(t0, t1)])
            if self.corrupt is not None:
                universe = self.corrupt(universe)
        return universe

    def _verify_steps(self, universe) -> list:
        """The checks of one verification as steps.  A step returns
        reports (``.ok``) and oracle outcomes (``(line, passed)``)."""
        attempt = self.ledger.attempt

        def conditions():
            found = []
            suite = attempt("check_conditions", verify.check_conditions, universe)
            if suite is not None:
                found += suite.reports
            for stage in universe.stages:
                if stage.sealed and stage.kind == "word":
                    suite = attempt("check_biinvariance", verify.check_biinvariance, universe, stage)
                    if suite is not None:
                        found += suite.reports
            return found

        def targets():
            found = []
            for target in self.cfg.targets:
                found.append(attempt("check_morphism_bound", universal.check_morphism_bound, universe, target))
                table = attempt("sigma_table", universal.sigma_table, universe, target)
                found.append(table[1] if table is not None else None)
                found.append(
                    attempt(
                        "check_operation_preservation",
                        universal.check_operation_preservation,
                        universe,
                        target,
                        seed=self.cfg.seed,
                    )
                )
            return found

        steps = [conditions, targets]
        if self.workload == "rank":
            # The random oracle instances keep the seeds `freebanach
            # oracle` uses: drawn from --seed, the LP oracle alone took
            # 2.0-3.7 s from seed to seed.
            for fn in (
                oracles.check_relax_oracle,
                oracles.check_lp_oracle,
                oracles.check_stage2_oracle,
                oracles.check_rho_oracle,
            ):
                steps.append(lambda fn=fn: [attempt(fn.__name__, fn)])
        return steps

    def verify(self, universe, between=None) -> None:
        """One verification, timed step by step; ``between()`` runs untimed
        after each step."""
        steps = []
        for step in self._verify_steps(universe):
            with self._phase("verify"):
                t0 = self.clock()
                found = step()
                steps.append((t0, self.clock()))
            for item in found:
                if isinstance(item, tuple):
                    line, passed = item
                    self.ledger.check(passed, f"oracle failed: {line}")
                elif item is not None:
                    self.ledger.check(item.ok, f"report not ok: {item.summary_line()}")
            if between is not None:
                between()
        self.timings["verify_s"].append(steps)

    def roundtrip(self, universe, count: int) -> None:
        path = os.path.join(self.workdir, f"roundtrip-{os.getpid()}.json")
        with self._phase("roundtrip"):
            for _ in range(count):
                t0 = self.clock()
                same = self.ledger.attempt("roundtrip", self._roundtrip_once, universe, path)
                t1 = self.clock()
                if same is None:
                    return
                self.timings["roundtrip_s"].append([(t0, t1)])
                self.ledger.check(same, "re-export differs from the export")

    @staticmethod
    def _roundtrip_once(universe, path: str) -> bool:
        data = cli.export_bytes(universe)
        with open(path, "wb") as fh:
            fh.write(data)
        again = cli.import_universe(path, universe.cfg)
        return cli.export_bytes(again) == data

    def digest(self, universe) -> None:
        with self._phase("digest", timed=False):
            problems = self.ledger.attempt("digest", gate.check_digest, universe, self.reference)
        if problems is not None:
            self.ledger.check(not problems, f"digest check ({self.preset}): {problems[:3]}")

    def cli_query(self, argv: list[str], expected: str):
        """One query through the CLI; its stdout must be the expected
        answer.  Returns its ``(t0, t1)``, or None when the query failed."""
        out = io.StringIO()
        t0 = self.clock()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main([*argv, "--preset", self.preset])
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:
            code = traceback.format_exc(limit=3)
        t1 = self.clock()
        ok = code == 0 and out.getvalue() == expected + "\n"
        self.ledger.check(ok, f"query {argv}: exit {code}, stdout {out.getvalue()!r}, expected {expected!r}")
        return (t0, t1) if ok else None

    def cli_queries(self, queries: list, timed: bool) -> None:
        """Each query in a phase of its own: one takes tens of
        milliseconds, the host's speed can change within a second."""
        for argv, expected, _ in queries:
            with self._phase("query", timed):
                interval = self.cli_query(argv, expected)
            if timed and interval is not None:
                self.timings["query_s"].append([interval])

    def library_queries(self, universe, queries: list, timed: bool) -> None:
        """Queries evaluated against the tower just built, as a library
        caller would (``parse_expr``, ``eval_expr``); only those calls are
        timed.  The stream is drawn from the tower's own tables, so the
        evaluated ids must be the expected members."""
        with self._phase("query", timed):
            for argv, _, ids in queries:
                texts = argv[1:]
                t0 = self.clock()
                try:
                    got = tuple(eval_expr(parse_expr(text), universe) for text in texts)
                except Exception:
                    self.ledger.check(False, f"query {argv}: {traceback.format_exc(limit=3)}")
                    continue
                t1 = self.clock()
                if self.ledger.check(got == ids, f"query {argv}: got {got}, expected {ids}") and timed:
                    self.timings["query_s"].append([(t0, t1)])

    # -- the loop --------------------------------------------------------

    def one_pass(self, index: int = 0) -> None:
        repeats = QUERY_REPEATS if self.queries == "cli" else 1
        for _ in range(repeats):
            universe = self.build()
            if universe is None:
                return
            self.digest(universe)
        if self.queries == "cli":
            for _ in range(repeats):
                self.verify(universe)
            self.roundtrip(universe, QUERY_ROUNDTRIPS)
            self.cli_queries(self.stream[index * CLI_QUERIES : (index + 1) * CLI_QUERIES], timed=True)
            self.cli_queries(self.spellings[index * CLI_SPELLINGS : (index + 1) * CLI_SPELLINGS], timed=False)
            return
        # The checks on the built tower: a window of round trips and
        # queries before the verifications and after each of their steps,
        # so that the millisecond operations are sampled across the whole
        # pass, not in one stretch.
        answers = gate.Answers(universe)

        def window():
            self.roundtrip(universe, WINDOW_ROUNDTRIPS[self.workload])
            self.library_queries(universe, gate.query_stream(answers, self.rng, WINDOW_QUERIES), timed=True)
            spelt = gate.query_stream(answers, self.rng, WINDOW_SPELLINGS, spelt=True)
            self.library_queries(universe, spelt, timed=False)

        window()
        self.verify(universe, between=window)

    def measure(self, passes: int) -> None:
        """``passes`` passes, fewer once an operation has failed."""
        if self.queries == "cli" and not self.stream:
            return  # set-up failed, already recorded
        for index in range(passes):
            self.one_pass(index)
            if self.ledger.failed:
                return

    def samples(self, scaled: bool = True) -> dict[str, list[float]]:
        """Each metric's samples in seconds: scaled to the reference host
        speed by the meter's readings (see ``pace``), or as wall time."""
        if scaled:
            return {key: [self.meter.scale(sample) for sample in v] for key, v in self.timings.items()}
        return {key: [sum(t1 - t0 for t0, t1 in sample) for sample in v] for key, v in self.timings.items()}
