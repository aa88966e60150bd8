"""Executable verification of every stated invariant, with counterexamples.

Each checker is a pure function of the stage tables; two runs produce
identical reports.  A stage holds its table as it was built, exact
integers over one scale (``stages.Stage``), in Python ints past
``lp._fit``'s int64 bound, so no table is refused for its size; the dense
sections read that array, ``Stage.scaled_table``, and convert nothing.  The
word-stage sections read one group law per stage (product table and
inverse map), built once from its member words by ``TermStore.group_law``.
Every section is exhaustive; none samples.  Condition 3's splitting walks
rows, each one product pair (c, d) against all k of them, so it holds
O(k) memory at a time over all k^2 instances.  The metric sections take
memory quadratic in the stage size.  Condition 5's subadditivity, on a
grid of n axes with r digits each, takes blocks of r^(n - k) p^k entries,
k = n // 2 and p <= r^2 the digit pairs of one axis, never all p^n pairs
of the stage.

Numbered conditions:

1. metric zero exactly on the diagonal; norm zero exactly at the unit,
   each norm-stage member on its cell of the digit grid (``stages``)
2. each table extends the previous one exactly on qualifying pairs
   (``check_extension_metric``, ``check_extension_norm``)
3. product splitting (the bi-invariance inequality) and inversion equality
4. convexity of the metric in a convex-combination argument
5. homogeneity and subadditivity of the norm, read off the digit grid
6. inverse-convexity (odd clause on metric stages, even clause on norm
   stages; vacuous whenever no positive-rank element is in range)

Each invariant is checked in one section.  ``check_biinvariance`` adds the
triangle inequality and two-sided translation invariance on each word stage;
the splitting inequality they follow from is condition 3; from stage 3 on
it also certifies rho against the rank-0 clause the build does not seed.
``check_suites`` is the one list of sections that ``freebanach verify``
reports.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .lp import _absmax, _fit
from .metric_ext import delta_general, delta_rank0_closure, rho_space_len
from .stages import NotBuiltError, off_grid_cells
from .terms import UNIT_ID, pair_key
from .universal import check_morphism_bound, check_operation_preservation

COUNTEREXAMPLE_CAP = 25


@dataclass
class VerificationReport:
    suite: str
    attempted: int = 0
    passed: int = 0
    counterexamples: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    vacuous: bool = False

    @property
    def ok(self) -> bool:
        return not self.counterexamples and self.passed == self.attempted

    def add_counterexample(self, **info) -> None:
        if len(self.counterexamples) < COUNTEREXAMPLE_CAP:
            self.counterexamples.append(info)
        self.meta["counterexample_count"] = self.meta.get("counterexample_count", 0) + 1

    def describe(self) -> dict:
        return {
            "suite": self.suite,
            "attempted": self.attempted,
            "passed": self.passed,
            "ok": self.ok,
            "vacuous": self.vacuous,
            "counterexamples": [
                {k: repr(v) for k, v in ce.items()} for ce in self.counterexamples
            ],
            "meta": {k: repr(v) for k, v in sorted(self.meta.items())},
        }

    def summary_line(self) -> str:
        tag = "vacuous-pass" if self.vacuous and self.ok else ("pass" if self.ok else "FAIL")
        return f"[{tag}] {self.suite}: {self.passed}/{self.attempted}"


@dataclass
class SuiteReport:
    reports: list[VerificationReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    def extend(self, reports) -> None:
        self.reports.extend(reports)

    def describe(self) -> dict:
        return {"ok": self.ok, "sections": [r.describe() for r in self.reports]}

    def render(self) -> str:
        lines = [r.summary_line() for r in self.reports]
        lines.append(f"overall: {'pass' if self.ok else 'FAIL'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# numbered conditions
# ---------------------------------------------------------------------------


def check_condition_1(universe) -> list[VerificationReport]:
    out = []
    for stage in universe.stages:
        if stage.index == 0:
            continue
        report = VerificationReport(suite=f"condition 1 stage {stage.index}")
        ints, scale = stage.scaled_table()
        members, n = stage.members, len(stage.members)
        if stage.kind == "word":  # member pairs i < j, row-major
            keys, values, off = list(combinations(members, 2)), ints[np.tri(n, k=-1, dtype=bool).T], []
            bad = values <= 0
        else:
            keys, values, off = members, ints, off_grid_cells(universe.store, stage)
            bad = (values < 0) | ((values == 0) != (np.array(members, dtype=np.int64) == UNIT_ID))
            bad[[k for k in off if k < n]] = True
        report.attempted, report.passed = len(values), len(values) - int(bad.sum())
        for k in np.flatnonzero(bad).tolist():
            where = {"pair": keys[k]} if stage.kind == "word" else {"element": keys[k], "cell": k}
            report.add_counterexample(**where, value=str(Fraction(int(values[k]), scale)))
        for k in [k for k in off if k >= n]:  # cells with no member
            report.add_counterexample(element=None, cell=k)
        out.append(report)
    return out


def check_extension_metric(universe, stage, prev) -> VerificationReport:
    """The new metric agrees exactly with the previous norm on pairs of
    previous-stage elements whose difference lies in the previous stage."""
    report = VerificationReport(suite=f"extension rho_{stage.index}")
    for i, a in enumerate(prev.members):
        for b in prev.members[i + 1 :]:
            want = universe.norm_of_diff(prev, a, b)
            if want is None:
                continue
            got = stage.table.get(pair_key(a, b))
            report.attempted += 1
            if got == want:
                report.passed += 1
            else:
                report.add_counterexample(pair=(a, b), expected=str(want), got=str(got))
    return report


def check_extension_norm(universe, stage, prev) -> VerificationReport:
    """The new norm agrees exactly with the previous metric on differences
    of previous-stage elements that land in this stage."""
    report = VerificationReport(suite=f"extension norm_{stage.index}")
    for i, a in enumerate(prev.members):
        for b in prev.members[i + 1 :]:
            got = universe.norm_of_diff(stage, a, b)
            if got is None:
                continue
            want = universe.rho(prev, a, b)
            report.attempted += 1
            if got == want:
                report.passed += 1
            else:
                report.add_counterexample(pair=(a, b), expected=str(want), got=str(got))
    return report


def check_condition_2(universe) -> list[VerificationReport]:
    out = []
    for stage in universe.stages:
        if stage.index == 0:
            continue
        prev = universe.stages[stage.index - 1]
        if stage.index == 1:
            out.append(VerificationReport(suite="extension rho_1", vacuous=True))
        elif stage.kind == "word":
            out.append(check_extension_metric(universe, stage, prev))
        else:
            out.append(check_extension_norm(universe, stage, prev))
    return out


def _fact_inequality(stage, P, R, scale) -> VerificationReport:
    """rho(ab, cd) <= rho(a, c) + rho(b, d) over the k pairs (a, b) whose
    product is a member, one row (c, d) at a time against all k pairs:
    all k^2 instances."""
    report = VerificationReport(suite=f"condition 3 splitting stage {stage.index}")
    ab = np.argwhere(P >= 0)  # pairs with in-stage product
    a, b = ab.T
    pa, k = P[a, b], len(ab)
    for c, d in ab:
        lhs = R[pa, P[c, d]]
        rhs = R[a, c] + R[b, d]
        report.attempted += k
        bad = np.nonzero(lhs > rhs)[0]
        report.passed += k - len(bad)
        for t in bad[:3]:
            report.add_counterexample(
                quadruple=tuple(stage.members[i] for i in (a[t], b[t], c, d)),
                lhs=str(Fraction(int(lhs[t]), scale)),
                rhs=str(Fraction(int(rhs[t]), scale)),
            )
    report.vacuous = report.attempted == 0
    return report


def _inverse_invariance(stage, inv, R, scale) -> VerificationReport:
    """rho(a, b) = rho(a^-1, b^-1) on member pairs, read off the metric
    matrix through the inverse map.  A member whose inverse is not a member
    is a counterexample, and none of its pairs passes."""
    report = VerificationReport(suite=f"condition 3 inversion stage {stage.index}")
    members, n = stage.members, len(stage.members)
    present = inv >= 0
    for i in np.flatnonzero(~present):
        report.add_counterexample(element=members[i], inverse=None)
    both = np.triu(np.ones((n, n), dtype=bool), 1) & present[:, None] & present[None, :]
    bad = both & (R != R[inv][:, inv])
    report.attempted = n * (n - 1) // 2
    report.passed = int(both.sum()) - int(bad.sum())
    for i, j in np.argwhere(bad):
        report.add_counterexample(
            pair=(members[i], members[j]),
            lhs=str(Fraction(int(R[i, j]), scale)),
            rhs=str(Fraction(int(R[inv[i], inv[j]]), scale)),
        )
    return report


def check_condition_3(universe) -> list[VerificationReport]:
    out = []
    for stage in universe.stages:
        if stage.kind == "word":
            R, scale = stage.scaled_table()
            P, inv = universe.store.group_law(stage.members)
            out.append(_fact_inequality(stage, P, R, scale))
            out.append(_inverse_invariance(stage, inv, R, scale))
    return out


def _convex_report(universe, stage, suite: str, inverse: bool) -> VerificationReport:
    """rho(a, b) <= sum_i alpha_i rho(a, z_i) over the stage's convex
    (condition 4) or inverse-convex (condition 6, odd clause) instances."""
    report = VerificationReport(suite=suite)
    for b, terms in universe.store.convex_instances(stage, inverse):
        for a in stage.members:
            if a == b:
                continue
            report.attempted += 1
            lhs = universe.rho(stage, a, b)
            rhs = sum((alpha * universe.rho(stage, a, z) for alpha, z in terms), Fraction(0))
            if lhs <= rhs:
                report.passed += 1
            else:
                report.add_counterexample(pair=(a, b), lhs=str(lhs), rhs=str(rhs))
    report.vacuous = report.attempted == 0
    return report


def check_condition_4(universe) -> list[VerificationReport]:
    return [
        _convex_report(universe, stage, f"condition 4 stage {stage.index}", inverse=False)
        for stage in universe.stages
        if stage.kind == "word"
    ]


def check_condition_5(universe) -> list[VerificationReport]:
    """Homogeneity and subadditivity of each norm stage, both read off one
    ``_member_lattice``: the stage's members in member order are its digit
    grid, so each law is a map of digit runs along every axis."""
    out = []
    for stage in universe.stages:
        if stage.kind != "vector" or stage.index == 0:
            continue
        lattice = _member_lattice(stage)
        out.append(_homogeneity_report(stage, lattice))
        out.append(_subadditivity_report(stage, lattice))
    return out


def _member_lattice(stage):
    """A norm stage's ``Stage.scaled_table`` and member ids, reshaped to
    the scalar-set grid (axis k for basis element k, digit d for the d-th
    scalar of the sorted set; ``stages`` owns that order and condition 1
    checks it, and a stage off the grid's size is refused), the scalars and
    the scale."""
    values = [d.as_fraction() for d in stage.scalar_set]
    shape = (len(values),) * len(stage.basis)
    if len(stage.members) != len(values) ** len(shape):
        raise NotBuiltError(f"stage {stage.index} has {len(stage.members)} members, not the "
                            f"{len(values) ** len(shape)} cells of its digit grid (see condition 1)")
    N, scale = stage.scaled_table()
    return N.reshape(shape), np.array(stage.members, dtype=np.int64).reshape(shape), values, scale


def _digit_runs(values, alpha: Fraction, shift: Fraction):
    """The digits whose scalar s the map s -> alpha s + shift keeps in the
    set, and the digits of the images, each as an index: a slice (a view)
    when the digits are evenly spaced, as on every evenly spaced scalar set,
    else an index array.  Both laws of condition 5 are such maps on each
    axis alone: v -> alpha v, and v -> v + m with m's coefficient on the
    axis as the shift.  Each keeps 0 or the shift, so no run is empty."""
    digit = {v: i for i, v in enumerate(values)}
    images = [alpha * v + shift for v in values]
    kept = [(d, digit[w]) for d, w in enumerate(images) if w in digit]
    runs = []
    for digits in zip(*kept):
        step = digits[1] - digits[0] if len(digits) > 1 else 1
        if all(b - a == step for a, b in zip(digits, digits[1:])):
            stop = digits[-1] + step
            runs.append(slice(digits[0], stop if stop >= 0 else None, step))
        else:
            runs.append(np.array(digits))
    return runs


def _take(grid, runs):
    """``grid`` restricted to one run per axis: the slices as a view, then
    each index array along its axis."""
    if all(isinstance(r, slice) for r in runs):
        return grid[runs]
    out = grid[tuple(r if isinstance(r, slice) else slice(None) for r in runs)]
    for axis, r in enumerate(runs):
        if not isinstance(r, slice):
            out = np.take(out, r, axis=axis)
    return out


def _homogeneity_report(stage, lattice) -> VerificationReport:
    """||alpha v|| = |alpha| ||v||, as q N[alpha v] = |p| N[v], for each
    ratio alpha = p/q != 1 of nonzero scalars (the set is symmetric, so they
    include -1) and each nonzero member v with alpha v a member.  The
    products run in int64 while ``lp._fit``'s bound covers them, else in
    Python ints."""
    report = VerificationReport(suite=f"condition 5 homogeneity stage {stage.index}")
    N, ids, values, scale = lattice
    nonzero = [v for v in values if v]
    ratios = sorted({a / b for a in nonzero for b in nonzero} - {1})
    [N] = _fit(_absmax(N) * max((max(abs(r.numerator), r.denominator) for r in ratios), default=1), N)
    for alpha in ratios:
        source, target = ((run,) * N.ndim for run in _digit_runs(values, alpha, Fraction(0)))
        s, t, m = _take(N, source), _take(N, target), _take(ids, source)
        nonzero = m != UNIT_ID
        bad = nonzero & (alpha.denominator * t != abs(alpha.numerator) * s)
        report.attempted += int(nonzero.sum())
        report.passed += int((nonzero & ~bad).sum())
        for i in zip(*np.nonzero(bad)):
            report.add_counterexample(
                element=int(m[i]), alpha=str(alpha),
                lhs=str(Fraction(int(t[i]), scale)),
                rhs=str(abs(alpha) * Fraction(int(s[i]), scale)),
            )
    return report


def _subadditivity_report(stage, lattice) -> VerificationReport:
    """||v + m|| <= ||v|| + ||m|| for each nonzero member m and each member
    v, the zero one too, with v + m a member, in blocks of step cells.

    The grid's last n // 2 axes are the inner block, the others the outer.
    The (source, target) digit pairs of every inner step cell are built
    once from its axes' ``_digit_runs``, as flat inner indices grouped by
    that cell, and the norms are gathered once along them (``NS``, ``NT``).
    The loop then runs over the outer step cells alone: each is one view of
    ``NS`` and ``NT`` on its outer runs, holding the pairs of every step
    that shares its outer digits.  A step holds when its worst t - s is at
    most N at the step; a block where some step fails counts the
    violations of each.  A step's pairs are the product of its axes' runs
    either way, the unit step is still skipped and the steps come in C
    order, so the report is the one a pass per step cell gives.  With r
    digits and p <= r^2 digit pairs per axis, ``NS``, ``NT`` and a block
    hold at most r^(n - n // 2) p^(n // 2) entries: 81 x 7^4 on desk stage
    4, never its 7^8 pairs.  A difference of two scaled norms cannot wrap
    (``Stage.scaled_table``)."""
    report = VerificationReport(suite=f"condition 5 subadditivity stage {stage.index}")
    N, ids, values, _ = lattice
    radix, outer = len(values), N.ndim - N.ndim // 2
    shifts = [_digit_runs(values, Fraction(1), v) for v in values]
    digits, pairs = np.arange(radix), []
    for cell in np.ndindex(N.shape[outer:]):  # the pairs of each inner step cell, flattened
        s = t = np.zeros(1, dtype=np.intp)
        for d in cell:
            a, b = (digits[run] for run in shifts[d])
            s, t = (s[:, None] * radix + a).ravel(), (t[:, None] * radix + b).ravel()
        pairs.append((s, t))
    sizes = np.array([len(s) for s, _ in pairs])
    starts = np.cumsum(sizes) - sizes
    steps_at = N.reshape(N.shape[:outer] + (-1,))
    ids_at = ids.reshape(steps_at.shape)
    NS, NT = (steps_at[..., np.concatenate(i)] for i in zip(*pairs))
    buffer = np.empty(NS.size, dtype=NS.dtype)  # one block's t - s, reused: no fresh pages per block
    for cell in np.ndindex(N.shape[:outer]):
        s, t = (_take(grid, tuple(shifts[d][i] for d in cell) + (slice(None),)) for i, grid in enumerate((NS, NT)))
        diff = np.subtract(t, s, out=buffer[: t.size].reshape(t.shape)).reshape(-1, t.shape[-1])
        steps, live = steps_at[cell], ids_at[cell] != UNIT_ID
        count = int((len(diff) * sizes)[live].sum())
        report.attempted += count
        report.passed += count
        bad = live & (np.maximum.reduceat(diff.max(axis=0), starts) > steps)
        if bad.any():
            nbad = np.add.reduceat((diff > np.repeat(steps, sizes)).sum(axis=0), starts)
            report.passed -= int(nbad[bad].sum())
            for c in np.flatnonzero(bad):
                report.add_counterexample(step_member=int(ids_at[cell][c]), violations=int(nbad[c]))
    return report


def check_condition_6(universe) -> list[VerificationReport]:
    """The odd clause on word stages; the even clause on vector stages,
    ||a - b|| <= sum_i alpha_i ||a - z_i|| for each inverse-convex instance
    (b, z) of the previous word stage, wherever all those differences are
    members.  An instance there needs each z_i in that stage; on a built
    tower an interned z_i is a basis word, so it is, and none is lost."""
    out = []
    for stage in universe.stages:
        if stage.index == 0:
            continue
        if stage.kind == "word":
            out.append(_convex_report(universe, stage, f"condition 6 odd stage {stage.index}", inverse=True))
            continue
        report = VerificationReport(suite=f"condition 6 even stage {stage.index}")
        prev = universe.stages[stage.index - 1]
        for b, terms in universe.store.convex_instances(prev, inverse=True):
            for a in stage.members:
                lhs = universe.norm_of_diff(stage, a, b)
                norms = [universe.norm_of_diff(stage, a, z) for _, z in terms]
                if lhs is None or None in norms:
                    continue
                report.attempted += 1
                rhs = sum((alpha * v for (alpha, _), v in zip(terms, norms)), Fraction(0))
                if lhs <= rhs:
                    report.passed += 1
                else:
                    report.add_counterexample(pair=(a, b), lhs=str(lhs), rhs=str(rhs))
        report.vacuous = report.attempted == 0
        out.append(report)
    return out


def check_conditions(universe) -> SuiteReport:
    """All numbered conditions over every stage."""
    suite = SuiteReport()
    suite.extend(check_condition_1(universe))
    suite.extend(check_condition_2(universe))
    suite.extend(check_condition_3(universe))
    suite.extend(check_condition_4(universe))
    suite.extend(check_condition_5(universe))
    suite.extend(check_condition_6(universe))
    return suite


# ---------------------------------------------------------------------------
# bi-invariance
# ---------------------------------------------------------------------------


def check_biinvariance(universe, stage) -> SuiteReport:
    """The triangle inequality and the two-sided translation-invariance
    equalities on one word stage, both exhaustive, and from stage 3 on the
    rank-0 dominance certificate (``check_rank0_dominance``).  The
    splitting inequality they follow from is checked once, as condition 3."""
    R, _ = stage.scaled_table()
    n = len(stage.members)
    tri = VerificationReport(suite=f"triangle inequality stage {stage.index}")
    nbad, first = 0, []
    for b in range(n):  # rho(a, c) > rho(a, b) + rho(b, c), one middle b at a time
        bad = np.argwhere(R > R[:, b, None] + R[None, b, :])
        nbad += len(bad)
        first += [(a, b, c) for a, c in bad[:5]]
    tri.attempted = n**3
    tri.passed = tri.attempted - nbad
    for triple in sorted(first)[:5]:  # the first five of all, in (a, b, c) order
        tri.add_counterexample(triple=tuple(stage.members[i] for i in triple))
    if nbad:
        tri.meta["counterexample_count"] = nbad

    P, _ = universe.store.group_law(stage.members)
    trans = VerificationReport(suite=f"translation invariance stage {stage.index}")
    for g in range(n):
        for side, moved in (("left", P[g]), ("right", P[:, g])):  # g . a, a . g
            idx = np.nonzero(moved >= 0)[0]
            sub = moved[idx]
            bad = np.argwhere(R[np.ix_(sub, sub)] != R[np.ix_(idx, idx)])
            trans.attempted += len(idx) ** 2
            trans.passed += len(idx) ** 2 - len(bad)
            for i, j in bad[:3]:
                pair = (stage.members[idx[i]], stage.members[idx[j]])
                trans.add_counterexample(g=stage.members[g], pair=pair, side=side)
    return SuiteReport([tri, trans] + ([check_rank0_dominance(universe, stage)] if stage.index >= 3 else []))


def check_rank0_dominance(universe, stage) -> VerificationReport:
    """rho <= delta_0 on every pair where delta_0, the construction's
    rank-0 clause, has a value: ``delta_general`` of the rank-0 closure, a
    plain {(a, b): Fraction} dict keyed a < b, like a word stage's ``table``.
    That certifies the table as the fixpoint with the clause seeded
    (``metric_ext`` docstring) where no proof covers it.  The case is
    ``rho_extend``'s own space rule, counted from the config and the
    stage's letters, so an imported stage runs it too.  In the members
    space at ambient_expansion >= 2 every cell is checked, with the
    closure's sweeps and entries in the meta; a delta_0 space over
    ``pair_cell_budget`` raises ``MetricExtensionError``.  Elsewhere (the
    ambient space, or expansion 1) the section is vacuous and names the
    proof."""
    cfg = universe.cfg
    report = VerificationReport(suite=f"rank-0 dominance stage {stage.index}")
    if rho_space_len(universe, stage, cfg)[1] == cfg.ambient_expansion * stage.word_cap:
        report.vacuous = True
        report.meta["proof"] = "metric_ext docstring: " + (
            "ambient space" if cfg.ambient_expansion > 1 else "expansion 1")
        return report
    rank0, sweeps, entries = delta_rank0_closure(universe, stage, universe.stage(stage.index - 1), cfg)
    report.meta.update(delta_sweeps=sweeps, delta_entries=entries)
    for (a, b), bound in sorted(delta_general(universe, rank0).items()):
        report.attempted += 1
        rho = universe.rho(stage, a, b)
        if rho <= bound:
            report.passed += 1
        else:
            report.add_counterexample(pair=(a, b), rho=str(rho), delta0=str(bound))
    return report


# ---------------------------------------------------------------------------
# aggregate suite and fault injection
# ---------------------------------------------------------------------------

SUITES = ("conditions", "biinvariance", "universal")


def check_suites(universe, suites=SUITES) -> SuiteReport:
    """The sections of the named suites on a built tower, in this order: the
    numbered conditions; triangle and translation invariance on each word
    stage; per target, the morphism bound and operation preservation."""
    suite = check_conditions(universe) if "conditions" in suites else SuiteReport()
    if "biinvariance" in suites:
        for stage in universe.stages:
            if stage.kind == "word":
                suite.extend(check_biinvariance(universe, stage).reports)
    if "universal" in suites:
        for target in universe.cfg.targets:
            suite.reports += [check_morphism_bound(universe, target),
                              check_operation_preservation(universe, target)]
    return suite


def perturbed(universe, stage_index: int, key, delta: Fraction):
    """A view of the universe with one table entry shifted; the original is
    untouched.  Used to demonstrate that the checkers detect corruption."""
    clone = copy.copy(universe)
    clone.stages = list(universe.stages)
    stage = universe.stages[stage_index]
    table = dict(stage.table)
    if key not in table:
        raise KeyError(f"no table entry {key!r} in stage {stage_index}")
    table[key] = table[key] + delta
    clone.stages[stage_index] = stage.with_table(table)
    return clone
