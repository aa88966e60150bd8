"""Executable verification of every stated invariant, with counterexamples.

Each checker is a pure function of sealed stage tables; two runs produce
identical reports.  Quantifiers are exhausted up to the configured budget
and seeded-sampled beyond it, with the seed and sample size recorded in the
report so failures reproduce.

Numbered conditions:

1. metric zero exactly on the diagonal; norm zero exactly at the unit
2. each table extends the previous one exactly on qualifying pairs
3. product splitting (the bi-invariance inequality) and inversion equality
4. convexity of the metric in a convex-combination argument
5. homogeneity and subadditivity of the norm
6. inverse-convexity (odd clause on metric stages, even clause on norm
   stages; vacuous whenever no positive-rank element is in range)

Each invariant is checked in one section.  ``check_biinvariance`` adds the
triangle inequality and two-sided translation invariance on each word stage;
the splitting inequality they follow from is condition 3.  ``check_suites``
is the one list of sections that ``run_suite`` and ``freebanach verify``
report.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .relax import to_scaled
from .scalars import Dyadic, common_denominator
from .stages import NotBuiltError
from .terms import UNIT_ID

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
# dense helpers
# ---------------------------------------------------------------------------


def _metric_matrix(universe, stage):
    """Member-indexed metric as exact scaled integers.  A table that lacks
    a pair of members is refused rather than read as distance 0."""
    members = stage.members
    pos = {m: i for i, m in enumerate(members)}
    scale = common_denominator(list(stage.table.values()) or [Fraction(1)])
    n = len(members)
    if len(stage.table) != n * (n - 1) // 2:
        raise NotBuiltError(
            f"stage {stage.index} has {len(stage.table)} of the {n * (n - 1) // 2} distances of its members"
        )
    R = np.zeros((n, n), dtype=np.int64)
    for (a, b), v in stage.table.items():
        s = to_scaled(v, scale)
        R[pos[a], pos[b]] = s
        R[pos[b], pos[a]] = s
    return R, pos, scale


def _product_matrix(universe, stage, pos):
    store = universe.store
    members = stage.members
    n = len(members)
    P = np.full((n, n), -1, dtype=np.int32)
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            p = store.lookup(store.group_mul(a, b))
            if p is not None and p in stage.member_set:
                P[i, j] = pos[p]
    return P


# ---------------------------------------------------------------------------
# numbered conditions
# ---------------------------------------------------------------------------


def check_condition_1(universe) -> list[VerificationReport]:
    out = []
    for stage in universe.stages:
        if not stage.sealed or stage.index == 0:
            continue
        report = VerificationReport(suite=f"condition 1 stage {stage.index}")
        if stage.kind == "word":
            members = stage.members
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    report.attempted += 1
                    v = stage.table.get((a, b) if a <= b else (b, a))
                    if v is not None and v > 0:
                        report.passed += 1
                    else:
                        report.add_counterexample(pair=(a, b), value=str(v))
        else:
            for m in stage.members:
                report.attempted += 1
                v = stage.table.get(m)
                want_zero = m == UNIT_ID
                if v is not None and ((v == 0) == want_zero) and v >= 0:
                    report.passed += 1
                else:
                    report.add_counterexample(element=m, value=str(v))
        out.append(report)
    return out


def check_condition_2(universe) -> list[VerificationReport]:
    from .metric_ext import check_extension_metric
    from .norm_ext import check_extension_norm

    out = []
    for stage in universe.stages:
        if not stage.sealed or stage.index == 0:
            continue
        prev = universe.stages[stage.index - 1]
        if stage.index == 1:
            report = VerificationReport(suite="extension rho_1", vacuous=True)
            out.append(report)
        elif stage.kind == "word":
            out.append(check_extension_metric(universe, stage, prev))
        else:
            out.append(check_extension_norm(universe, stage, prev))
    return out


def _fact_inequality(universe, stage, budget: int, seed: int) -> VerificationReport:
    report = VerificationReport(suite=f"condition 3 splitting stage {stage.index}")
    R, pos, scale = _metric_matrix(universe, stage)
    P = _product_matrix(universe, stage, pos)
    ab = np.argwhere(P >= 0)  # pairs with in-stage product
    k = len(ab)
    if k * k <= budget:
        report.meta["mode"] = "exhaustive"
        # compare rho(prod[a,b], prod[c,d]) <= rho(a,c) + rho(b,d)
        pa = P[ab[:, 0], ab[:, 1]].astype(np.int64)
        for idx in range(k):
            c, d = ab[idx, 0], ab[idx, 1]
            lhs = R[pa, P[c, d]]
            rhs = R[ab[:, 0], c] + R[ab[:, 1], d]
            report.attempted += k
            bad = np.nonzero(lhs > rhs)[0]
            report.passed += k - len(bad)
            for t in bad[:3]:
                report.add_counterexample(
                    quadruple=(
                        stage.members[ab[t, 0]],
                        stage.members[ab[t, 1]],
                        stage.members[c],
                        stage.members[d],
                    ),
                    lhs=str(Fraction(int(lhs[t]), scale)),
                    rhs=str(Fraction(int(rhs[t]), scale)),
                )
    else:
        rng = random.Random(seed)
        samples = max(1, budget // 10)
        report.meta["mode"] = "sampled"
        report.meta["seed"] = seed
        report.meta["samples"] = samples
        for _ in range(samples):
            i = rng.randrange(len(ab))
            j = rng.randrange(len(ab))
            a, b = ab[i]
            c, d = ab[j]
            lhs = R[P[a, b], P[c, d]]
            rhs = R[a, c] + R[b, d]
            report.attempted += 1
            if lhs <= rhs:
                report.passed += 1
            else:
                report.add_counterexample(
                    quadruple=(stage.members[a], stage.members[b], stage.members[c], stage.members[d])
                )
    report.vacuous = report.attempted == 0
    return report


def _inverse_invariance(universe, stage) -> VerificationReport:
    store = universe.store
    report = VerificationReport(suite=f"condition 3 inversion stage {stage.index}")
    members = stage.members
    for i, a in enumerate(members):
        ia = store.lookup(store.group_inv(a))
        for b in members[i + 1 :]:
            ib = store.lookup(store.group_inv(b))
            report.attempted += 1
            if ia in stage.member_set and ib in stage.member_set:
                lhs = universe.rho(stage, a, b)
                rhs = universe.rho(stage, ia, ib)
                if lhs == rhs:
                    report.passed += 1
                else:
                    report.add_counterexample(pair=(a, b), lhs=str(lhs), rhs=str(rhs))
            else:
                report.passed += 1  # inverses promoted later; nothing to compare
    return report


def check_condition_3(universe, budget: int, seed: int) -> list[VerificationReport]:
    out = []
    for stage in universe.stages:
        if stage.sealed and stage.kind == "word" and stage.index >= 1:
            out.append(_fact_inequality(universe, stage, budget, seed))
            out.append(_inverse_invariance(universe, stage))
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
        if stage.sealed and stage.kind == "word"
    ]


def check_condition_5(universe) -> list[VerificationReport]:
    out = []
    for stage in universe.stages:
        if not stage.sealed or stage.kind != "vector" or stage.index == 0:
            continue
        out.append(_homogeneity_report(universe, stage))
        out.append(_subadditivity_report(universe, stage))
    return out


def _member_lattice(universe, stage):
    """Members arranged on the scalar-set grid for vectorized pair checks:
    the scaled norm on the grid (-1 at cells holding no member), and each
    nonzero member with its digit offsets from the zero cell and its scaled
    norm."""
    values = [d.as_fraction() for d in stage.scalar_set]
    digit = {v: i for i, v in enumerate(values)}
    radix = len(values)
    dim = len(stage.basis)
    zero = digit[Fraction(0)]
    basis_pos = {b: i for i, b in enumerate(stage.basis)}
    scale = common_denominator(list(stage.table.values()) or [Fraction(1)])
    N = np.full(radix**dim, -1, dtype=np.int64)
    steps = []
    for m in stage.members:
        digits = [zero] * dim
        for b, c in universe.store.coeffs_of(m):
            digits[basis_pos[b]] = digit[c.as_fraction()]
        cell = 0
        for d in digits:
            cell = cell * radix + d
        w = to_scaled(stage.table[m], scale)
        N[cell] = w
        if m != UNIT_ID:
            steps.append((m, [d - zero for d in digits], w))
    return N.reshape((radix,) * dim), radix, steps


def _homogeneity_report(universe, stage) -> VerificationReport:
    report = VerificationReport(suite=f"condition 5 homogeneity stage {stage.index}")
    store = universe.store
    values = sorted({d.as_fraction() for d in stage.scalar_set})
    nonzero = [v for v in values if v != 0]
    ratios = sorted({a / b for a in nonzero for b in nonzero} | {-(a / b) for a in nonzero for b in nonzero})
    for m in stage.members:
        if m == UNIT_ID:
            continue
        coeffs = store.coeffs_of(m)
        for alpha in ratios:
            if alpha == 1:
                continue
            scaled = {}
            ok = True
            for b, c in coeffs:
                nc = c.as_fraction() * alpha
                if nc not in values and nc != 0:
                    ok = False
                    break
                scaled[b] = nc
            if not ok:
                continue
            target = store.lookup(
                store.combo_from_map(
                    {b: Dyadic.from_fraction(nc) for b, nc in scaled.items() if nc}
                )
            )
            if target is None or target not in stage.member_set:
                continue
            report.attempted += 1
            lhs = stage.table[target]
            rhs = abs(alpha) * stage.table[m]
            if lhs == rhs:
                report.passed += 1
            else:
                report.add_counterexample(element=m, alpha=str(alpha), lhs=str(lhs), rhs=str(rhs))
    return report


def _subadditivity_report(universe, stage) -> VerificationReport:
    report = VerificationReport(suite=f"condition 5 subadditivity stage {stage.index}")
    f, radix, steps = _member_lattice(universe, stage)
    for m, offsets, w_scaled in steps:
        src_sl, dst_sl = [], []
        for o in offsets:
            if o >= 0:
                src_sl.append(slice(0, radix - o))
                dst_sl.append(slice(o, radix))
            else:
                src_sl.append(slice(-o, radix))
                dst_sl.append(slice(0, radix + o))
        s = f[tuple(src_sl)]
        d_ = f[tuple(dst_sl)]
        both = (s >= 0) & (d_ >= 0)
        count = int(both.sum())
        report.attempted += count
        bad = both & (d_ > s + w_scaled)
        nbad = int(bad.sum())
        report.passed += count - nbad
        if nbad:
            report.add_counterexample(step_member=m, violations=nbad)
    return report


def check_condition_6(universe) -> list[VerificationReport]:
    """The odd clause on word stages; the even clause on vector stages,
    ||a - b|| <= sum_i alpha_i ||a - z_i|| for each inverse-convex instance
    (b, z) of the previous word stage, wherever all those differences are
    members.  An instance there needs each z_i in that stage; on a built
    tower an interned z_i is a basis word, so it is, and none is lost."""
    out = []
    store = universe.store
    for stage in universe.stages:
        if not stage.sealed or stage.index == 0:
            continue
        if stage.kind == "word":
            out.append(_convex_report(universe, stage, f"condition 6 odd stage {stage.index}", inverse=True))
            continue
        report = VerificationReport(suite=f"condition 6 even stage {stage.index}")
        prev = universe.stages[stage.index - 1]
        for b, terms in store.convex_instances(prev, inverse=True):
            for a in stage.members:
                diff = store.combine_id(a, b)
                diffs = [store.combine_id(a, z) for _, z in terms]
                if any(d is None or d not in stage.member_set for d in (diff, *diffs)):
                    continue
                report.attempted += 1
                lhs = stage.table[diff]
                rhs = sum((alpha * stage.table[d] for (alpha, _), d in zip(terms, diffs)), Fraction(0))
                if lhs <= rhs:
                    report.passed += 1
                else:
                    report.add_counterexample(pair=(a, b), lhs=str(lhs), rhs=str(rhs))
        report.vacuous = report.attempted == 0
        out.append(report)
    return out


def check_conditions(universe, budget: Optional[int] = None, seed: Optional[int] = None) -> SuiteReport:
    """All numbered conditions over every sealed stage."""
    budget = universe.cfg.quantifier_budget if budget is None else budget
    seed = universe.cfg.seed if seed is None else seed
    suite = SuiteReport()
    suite.extend(check_condition_1(universe))
    suite.extend(check_condition_2(universe))
    suite.extend(check_condition_3(universe, budget, seed))
    suite.extend(check_condition_4(universe))
    suite.extend(check_condition_5(universe))
    suite.extend(check_condition_6(universe))
    return suite


# ---------------------------------------------------------------------------
# bi-invariance
# ---------------------------------------------------------------------------


def check_biinvariance(universe, stage) -> SuiteReport:
    """The triangle inequality and the two-sided translation-invariance
    equalities on one word stage, both exhaustive.  The splitting inequality
    they follow from is checked once, as condition 3."""
    R, pos, _ = _metric_matrix(universe, stage)
    n = len(stage.members)
    tri = VerificationReport(suite=f"triangle inequality stage {stage.index}")
    lhs = R[:, None, :]  # rho(a, c)
    rhs = R[:, :, None] + R[None, :, :]  # rho(a, b) + rho(b, c)
    bad = np.argwhere(lhs > rhs)
    tri.attempted = n**3
    tri.passed = tri.attempted - len(bad)
    for a, b, c in bad[:5]:
        tri.add_counterexample(triple=(stage.members[a], stage.members[b], stage.members[c]))
    if len(bad) > 5:
        tri.meta["counterexample_count"] = len(bad)

    P = _product_matrix(universe, stage, pos)
    trans = VerificationReport(suite=f"translation invariance stage {stage.index}")
    for g in range(n):
        for side, moved in (("left", P[g]), ("right", P[:, g])):  # g . a, a . g
            idx = np.nonzero(moved >= 0)[0]
            sub = moved[idx]
            bad = np.argwhere(R[np.ix_(sub, sub)] != R[np.ix_(idx, idx)])
            trans.attempted += len(idx) ** 2
            trans.passed += len(idx) ** 2 - len(bad)
            for i, j in bad[:3]:
                trans.add_counterexample(
                    g=stage.members[g], pair=(stage.members[idx[i]], stage.members[idx[j]]), side=side
                )
    return SuiteReport([tri, trans])


# ---------------------------------------------------------------------------
# aggregate suite and fault injection
# ---------------------------------------------------------------------------

SUITES = ("conditions", "biinvariance", "universal")


def check_suites(universe, suites=SUITES) -> SuiteReport:
    """The sections of the named suites on a built tower, in this order: the
    numbered conditions; triangle and translation invariance on each word
    stage; per target, the morphism bound and operation preservation."""
    from .universal import check_morphism_bound, check_operation_preservation

    suite = check_conditions(universe) if "conditions" in suites else SuiteReport()
    if "biinvariance" in suites:
        for stage in universe.stages:
            if stage.sealed and stage.kind == "word":
                suite.extend(check_biinvariance(universe, stage).reports)
    if "universal" in suites:
        for target in universe.cfg.targets:
            suite.reports.append(check_morphism_bound(universe, target))
            suite.reports.append(check_operation_preservation(universe, target, seed=universe.cfg.seed))
    return suite


def run_suite(cfg) -> tuple[SuiteReport, "object"]:
    """Build the whole tower for a config and run every check."""
    from .stages import Universe

    universe = Universe(cfg).build()
    return check_suites(universe), universe


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
    clone.stages[stage_index] = stage.clone_with_table(table)
    return clone
