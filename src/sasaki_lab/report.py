"""Check reports: the one result type every verification op returns.

A report records what was sampled, the worst residual seen (overall and per
chart), the tolerance, and a three-way verdict.  Reports serialize to JSON
with a fixed key order and repr-based float formatting, so that two runs
with the same seed produce byte-identical output -- the CLI relies on this.

The invariant enforced here: a witness (worst offending sample) is attached
exactly when the verdict is "fail".

A sampled check is a name, a domain and a residual function; the one
driver `run_residual_check` draws the plan's samples of the domain
(`manifold.sample_domain`: chart points of an atlas, or transition-piece
points labelled ``src->tgt``), evaluates the residual at each and hands
`reduce_residuals` one (label, coords, residual) row per sample: the only
code that reduces across samples.  It keeps the worst (NaN above inf above
any number) overall and per label, the first strictly-worst row as witness,
and for ``details`` each clause's worst and each record's max or min.  A
residual is a function of its row (where, coords, env) alone and keeps
nothing between rows, so the driver may visit the rows in any order;
whatever a check needs per chart or transition piece is built before the
driver samples.
`check_report` turns the reduction into a verdict under the check's
`SamplePlan`, whose ``tolerance`` and ``seed`` are the only ones a check
reads.  Within a sample, components go through `max_or_nan` (or
`tensor.max_abs`), so a NaN component is never lost to
``max(0.0, nan) == 0.0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING, Callable, Iterable, Optional

if TYPE_CHECKING:
    from .manifold import SamplePlan

VERSION = "0.1.0"  # keep in sync with pyproject.toml

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class Witness:
    chart: str
    coords: tuple[float, ...]
    residual: float

    def to_dict(self) -> dict:
        return {
            "chart": self.chart,
            "coords": list(self.coords),
            "residual": self.residual,
        }


@dataclass
class CheckReport:
    check: str
    seed: int
    samples: int
    tolerance: float
    max_residual: float
    per_chart: dict[str, float]
    verdict: str
    example: Optional[str] = None
    witness: Optional[Witness] = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.verdict == FAIL) != (self.witness is not None):
            raise ValueError("witness must be present exactly when verdict is fail")

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_dict(self) -> dict:
        return {
            "version": VERSION,
            "example": self.example,
            "check": self.check,
            "seed": self.seed,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "per_chart": {k: self.per_chart[k] for k in sorted(self.per_chart)},
            "verdict": self.verdict,
            "witness": self.witness.to_dict() if self.witness else None,
            "details": self.details,
        }

    def one_line(self) -> str:
        tag = f"[{self.example}] " if self.example else ""
        return (
            f"{self.verdict.upper():12s} {tag}{self.check}: "
            f"max residual {self.max_residual:.3e} (tol {self.tolerance:.1e}, "
            f"{self.samples} samples)"
        )


def verdict_for(max_residual: float, tol: float, fail_floor: float | None) -> str:
    """pass below tol; fail above the floor; inconclusive in between.

    With no floor the gray zone is empty and anything above tol fails.  A
    NaN residual always fails.
    """
    if max_residual <= tol:
        return PASS
    if fail_floor is None or math.isnan(max_residual) or max_residual > fail_floor:
        return FAIL
    return INCONCLUSIVE


def residual_rank(r: float) -> tuple[bool, float]:
    """Sort key for residuals: NaN ranks above everything, then inf."""
    return (math.isnan(r), r)


def max_or_nan(values: list) -> float:
    """max of the values (0.0 if none), NaN above inf above any number.

    The sum of the values is NaN when one of them is (or when inf meets
    -inf); only then does the ranked, slower max run.  Where it is a batch
    array (see `tensor`), ``np.maximum`` reduces slot by slot, keeping NaN.
    """
    total = sum(values)
    if not isinstance(total, (int, float)):  # batch arrays
        # imported here: `report` is the package's first module, and numpy
        # loaded before the others compile raises a cold start's peak memory
        from numpy import maximum

        return reduce(maximum, values)
    if math.isnan(total):
        return max(values, key=residual_rank)
    return max(values, default=0.0)


@dataclass
class Reduction:
    """What a stream of residual rows reduces to."""

    max_residual: float
    per_chart: dict[str, float]
    worst: Optional[tuple] = None  # (chart, coords, residual) of the witness
    count: int = 0  # rows reduced
    named: dict = field(default_factory=dict)  # clauses and records, first seen first


def reduce_residuals(rows: Iterable[tuple], records: dict | None = None) -> Reduction:
    """Reduce (chart label, coords, residual) rows under `residual_rank`.

    Gives the maximum overall and per chart label, and as the witness the
    first row whose residual ranks strictly worst.  A dict residual puts
    each name in ``named``: a record by ``records[name]`` (`max` or `min`),
    a clause by `max`, and its clauses' max is the row's residual (a number
    is the unnamed clause None).  A NaN sticks; a tie keeps the earlier.
    """
    records = records or {}
    keys = {max: residual_rank, min: lambda r: (not math.isnan(r), r)}
    per_chart: dict[str, float] = {}
    named: dict = {}
    worst = None
    count = 0
    for chart, coords, r in rows:
        if isinstance(r, dict):
            for name, v in r.items():
                how = records.get(name, max)
                named[name] = how(named.get(name, v), v, key=keys[how])
            r = max_or_nan([v for name, v in r.items() if name not in records])
        per_chart[chart] = max(per_chart.get(chart, r), r, key=residual_rank)
        if worst is None or residual_rank(r) > residual_rank(worst[2]):
            worst = (chart, coords, r)
        count += 1
    named.pop(None, None)
    max_res = max(per_chart.values(), key=residual_rank) if per_chart else 0.0
    return Reduction(max_res, per_chart, worst, count, named)


def check_report(
    check: str,
    red: Reduction,
    plan: SamplePlan,
    *,
    fail_floor: float | None = None,
    details: dict | None = None,
) -> CheckReport:
    """The verdict on a reduction under ``plan.tolerance``, with its worst
    row as witness on fail.

    ``samples`` is the number of rows reduced.  The report's ``example``
    stays None; a gallery job stamps its key.
    """
    verdict = verdict_for(red.max_residual, plan.tolerance, fail_floor)
    witness = None
    if verdict == FAIL:
        chart, coords, r = red.worst
        witness = Witness(chart=chart, coords=tuple(coords), residual=r)
    return CheckReport(
        check=check,
        seed=plan.seed,
        samples=red.count,
        tolerance=plan.tolerance,
        max_residual=red.max_residual,
        per_chart=red.per_chart,
        verdict=verdict,
        witness=witness,
        details=details or {},
    )


def run_residual_check(
    check: str,
    domain,  # an Atlas, a manifold.Overlaps or a list of those
    residual_fn: Callable,  # (where, coords, env) -> float | {name: float}
    plan: SamplePlan,
    fail_floor: float | None = None,
    details: dict | None = None,
    records: dict | None = None,  # {name: max | min}
) -> CheckReport:
    """Evaluate a pointwise residual at the plan's samples of `domain`, in
    `manifold.sample_domain` order, and report.

    ``details`` is the given ``details`` updated with the reduced value of
    each named clause and declared record (see `reduce_residuals`).
    """
    from .manifold import sample_domain  # manifold imports this module

    # held until the report is built (freeing the chart points and their
    # memos inside the reduction measured a higher peak RSS), or, shared
    # through the plan's sample set, until the entry's last check
    sampled = sample_domain(domain, plan)
    rows = ((label, coords, residual_fn(where, coords, env))
            for label, where, pts in sampled for coords, env in pts)
    red = reduce_residuals(rows, records)
    details = {**(details or {}), **red.named}
    return check_report(check, red, plan, fail_floor=fail_floor, details=details)
