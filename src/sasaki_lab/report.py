"""Check reports: the one result type every verification op returns.

A report records what was sampled, the worst residual seen (overall and per
chart), the tolerance, and a three-way verdict.  Reports serialize to JSON
with a fixed key order and repr-based float formatting, so that two runs
with the same seed produce byte-identical output -- the CLI relies on this.

The invariant enforced here: a witness (worst offending sample) is attached
exactly when the verdict is "fail".

Every check reduces its residuals here.  It hands `reduce_residuals` one
(chart label, coords, residual) row per sample; that takes the maximum
overall and per chart, ranking NaN above inf above any number, and keeps
the first strictly-worst row as the witness.  `check_report` turns the
reduction into a verdict and a report under the check's `SamplePlan`,
whose ``tolerance`` and ``seed`` are the only ones a check reads.  Within
a sample, components go through `max_or_nan` (or `tensor.max_abs`), so a
NaN component is never lost to ``max(0.0, nan) == 0.0``.

A pointwise check is a name, an atlas and a residual function: the driver
`run_residual_check` draws the plan's samples of the atlas itself
(`manifold.sample_points`), so no check builds points.  Identities
between fields are declared with the residual builders `tensor.vanishing`
and `tensor.agreeing` rather than indexed by hand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional

if TYPE_CHECKING:
    from .manifold import Atlas, SamplePlan

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

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
    -inf); only then does the ranked, slower max run.
    """
    if math.isnan(sum(values)):
        return max(values, key=residual_rank)
    return max(values, default=0.0)


@dataclass
class Reduction:
    """What a stream of residual rows reduces to."""

    max_residual: float
    per_chart: dict[str, float]
    worst: Optional[tuple] = None  # (chart, coords, residual) of the witness
    count: int = 0  # rows reduced


def reduce_residuals(rows: Iterable[tuple]) -> Reduction:
    """Reduce (chart label, coords, residual) rows under `residual_rank`.

    Gives the maximum overall and per chart label, and as the witness the
    first row whose residual ranks strictly worst.
    """
    per_chart: dict[str, float] = {}
    worst = worst_rank = None
    count = 0
    for row in rows:
        chart, _coords, r = row
        rank = residual_rank(r)
        best = per_chart.get(chart)
        if best is None or rank > residual_rank(best):
            per_chart[chart] = r
        if worst is None or rank > worst_rank:
            worst, worst_rank = row, rank
        count += 1
    max_res = max(per_chart.values(), key=residual_rank) if per_chart else 0.0
    return Reduction(max_res, per_chart, worst, count)


def check_report(
    check: str,
    red: Reduction,
    plan: SamplePlan,
    *,
    samples: int | None = None,
    fail_floor: float | None = None,
    details: dict | None = None,
) -> CheckReport:
    """The verdict on a reduction under ``plan.tolerance``, with its worst
    row as witness on fail.

    ``samples`` defaults to the number of rows reduced.  The report's
    ``example`` stays None; a gallery job stamps its key.
    """
    verdict = verdict_for(red.max_residual, plan.tolerance, fail_floor)
    witness = None
    if verdict == FAIL:
        chart, coords, r = red.worst
        witness = Witness(chart=chart, coords=tuple(coords), residual=r)
    return CheckReport(
        check=check,
        seed=plan.seed,
        samples=red.count if samples is None else samples,
        tolerance=plan.tolerance,
        max_residual=red.max_residual,
        per_chart=red.per_chart,
        verdict=verdict,
        witness=witness,
        details=details or {},
    )


def run_residual_check(
    check: str,
    atlas: Atlas,
    residual_fn: Callable,  # (chart_name, coords, env) -> float
    plan: SamplePlan,
    fail_floor: float | None = None,
    details: dict | None = None,
) -> CheckReport:
    """Evaluate a pointwise residual at the plan's samples of every chart
    of `atlas`, in `sample_points` order, and report."""
    from .manifold import sample_points  # manifold imports this module

    # held until the report is built: freeing the points (and their memos)
    # inside the reduction measured a higher peak RSS
    sampled = sample_points(atlas, plan)
    rows = (
        (chart, coords, residual_fn(chart, coords, env))
        for chart, pts in sampled
        for coords, env in pts
    )
    return check_report(
        check, reduce_residuals(rows), plan, fail_floor=fail_floor, details=details
    )
