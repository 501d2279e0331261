"""Check reports: the one result type every verification op returns.

A report records what was sampled, the worst residual seen (overall and per
chart), the tolerance, and a three-way verdict.  Reports serialize to JSON
with a fixed key order and repr-based float formatting, so that two runs
with the same seed produce byte-identical output -- the CLI relies on this.

The invariant enforced here: a witness (worst offending sample) is attached
exactly when the verdict is "fail".

A sampled check is a name, a domain and a residual function; the one
driver `run_residual_check` draws the plan's sample groups of the domain
(`manifold.sample_domain`: each chart's points of an atlas, or each
transition piece's points labelled ``src->tgt``).  A residual is a
function (where, env) that the driver calls once per group, at the
group's batch env (its coordinates float64 arrays, one slot per point;
see `tensor`), and that returns one value per point: a float64 array, a
number that holds at every point, or a dict of those for named clauses
and records.  `evaluate_group` runs it there; a group whose batch raises
goes `point_by_point`, each point at an env of its own.  A residual keeps
nothing between groups; whatever a check needs per chart or transition
piece is built before the driver samples.  `reduce_residuals`, the only
code that reduces across samples, reduces the groups in driver order: the
worst (NaN above inf above any number) overall and per label, the first
strictly-worst point as witness, and for ``details`` each clause's worst
and each record's max or min.
`check_report` turns the reduction into a verdict under the check's
`SamplePlan`, whose ``tolerance`` and ``seed`` are the only ones a check
reads.  Within a point, components go through `max_or_nan` (or
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
    """max of the values (0.0 if none), NaN above inf above any number,
    the first of equal maxima kept (0.0 against -0.0 keeps the first).

    Numbers alone sum to NaN when one of them is (or when inf meets -inf);
    only then does the ranked, slower max run.  Where one is a batch array
    (see `tensor`), they fold slot by slot as ``np.maximum(value,
    so_far)``, which keeps NaN and gives its second argument on a tie.
    """
    if all(isinstance(v, (int, float)) for v in values):
        if math.isnan(sum(values)):
            return max(values, key=residual_rank)
        return max(values, default=0.0)
    # imported here: `report` is the package's first module, and numpy
    # loaded before the others compile raises a cold start's peak memory
    from numpy import maximum

    return reduce(lambda so_far, v: maximum(v, so_far), values)


@dataclass
class Reduction:
    """What a stream of sample groups reduces to."""

    max_residual: float
    per_chart: dict[str, float]
    worst: Optional[tuple] = None  # (chart, coords, residual) of the witness
    count: int = 0  # points reduced
    named: dict = field(default_factory=dict)  # clauses and records, first seen first


def reduce_residuals(groups: Iterable[tuple], records: dict | None = None) -> Reduction:
    """Reduce (label, points, residual) groups under `residual_rank`.

    A group's residual holds one value per point of ``points``: a float64
    array, or a number that counts once for every point.  Gives the
    maximum overall and per label, and as the witness the first point, in
    group order, whose residual ranks strictly worst.  A dict residual
    puts each name in ``named``: a record by ``records[name]`` (`max` or
    `min`), a clause by `max`, and its clauses' `max_or_nan` at each point
    is the point's residual (a number is the unnamed clause None).  A NaN
    sticks; a tie keeps the earlier point, so 0.0 against -0.0 keeps the
    first.  Every value kept is a Python float.
    """
    import numpy as np  # see `max_or_nan`

    records = records or {}
    keys = {max: residual_rank, min: lambda r: (not math.isnan(r), r)}
    first = {max: np.argmax, min: np.argmin}  # both pick the first NaN, if any
    per_chart: dict[str, float] = {}
    named: dict = {}
    worst = None
    count = 0
    for label, points, r in groups:
        size = len(points)
        if isinstance(r, dict):
            clauses = []
            for name, v in r.items():
                how = records.get(name, max)
                v = np.broadcast_to(np.asarray(v, dtype=float), size)
                best = v[first[how](v)].item()
                named[name] = how(named.get(name, best), best, key=keys[how])
                if name not in records:
                    clauses.append(v)
            r = max_or_nan(clauses)
        r = np.broadcast_to(np.asarray(r, dtype=float), size)
        i = int(np.argmax(r))
        w = r[i].item()
        per_chart[label] = max(per_chart.get(label, w), w, key=residual_rank)
        if worst is None or residual_rank(w) > residual_rank(worst[2]):
            worst = (label, points[i], w)
        count += size
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
    point as witness on fail.

    ``samples`` is the number of points reduced.  The report's ``example``
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
    residual_fn: Callable,  # (where, env) -> values | {name: values}
    plan: SamplePlan,
    fail_floor: float | None = None,
    details: dict | None = None,
    records: dict | None = None,  # {name: max | min}
) -> CheckReport:
    """Evaluate a residual at the plan's sample groups of `domain`, once
    per group (`evaluate_group`), in `manifold.sample_domain` order, and
    report.

    ``details`` is the given ``details`` updated with the reduced value of
    each named clause and declared record (see `reduce_residuals`).
    """
    from .manifold import sample_domain  # manifold imports this module

    # held until the report is built (freeing the chart points and their
    # memos inside the reduction measured a higher peak RSS), or, shared
    # through the plan's sample set, until the entry's last check
    sampled = sample_domain(domain, plan)
    groups = ((label, points, evaluate_group(residual_fn, where, points, env))
              for label, where, points, env in sampled if points)
    red = reduce_residuals(groups, records)
    details = {**(details or {}), **red.named}
    return check_report(check, red, plan, fail_floor=fail_floor, details=details)


def evaluate_group(residual_fn: Callable, where, points: list, env):
    """`residual_fn` at a sample group's batch env `env`, once for all of
    its `points`; where that raises, `point_by_point`.

    The batch is evaluated under ``np.errstate(all="raise")`` (underflow
    aside, which Python floats never report), so a step that signals at
    any point -- a zero divisor, an overflow, ``0*inf`` -- raises here.
    Any exception is caught: the evaluation at each point raises whatever
    belongs to it.  The values are reduced outside that state, so that
    comparing a NaN residual cannot raise.
    """
    from numpy import errstate

    try:
        with errstate(all="raise", under="ignore"):
            return residual_fn(where, env)
    except Exception:
        pass  # not chained to what the points raise
    return point_by_point(residual_fn, where, points, env)


def point_by_point(residual_fn: Callable, where, points: list, env):
    """`residual_fn` at each point of a group on its own, at a fresh env
    of the batch env's coordinate names, in order: the values stacked
    into a float64 array (or a dict of them), or the exception of the
    first point that raises, as a lone evaluation there gives it."""
    from numpy import array

    from .manifold import PointEnv

    rows = [residual_fn(where, PointEnv(zip(env, coords))) for coords in points]
    if isinstance(rows[0], dict):
        return {name: array([row[name] for row in rows], dtype=float) for name in rows[0]}
    return array(rows, dtype=float)
