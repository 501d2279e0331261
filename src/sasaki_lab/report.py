"""Check reports: the one result type every verification op returns.

A report records what was sampled, the worst residual seen (overall and per
chart), the tolerance, and a three-way verdict.  Reports serialize to JSON
with a fixed key order and repr-based float formatting, so that two runs
with the same seed produce byte-identical output -- the CLI relies on this.

The invariant enforced here: a witness (worst offending sample) is attached
exactly when the verdict is "fail".
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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


def thread_count() -> int:
    """Worker count from SASAKI_LAB_THREADS (default 1 = serial)."""
    raw = os.environ.get("SASAKI_LAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def map_ordered(fn: Callable, items: Sequence):
    """Apply fn to items, possibly in a thread pool, preserving order.

    Ordered reduction keeps reports (and their JSON) independent of the
    worker count.
    """
    n = thread_count()
    if n <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


def run_residual_check(
    check: str,
    sampled: Sequence[tuple],  # (chart_name, [(coords, env), ...])
    residual_fn: Callable,  # (chart_name, coords, env) -> float
    tol: float,
    seed: int,
    fail_floor: float | None = None,
    example: str | None = None,
    details: dict | None = None,
) -> CheckReport:
    """Evaluate a pointwise residual over pre-sampled points and report.

    Each point goes to exactly one worker, so a point's env and the memo it
    carries are never shared between threads.
    """
    per_chart: dict[str, float] = {}
    worst = (-1.0, None, None)  # residual, chart, coords
    total = 0
    for chart_name, pts in sampled:
        res = map_ordered(
            lambda pt, c=chart_name: residual_fn(c, pt[0], pt[1]), list(pts)
        )
        total += len(pts)
        per_chart[chart_name] = max(res, key=residual_rank) if res else 0.0
        for (coords, _env), r in zip(pts, res):
            if residual_rank(r) > residual_rank(worst[0]):
                worst = (r, chart_name, coords)
    max_res = max(per_chart.values(), key=residual_rank) if per_chart else 0.0
    verdict = verdict_for(max_res, tol, fail_floor)
    witness = None
    if verdict == FAIL:
        witness = Witness(chart=worst[1], coords=tuple(worst[2]), residual=worst[0])
    return CheckReport(
        check=check,
        seed=seed,
        samples=total,
        tolerance=tol,
        max_residual=max_res,
        per_chart=per_chart,
        verdict=verdict,
        example=example,
        witness=witness,
        details=details or {},
    )
