"""Point-by-point references for the batch-parity tests: each sample at
an env of its own, a point's values read off a batch structure, the
driver forced point by point, the row-walking reducer the group reducer
must equal, and a report's bytes to compare."""

from __future__ import annotations

import json
import math

import numpy as np

from sasaki_lab import numkernel as nk
from sasaki_lab import report
from sasaki_lab.manifold import sample_chart
from sasaki_lab.report import Reduction, max_or_nan, residual_rank


def point_envs(chart, plan) -> list:
    """``(coords, env)`` of each sample of `chart` under `plan`, every env
    its own."""
    return [(coords, chart.env(coords)) for coords in sample_chart(chart, plan)]


def point(x, i: int):
    """Point i of a batch structure: each array leaf read at i as a Python
    float, each dual rebuilt at its level, every other leaf kept."""
    if isinstance(x, nk.DScalar):
        return nk.DScalar(point(x.val, i), tuple(point(t, i) for t in x.tg), x.tag)
    if isinstance(x, (list, tuple)):
        return [point(v, i) for v in x]
    if isinstance(x, dict):
        return {k: point(v, i) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        return x.tolist()[i]
    return x


def alone(monkeypatch) -> None:
    """From here on the driver evaluates every sample group point by point."""
    monkeypatch.setattr(report, "evaluate_group", report.point_by_point)


def reduce_rows(rows, records: dict | None = None) -> Reduction:
    """Reduce (chart label, coords, residual) rows one at a time under
    `residual_rank`: what `report.reduce_residuals` gives for the groups
    those rows make up.

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


def report_bytes(rep) -> str:
    return json.dumps(rep.to_dict(), sort_keys=True)
