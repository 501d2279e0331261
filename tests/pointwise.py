"""Point-by-point references for the batch-parity tests: a sample
grouping without the batch, and a report's bytes to compare."""

from __future__ import annotations

import json


def lone_groups(chart, points):
    """`manifold.group_envs` without the batch: every point on its own."""
    return [(coords, chart.env(coords)) for coords in points]


def report_bytes(rep) -> str:
    return json.dumps(rep.to_dict(), sort_keys=True)
