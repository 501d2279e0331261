"""Correctness of the reports a workload produces.

The expected verdicts are the benchmark's own, written from the claims of
the paper and the README, not read from the program's declared ``expect``
field:

* every check of every gallery entry passes at the default plan (the flat
  models and spheres are normal, the Möbius structures are single-valued,
  the product is Sasakian, the twisted cone is Kähler, and the
  main1-family default slope 0.7 is a constant);
* on the main1-family, the complex structure is integrable exactly when the
  slope is constant, and every other check passes for every slope.

Each report is also checked on its own: residuals are finite, a pass has
``max_residual <= tolerance``, a fail has ``max_residual > tolerance`` and
a witness on a chart of the entry, inside that chart's box.
"""

from __future__ import annotations

import math

BOX_SLACK = 1e-9


def expected_verdict(key: str, check: str, slope_constant: bool | None) -> str:
    """The verdict the theory predicts for `check` of entry `key`."""
    if key == "main1-family" and check == "integrability" and slope_constant is False:
        return "fail"
    return "pass"


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def report_problems(rep: dict, charts: dict, slope_constant: bool | None) -> list[str]:
    """Every way one CLI report entry breaks the expectations (empty if none).

    `charts` maps each chart name of the entry's atlases to its boxes;
    `slope_constant` is None outside the slope family.
    """
    declared = rep.get("declared") or {}
    key, check = declared.get("key"), declared.get("check")
    where = f"{key}/{check}"
    problems = []
    want = expected_verdict(key, check, slope_constant)
    verdict = rep.get("verdict")
    if verdict != want:
        problems.append(f"{where}: verdict {verdict}, expected {want}")
    residual, tol = rep.get("max_residual"), rep.get("tolerance")
    per_chart = rep.get("per_chart") or {}
    if not _finite(residual) or not all(_finite(v) for v in per_chart.values()):
        problems.append(f"{where}: non-finite residual")
        return problems
    if not _finite(tol):
        problems.append(f"{where}: non-finite tolerance")
        return problems
    witness = rep.get("witness")
    if verdict == "pass":
        if residual > tol:
            problems.append(f"{where}: pass with residual {residual!r} > tol {tol!r}")
        if witness is not None:
            problems.append(f"{where}: pass with a witness")
    elif verdict == "fail":
        if not residual > tol:
            problems.append(f"{where}: fail with residual {residual!r} <= tol {tol!r}")
        problems.extend(_witness_problems(where, witness, charts))
    return problems


def _witness_problems(where: str, witness, charts: dict) -> list[str]:
    if not isinstance(witness, dict):
        return [f"{where}: fail without a witness"]
    boxes = charts.get(witness.get("chart"))
    if not boxes:
        return [f"{where}: witness chart {witness.get('chart')!r} is not in the entry's atlases"]
    coords = witness.get("coords") or []
    if not _finite(witness.get("residual")) or not all(_finite(c) for c in coords):
        return [f"{where}: non-finite witness"]
    inside = any(
        len(box) == len(coords)
        and all(lo - BOX_SLACK <= c <= hi + BOX_SLACK for c, (lo, hi) in zip(coords, box))
        for box in boxes
    )
    return [] if inside else [f"{where}: witness {coords} outside the chart box"]


def invocation_problems(reports: list, rc: int, charts: dict, keys: set,
                        checks: set | None, slope_constant: bool | None) -> tuple[int, list[str]]:
    """(failed operations, problems) for the report array of one invocation.

    `keys` are the entries the invocation must cover, each with at least one
    report; `checks`, when given, are the only check names allowed, each of
    which must appear.  A problem of the whole array (missing entries, an
    exit code that disagrees with the ``matched`` flags) is listed but
    counts no operation as failed.
    """
    problems = []
    failed = 0
    for rep in reports:
        key = (rep.get("declared") or {}).get("key")
        probs = report_problems(rep, charts.get(key, {}), slope_constant)
        if checks is not None and (rep.get("declared") or {}).get("check") not in checks:
            probs.append(f"{key}: check {rep.get('declared')} not in the workload's list")
        if probs:
            failed += 1
            problems.extend(probs)
    seen_keys = {(r.get("declared") or {}).get("key") for r in reports}
    if seen_keys != keys:
        problems.append(f"entries reported {sorted(map(str, seen_keys))}, expected {sorted(keys)}")
    if checks is not None:
        seen = {(r.get("declared") or {}).get("check") for r in reports}
        if seen != checks:
            problems.append(f"checks reported {sorted(map(str, seen))}, expected {sorted(checks)}")
    all_matched = all((r.get("declared") or {}).get("matched") is True for r in reports)
    if (rc == 0) != all_matched:
        problems.append(f"exit code {rc} disagrees with the matched flags")
    return failed, problems
