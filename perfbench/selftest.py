"""Show that the correctness checker rejects doctored reports.

    python3 perfbench/selftest.py

Two well-formed reports (a pass of ``darboux-1/sasaki`` and the declared
failure of ``main1-family/integrability`` for a non-constant slope) must be
accepted; each doctored copy must be rejected.  ``run.py`` runs this on
every invocation of the benchmark and reports ``correct: false`` if the
checker lets a doctored report through.
"""

from __future__ import annotations

import copy
import sys

from checker import invocation_problems

DARBOUX_CHARTS = {"O": [[[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]]}
MAIN1_CHARTS = {
    "O": [[[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], [0.5, 2.0]],
          [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]],
}


def _report(key, check, verdict, residual, witness=None):
    return {
        "version": "0.1.0", "example": key, "check": check, "seed": 42,
        "samples": 64, "tolerance": 1e-08, "max_residual": residual,
        "per_chart": {"O": residual}, "verdict": verdict, "witness": witness,
        "details": {},
        "declared": {"key": key, "check": check, "expect": verdict, "matched": True},
    }


def _pass_report():
    return _report("darboux-1", "sasaki", "pass", 4.4e-16)


def _fail_report():
    witness = {"chart": "O", "coords": [0.25, -0.5, 0.75, 1.25], "residual": 2.35}
    return _report("main1-family", "integrability", "fail", 2.35, witness)


def _doctored():
    """(name, report, charts, slope_constant) for each doctored report."""
    nan = _pass_report()
    nan["max_residual"] = nan["per_chart"]["O"] = float("nan")

    flipped = _fail_report()
    flipped["verdict"] = flipped["declared"]["expect"] = "pass"
    flipped["witness"] = None

    outside = _fail_report()
    outside["witness"]["coords"][3] = 2.5  # the fiber coordinate's box is [0.5, 2]

    integrable = _fail_report()
    integrable.update(verdict="pass", max_residual=3e-16, per_chart={"O": 3e-16},
                      witness=None)
    integrable["declared"]["expect"] = "pass"

    flipped_pass = _pass_report()
    flipped_pass["verdict"] = "fail"
    flipped_pass["witness"] = {"chart": "O", "coords": [0.1, 0.2, 0.3], "residual": 4.4e-16}
    return [
        ("NaN residual", nan, DARBOUX_CHARTS, None),
        ("flipped verdict (pass reported as fail)", flipped_pass, DARBOUX_CHARTS, None),
        ("witness outside the chart box", outside, MAIN1_CHARTS, False),
        ("non-constant slope reported as integrable", integrable, MAIN1_CHARTS, False),
        ("flipped verdict (fail reported as pass)", flipped, MAIN1_CHARTS, False),
    ]


def _rejected(rep, charts, slope_constant) -> bool:
    key = rep["declared"]["key"]
    failed, _ = invocation_problems([rep], 0, {key: charts}, {key}, None, slope_constant)
    return failed == 1


def problems() -> list[str]:
    """Empty when the checker accepts the good reports and rejects every doctored one."""
    out = []
    for name, rep, charts, const in [
        ("well-formed pass", _pass_report(), DARBOUX_CHARTS, None),
        ("well-formed declared failure", _fail_report(), MAIN1_CHARTS, False),
    ]:
        if _rejected(rep, charts, const):
            out.append(f"checker rejected a {name} report")
    for name, rep, charts, const in _doctored():
        if not _rejected(copy.deepcopy(rep), charts, const):
            out.append(f"checker accepted a doctored report: {name}")
    return out


if __name__ == "__main__":
    found = problems()
    for line in found:
        print(line)
    print(f"self-test: {len(_doctored())} doctored reports, "
          f"{'all rejected' if not found else f'{len(found)} problems'}")
    sys.exit(1 if found else 0)
