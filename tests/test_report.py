"""Verdicts and residual reduction, including non-finite residuals."""

import math

import pytest

from sasaki_lab import tensor as tn
from sasaki_lab.report import residual_rank, run_residual_check, verdict_for

NAN = math.nan


def test_verdict_zones():
    assert verdict_for(1e-12, 1e-9, 1e-3) == "pass"
    assert verdict_for(1e-6, 1e-9, 1e-3) == "inconclusive"
    assert verdict_for(1e-2, 1e-9, 1e-3) == "fail"
    assert verdict_for(1e-6, 1e-9, None) == "fail"


@pytest.mark.parametrize("floor", [1e-3, None])
@pytest.mark.parametrize("value", [NAN, math.inf])
def test_non_finite_residual_fails(value, floor):
    assert verdict_for(value, 1e-9, floor) == "fail"


def test_rank_puts_nan_above_inf_above_finite():
    ranked = sorted([1.0, NAN, 0.0, math.inf], key=residual_rank)
    assert ranked[:3] == [0.0, 1.0, math.inf] and math.isnan(ranked[3])


def _check(residuals, fail_floor=None):
    points = [((0.1 * (k + 1),), {}) for k in range(len(residuals))]
    by_coord = {coords: r for (coords, _), r in zip(points, residuals)}
    return run_residual_check(
        "nan_probe", [("A", points)], lambda chart, coords, env: by_coord[coords],
        1e-9, 42, fail_floor,
    )


@pytest.mark.parametrize("where", [0, 1, 2])
@pytest.mark.parametrize("fail_floor", [None, 1e-3])
def test_nan_residual_fails_with_its_own_witness(where, fail_floor):
    residuals = [0.0, 0.0, 0.0]
    residuals[where] = NAN
    rep = _check(residuals, fail_floor)
    assert rep.verdict == "fail"
    assert math.isnan(rep.max_residual) and math.isnan(rep.per_chart["A"])
    assert rep.witness.coords == (0.1 * (where + 1),)
    assert math.isnan(rep.witness.residual)


def test_finite_residuals_reduce_as_before():
    rep = _check([0.0, 2e-9, 1e-9])
    assert rep.verdict == "fail" and rep.max_residual == 2e-9
    assert rep.witness.coords == (0.2,) and rep.witness.residual == 2e-9
    assert _check([0.0, 1e-12]).verdict == "pass"


@pytest.mark.parametrize("s", [
    [0.0, NAN], [NAN, 0.0], [[0.0, 1.0], [NAN, 2.0]], [[1.0], [2.0, NAN]],
])
def test_max_abs_reports_nan(s):
    assert math.isnan(tn.max_abs(s))


def test_max_abs_finite_and_infinite():
    assert tn.max_abs([[0.5, -3.0], [2.0]]) == 3.0
    assert tn.max_abs([0.0, -math.inf]) == math.inf
    assert tn.max_abs([]) == 0.0


def test_diff_scaled_reports_nan():
    assert math.isnan(tn._diff_scaled([0.0, NAN], [0.0, 0.0], 1.0))
    assert math.isnan(tn._diff_scaled([[math.inf]], [[math.inf]], 1.0))
    assert tn._diff_scaled([1.0, 2.0], [-1.0, -2.0], -1.0) == 0.0
