"""Cone bundles: symplectization, homogeneity laws, metric splitting."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sasaki_lab import numkernel as nk
from sasaki_lab.bundle import (
    FIBER,
    NotHomogeneous,
    NotPositiveDefinite,
    abs_s_calibration,
    cone_over,
    decompose_homogeneous_metric,
    homogeneity_check,
    induced_metric,
    loop_sign,
    symplectic_check,
    symplectize,
)
from sasaki_lab.contact import ContactStructure, darboux_contact
from sasaki_lab.manifold import (
    Atlas,
    Chart,
    SamplePlan,
    TransitionMap,
    TransitionPiece,
    sample_chart,
)
from sasaki_lab.tensor import SampleSet, TensorField

from pointwise import point, point_envs

PLAN = SamplePlan(seed=11, points_per_chart=10, tolerance=1e-8)


@pytest.fixture(scope="module")
def darboux():
    return darboux_contact(1)


@pytest.fixture(scope="module")
def cone(darboux):
    return symplectize(darboux)  # (bundle, omega), group R+


def signed(C):
    """C as a paired structure whose sign pattern is +1 everywhere, which
    `symplectize` lifts to an "Rx" cone."""
    return replace(C, transition_sign=lambda t, piece: 1.0)


def base_metric_rows(p, extra_eta_weight=0.0):
    """η² + dx² + dp² (+ extra·η²) for η = dz − p dx in coords (x, p, z)."""
    w = 1.0 + extra_eta_weight
    return [
        [w * p * p + 1.0, 0.0, -w * p],
        [0.0, 1.0, 0.0],
        [-w * p, 0.0, w],
    ]


def cone_metric(bundle, a=0.0, base_rows=base_metric_rows):
    """g = s((ds/s + a·η)² + g_M) over the 3d standard contact chart."""

    def ev(chart, env):
        x, p, s = env["x"], env["p"], env[FIBER]
        eta = [-p, 0.0, 1.0]
        gm = base_rows(p)
        out = [[0.0] * 4 for _ in range(4)]
        out[3][3] = 1.0 / s
        for b in range(3):
            out[3][b] = a * eta[b]
            out[b][3] = a * eta[b]
            for c in range(3):
                out[b][c] = s * (a * a * eta[b] * eta[c] + gm[b][c])
        return out

    return TensorField("cone_metric", bundle.total, (0, 2), ev)


class TestConeConstruction:
    def test_fiber_appended_last(self, cone):
        bundle, _ = cone
        (chart,) = bundle.total.charts
        assert chart.coords == ("x", "p", "z", FIBER)
        assert chart.box[3] == (0.5, 2.0)
        assert bundle.group == "R+"
        assert chart.coords.index(FIBER) == 3

    def test_rx_cone_gets_excluded_band(self, darboux):
        bundle = cone_over(darboux.atlas, group="Rx")
        (chart,) = bundle.total.charts
        assert chart.box[3] == (-2.0, 2.0)
        assert (FIBER, -0.5, 0.5) in chart.excluded
        mags = [
            abs(coords[3])
            for coords in sample_chart(chart, replace(PLAN, points_per_chart=50))
        ]
        assert min(mags) > 0.5

    def test_sign_flip_needs_rx(self):
        base = circle_base()
        with pytest.raises(ValueError):
            cone_over(base, group="R+", cocycle=lambda t, piece: -1.0)

    def test_unknown_group_rejected(self, darboux):
        with pytest.raises(ValueError):
            cone_over(darboux.atlas, group="Z2")


class TestSymplectization:
    def test_hand_matrix(self, cone):
        bundle, omega = cone
        env = {"x": 0.3, "p": 0.7, "z": -0.2, FIBER: 1.5}
        m = omega.at(bundle.total.charts[0].name, env)
        expect = [
            [0.0, 1.5, 0.0, 0.7],
            [-1.5, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [-0.7, 0.0, 1.0, 0.0],
        ]
        for i in range(4):
            for j in range(4):
                assert m[i][j] == pytest.approx(expect[i][j], abs=1e-12)

    def test_closed_and_nondegenerate(self, cone):
        _, omega = cone
        rep = symplectic_check(omega, PLAN)
        assert rep.passed
        assert rep.max_residual < 1e-9

    def test_degenerate_form_fails(self, darboux):
        bundle, _ = symplectize(darboux)

        def ev(chart, env):
            out = [[0.0] * 4 for _ in range(4)]
            out[0][1], out[1][0] = 1.0, -1.0
            return out

        bad = TensorField("degenerate", bundle.total, (0, 2), ev)
        rep = symplectic_check(bad, PLAN)
        assert not rep.passed
        assert rep.witness is not None

    def test_infinite_form_fails(self):
        """ω = 1e400 dx∧dy: |det ω| is NaN, not inf, so ω fails."""
        square = Atlas([Chart("O", ("x", "y"), ((-1.0, 1.0),) * 2)])
        huge = TensorField.from_exprs(
            "huge", square, (0, 2), {"O": {(0, 1): "1e400"}}, symmetry="anti"
        )
        rep = symplectic_check(huge, replace(PLAN, points_per_chart=8))
        assert rep.verdict == "fail" and math.isnan(rep.witness.residual)

    def test_form_is_plain_degree_one(self, darboux):
        bundle, omega = symplectize(signed(darboux))
        rep = homogeneity_check(omega, 1, "plain", bundle, PLAN)
        assert rep.passed
        assert rep.details["scales"] == [-2.0, -1.0, 0.5, 2.0]

    def test_form_is_not_positively_homogeneous_on_rx(self, darboux):
        # at ν = −1 the pullback is −ω, so the |ν| law misses by 2‖ω‖
        bundle, omega = symplectize(signed(darboux))
        rep = homogeneity_check(omega, 1, "positive", bundle, PLAN)
        assert not rep.passed
        assert rep.max_residual > 1.0


class TestHomogeneityModes:
    def test_sign_scalar_is_half_invariant(self, darboux):
        bundle = cone_over(darboux.atlas, group="Rx")
        (chart,) = bundle.total.charts
        f = TensorField.from_exprs(
            "fiber_sign", bundle.total, (0, 0), {chart.name: {(): "sgn(s)"}}
        )
        assert homogeneity_check(f, 0, "half", bundle, PLAN).passed
        rep = homogeneity_check(f, 0, "positive", bundle, PLAN)
        assert not rep.passed

    def test_metric_degree_mismatch_detected(self, cone):
        bundle, _ = cone
        g = cone_metric(bundle)
        assert homogeneity_check(g, 1, "positive", bundle, PLAN).passed
        assert not homogeneity_check(g, 2, "positive", bundle, PLAN).passed

    def test_unknown_mode_rejected(self, cone):
        bundle, omega = cone
        with pytest.raises(ValueError):
            homogeneity_check(omega, 1, "orbifold", bundle, PLAN)


def two_chart_contact():
    """Charts A and B of one box, each with its own η: dz − p dx and 2dz + p dx."""
    box = ((-1.0, 1.0),) * 3
    base = Atlas([Chart(n, ("x", "p", "z"), box) for n in ("A", "B")])
    eta = TensorField.from_exprs(
        "eta", base, (0, 1),
        {"A": {(0,): "-p", (2,): "1"}, "B": {(0,): "p", (2,): "2"}},
    )
    return ContactStructure("two-chart", base, eta)


class TestTwoChartCone:
    """Fields built chart by chart use each chart's own data."""

    def test_induced_metric_uses_each_charts_calibration(self):
        bundle = cone_over(two_chart_contact().atlas)
        # per chart: g_M = k·id on the base and calibration 𝔰 = c·s
        k = {"A": 1.0, "B": 2.0}
        c = {"A": 1.0, "B": 3.0}
        gM = TensorField.from_exprs(
            "gM", bundle.base, (0, 2),
            {n: {(i, i): repr(k[n]) for i in range(3)} for n in k},
        )
        scal = TensorField.from_exprs(
            "scal", bundle.total, (0, 0), {n: {(): f"{c[n]!r} * s"} for n in c}
        )
        g = induced_metric(bundle, gM, scal)
        for chart in bundle.total.charts:
            n = chart.name
            for coords, env in point_envs(chart, PLAN):
                s = env[FIBER]
                want = [[0.0] * 4 for _ in range(4)]
                for i in range(3):
                    want[i][i] = c[n] * s * k[n]
                want[3][3] = c[n] / s
                got = [[nk.value_of(v) for v in row] for row in g.at(n, env)]
                for row, want_row in zip(got, want):
                    assert row == pytest.approx(want_row, rel=1e-12, abs=1e-12)


def indefinite_metric(bundle):
    """s·(η² + dx² − dp²) + ds²/s: a degree-1 metric whose shadow flips the
    dp² direction."""

    def ev(chart, env):
        p, s = env["p"], env[FIBER]
        gm = base_metric_rows(p)
        gm[1][1] = -1.0  # flip the dp² direction
        out = [[0.0] * 4 for _ in range(4)]
        out[3][3] = 1.0 / s
        for b in range(3):
            for c in range(3):
                out[b][c] = s * gm[b][c]
        return out

    return TensorField("indefinite", bundle.total, (0, 2), ev)


class TestDecomposition:
    def test_recovers_weight_mixed_form_and_shadow(self, cone):
        bundle, _ = cone
        a = 0.7
        g = cone_metric(bundle, a=a)
        dec = decompose_homogeneous_metric(
            bundle, g, abs_s_calibration(bundle), PLAN
        )
        assert dec.report.passed
        assert not dec.calibrated  # μ = a·η ≠ 0
        name = bundle.base.charts[0].name
        for coords, env in point_envs(bundle.base.charts[0], PLAN):
            p = env["p"]
            assert nk.value_of(dec.A.at(name, env)) == pytest.approx(1.0, abs=1e-10)
            mu = [nk.value_of(v) for v in dec.mu.at(name, env)]
            assert mu == pytest.approx([-a * p, 0.0, a], abs=1e-10)
            shadow = dec.g_M.at(name, env)
            expect = base_metric_rows(p)
            for i in range(3):
                for j in range(3):
                    assert nk.value_of(shadow[i][j]) == pytest.approx(
                        expect[i][j], abs=1e-9
                    )

    def test_zero_mixed_form_means_calibrated(self, cone):
        bundle, _ = cone
        dec = decompose_homogeneous_metric(
            bundle, cone_metric(bundle, a=0.0), abs_s_calibration(bundle), PLAN
        )
        assert dec.calibrated
        assert dec.mu_max < 1e-12

    def test_shadow_ignores_choice_of_calibration(self, cone):
        # recalibrating by a positive basic factor must not move the shadow
        bundle, _ = cone
        g = cone_metric(bundle, a=0.7)
        (chart,) = bundle.total.charts
        scal2 = TensorField.from_exprs(
            "warped",
            bundle.total,
            (0, 0),
            {chart.name: {(): "s * (1 + 0.2 * sin(x))"}},
        )
        dec1 = decompose_homogeneous_metric(bundle, g, abs_s_calibration(bundle), PLAN)
        dec2 = decompose_homogeneous_metric(bundle, g, scal2, PLAN)
        name = bundle.base.charts[0].name
        for coords, env in point_envs(bundle.base.charts[0], PLAN):
            s1 = dec1.g_M.at(name, env)
            s2 = dec2.g_M.at(name, env)
            for i in range(3):
                for j in range(3):
                    assert nk.value_of(s1[i][j]) == pytest.approx(
                        nk.value_of(s2[i][j]), abs=1e-9
                    )

    def test_inhomogeneous_metric_rejected(self, cone):
        bundle, _ = cone

        def ev(chart, env):
            out = [[0.0] * 4 for _ in range(4)]
            for i in range(4):
                out[i][i] = 1.0
            return out

        flat = TensorField("flat", bundle.total, (0, 2), ev)
        with pytest.raises(NotHomogeneous):
            decompose_homogeneous_metric(bundle, flat, abs_s_calibration(bundle), PLAN)

    def test_indefinite_shadow_rejected(self, cone):
        bundle, _ = cone
        g = indefinite_metric(bundle)
        with pytest.raises(NotPositiveDefinite):
            decompose_homogeneous_metric(bundle, g, abs_s_calibration(bundle), PLAN)

    def test_indefinite_shadow_is_rejected_after_its_run(self, cone, monkeypatch):
        """The metric of `test_indefinite_shadow_rejected` is rejected once
        the base samples are reduced: no group goes point by point, and the
        message names the smallest eigenvalue and a sample point."""
        from sasaki_lab import report

        bundle, _ = cone
        g = indefinite_metric(bundle)
        fallbacks, by_point = [], report.point_by_point

        def noted(*args):
            fallbacks.append(args)
            return by_point(*args)

        monkeypatch.setattr(report, "point_by_point", noted)
        with pytest.raises(NotPositiveDefinite) as raised:
            decompose_homogeneous_metric(bundle, g, abs_s_calibration(bundle), PLAN)
        assert fallbacks == []
        (chart,) = bundle.base.charts
        first = tuple(sample_chart(chart, PLAN)[0])
        assert str(raised.value) == (
            f"shadow metric eigenvalue {-1.0:.3e}; not positive at {first} in {chart.name}"
        )


class TestInducedCalibration:
    def test_round_trip_through_induced_metric(self, cone):
        # g_M = 4η² + dx² + dp²: the dual norm of η is 1/2, so 𝔰 = s/2 is
        # the calibration a shadow of this g_M induces on the cone
        bundle, _ = cone
        gM = base_shadow_field(bundle, extra=3.0)
        name = bundle.total.charts[0].name
        scal = TensorField.from_exprs(
            "half_s", bundle.total, (0, 0), {name: {(): "0.5 * s"}}
        )
        g = induced_metric(bundle, gM, scal)
        for coords, env in point_envs(bundle.total.charts[0], PLAN):
            s = env[FIBER]
            g_nabla = s * s * nk.value_of(g.at(name, env)[-1][-1])  # g(∇, ∇)
            assert g_nabla == pytest.approx(
                nk.value_of(scal.at(name, env)), abs=1e-11
            )
        dec = decompose_homogeneous_metric(bundle, g, scal, PLAN)
        assert dec.calibrated
        base_name = bundle.base.charts[0].name
        for coords, env in point_envs(bundle.base.charts[0], PLAN):
            shadow = dec.g_M.at(base_name, env)
            expect = gM.at(base_name, env)
            for i in range(3):
                for j in range(3):
                    assert nk.value_of(shadow[i][j]) == pytest.approx(
                        nk.value_of(expect[i][j]), abs=1e-9
                    )


def base_shadow_field(bundle, extra=0.0):
    def ev(chart, env):
        return base_metric_rows(env["p"], extra_eta_weight=extra)

    return TensorField("shadow", bundle.base, (0, 2), ev)


# -- fiber sign cocycle on a circle ------------------------------------


def circle_base() -> Atlas:
    a = Chart("A", ("x",), ((-0.6, 0.6),))
    b = Chart("B", ("x",), ((0.4, 1.6),))
    ident = ("x",)
    fwd = TransitionMap(
        "A",
        "B",
        (
            piece(((0.4, 0.6),), ident, ident),
            piece(((-0.6, -0.4),), ("x + 2",), ("x - 2",)),
        ),
    )
    back = TransitionMap(
        "B",
        "A",
        (
            piece(((0.4, 0.6),), ident, ident),
            piece(((1.4, 1.6),), ("x - 2",), ("x + 2",)),
        ),
    )
    return Atlas((a, b), (fwd, back))


def piece(box, forward, inverse) -> TransitionPiece:
    from sasaki_lab import exprlang

    return TransitionPiece(
        box,
        tuple(exprlang.parse(e) for e in forward),
        tuple(exprlang.parse(e) for e in inverse),
    )


def wrap_cocycle(t, pc) -> float:
    lo = pc.box[0][0]
    return -1.0 if (lo < 0.0 or lo > 1.0) else 1.0


class TestLoopSign:
    def test_twisted_cone_has_loop_sign_minus_one(self):
        bundle = cone_over(circle_base(), group="Rx", cocycle=wrap_cocycle)
        path = [("A", "B", 0), ("B", "A", 1)]
        assert loop_sign(bundle.total, bundle.transition_sign, path) == -1.0

    def test_trivial_cocycle_has_loop_sign_plus_one(self):
        bundle = cone_over(circle_base(), group="Rx")
        path = [("A", "B", 0), ("B", "A", 1)]
        assert loop_sign(bundle.total, bundle.transition_sign, path) == 1.0

    def test_signs_are_per_piece(self):
        bundle = cone_over(circle_base(), group="Rx", cocycle=wrap_cocycle)
        t = bundle.total.transition("A", "B")
        assert bundle.transition_sign(t, t.pieces[0]) == 1.0
        assert bundle.transition_sign(t, t.pieces[1]) == -1.0


def test_derived_envs_of_a_group_are_kept_in_its_batch_memo(darboux, cone):
    """The base env and the lift of a sample group's batch env are derived
    once and kept in the memo of the env they derive from until the
    entry's set is pruned; a field there gives each point its lone value.
    A plain mapping's derived env is built anew on each call."""
    bundle, _ = cone
    shared = SampleSet([])
    plan = replace(PLAN, points_per_chart=4, sample_set=shared)
    chart = bundle.total.charts[0]
    points, batch = shared.points(chart, plan)
    down = bundle.base_env(batch)
    up = bundle.lift_env(down, 1.5)
    assert bundle.base_env(batch) is down is batch.memo[("base_env",)]
    assert bundle.lift_env(down, 1.5) is up is down.memo[("lift_env", "1.5")]
    assert FIBER not in down and up[FIBER] == 1.5
    eta = darboux.eta
    with np.errstate(all="raise", under="ignore"):
        values = eta.at(chart.name, down)
    for i, coords in enumerate(points):
        lone = bundle.base_env(chart.env(coords))
        assert FIBER not in lone
        assert point(values, i) == list(eta.at(chart.name, lone))
    plain = dict(chart.env(points[0]))
    assert bundle.base_env(plain) is not bundle.base_env(plain)
    shared.prune()
    assert ("base_env",) not in batch.memo
