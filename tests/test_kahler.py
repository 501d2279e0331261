"""Compatibility tensors and the cone reconstruction, against hand oracles."""

import math
from dataclasses import replace

import pytest

from sasaki_lab import exprlang
from sasaki_lab import numkernel as nk
from sasaki_lab.bundle import (
    FIBER,
    homogeneity_check,
    symplectize,
)
from sasaki_lab.contact import darboux_contact, kernel_frames
from sasaki_lab.corpus import build_example
from sasaki_lab.kahler import (
    almost_complex_check,
    compatibility_check,
    compatibility_tensor,
    kahler_integrability_check,
    kahlerianization,
    reconstruct_main1,
)
from sasaki_lab.manifold import Atlas, Chart, SamplePlan, append_coordinate
from sasaki_lab.report import run_residual_check
from sasaki_lab.sasaki import standard_darboux_levi
from sasaki_lab.tensor import TensorField, compose, max_abs, tf_scale

from pointwise import alone

PLAN = SamplePlan(seed=13, points_per_chart=8, tolerance=1e-8)


def plane_pair(omega_scale=1.0):
    """Euclidean metric and (scaled) area form on a single planar chart."""
    atlas = Atlas(
        (Chart("plane", ("x", "y"), ((-1.0, 1.0), (-1.0, 1.0))),), ()
    )
    omega = TensorField(
        "area",
        atlas,
        (0, 2),
        lambda chart, env: [[0.0, omega_scale], [-omega_scale, 0.0]],
    )
    g = TensorField(
        "euclid",
        atlas,
        (0, 2),
        lambda chart, env: [[1.0, 0.0], [0.0, 1.0]],
    )
    return omega, g


def cone_metric(bundle, L, a_expr="0.0"):
    """g = s((ds/s + a·η)² + g_M) with g_M the transverse-plus-η² metric."""
    C = L.contact
    g_M = L.metric()
    ax = exprlang.parse(a_expr)

    def ev(chart, env):
        si = chart.index(FIBER)
        s = env[FIBER]
        base_env = {c: v for c, v in env.items() if c != FIBER}
        etav = C.eta.at(chart.name, base_env)
        gmb = g_M.at(chart.name, base_env)
        a = exprlang.eval_expr(ax, base_env)
        dim = len(etav) + 1
        keep = [j for j in range(dim) if j != si]
        out = [[0.0] * dim for _ in range(dim)]
        out[si][si] = 1.0 / s
        for jb, j in enumerate(keep):
            out[si][j] = a * etav[jb]
            out[j][si] = out[si][j]
            for kb, k in enumerate(keep):
                out[j][k] = s * (a * a * etav[jb] * etav[kb] + gmb[jb][kb])
        return out

    return TensorField(f"cone_metric({a_expr})", bundle.total, (0, 2), ev)


def darboux_cone(a_expr="0.0", n=1):
    L = standard_darboux_levi(n)
    bundle, omega = symplectize(L.contact)
    g = cone_metric(bundle, L, a_expr)
    return L, bundle, omega, g


def reconstruct(L, bundle, omega, g):
    """`reconstruct_main1` on the pair (ω, g) and its compatibility tensor."""
    J = compatibility_tensor(omega, g)
    return reconstruct_main1(L.contact, bundle, g, J, PLAN)


def matvec(m, v):
    return [
        nk.value_of(nk.sum_(m[k][j] * v[j] for j in range(len(v))))
        for k in range(len(m))
    ]


def assert_rows(got, want, tol=1e-12):
    assert len(got) == len(want)
    for gr, wr in zip(got, want):
        assert [nk.value_of(x) for x in gr] == pytest.approx(wr, abs=tol)


class TestCompatibilityTensor:
    def test_planar_hand_oracle(self):
        omega, g = plane_pair()
        J = compatibility_tensor(omega, g)
        assert_rows(J.at("plane", {"x": 0.2, "y": -0.5}), [[0.0, -1.0], [1.0, 0.0]])

    def test_scaled_area_form_shrinks_j(self):
        omega, g = plane_pair(omega_scale=2.0)
        J = compatibility_tensor(omega, g)
        assert_rows(J.at("plane", {"x": 0.0, "y": 0.0}), [[0.0, -0.5], [0.5, 0.0]])

    def test_defining_identity_and_invariances_on_cone(self):
        _, bundle, omega, g = darboux_cone("0.7")
        J = compatibility_tensor(omega, g)
        rep = compatibility_check(omega, g, J, replace(PLAN, tolerance=1e-9))
        assert rep.passed, rep.max_residual

    def test_cone_swaps_scaling_and_reeb_at_zero_slope(self):
        _, bundle, omega, g = darboux_cone("0.0")
        J = compatibility_tensor(omega, g)
        env = {"x": 0.3, "p": -0.4, "z": 0.2, FIBER: 1.7}
        m = J.at("O", env)
        nabla = [0.0, 0.0, 0.0, 1.7]
        xi = [0.0, 0.0, 1.0, 0.0]
        assert matvec(m, nabla) == pytest.approx(xi, abs=1e-12)
        assert matvec(m, xi) == pytest.approx([0.0, 0.0, 0.0, -1.7], abs=1e-12)


class TestAlmostComplexCheck:
    def test_variable_slope_still_squares_to_minus_one(self):
        _, _, omega, g = darboux_cone("x")
        rep = almost_complex_check(compatibility_tensor(omega, g), PLAN)
        assert rep.passed, rep.max_residual

    def test_mismatched_pair_fails_with_quarter_square(self):
        omega, g = plane_pair(omega_scale=2.0)
        rep = almost_complex_check(compatibility_tensor(omega, g), PLAN)
        assert not rep.passed
        assert rep.max_residual == pytest.approx(0.75)


class TestIntegrability:
    def test_constant_slope_is_integrable(self):
        _, _, omega, g = darboux_cone("0.3")
        rep = kahler_integrability_check(compatibility_tensor(omega, g), PLAN)
        assert rep.passed, rep.max_residual

    def test_variable_slope_is_obstructed(self):
        _, _, omega, g = darboux_cone("x")
        rep = kahler_integrability_check(compatibility_tensor(omega, g), PLAN)
        assert rep.verdict == "fail"
        assert rep.max_residual > 1e-3


class TestReconstruction:
    def test_recovers_constant_slope(self):
        L, bundle, omega, g = darboux_cone("0.7")
        res = reconstruct(L, bundle, omega, g)
        assert res.report.passed, res.report.details
        assert res.report.details["failed_clauses"] == []
        for env in ({"x": 0.0, "p": 0.0, "z": 0.0}, {"x": -0.8, "p": 1.2, "z": 0.4}):
            assert nk.value_of(res.slope.at("O", env)) == pytest.approx(0.7)

    def test_round_trips_base_metric_and_plane_endo(self):
        L, bundle, omega, g = darboux_cone("0.7")
        res = reconstruct(L, bundle, omega, g)
        env = {"x": 0.5, "p": -0.9, "z": 0.1}
        p = env["p"]
        assert_rows(
            res.g_M.at("O", env),
            [[p * p + 1.0, 0.0, -p], [0.0, 1.0, 0.0], [-p, 0.0, 1.0]],
            tol=1e-9,
        )

    def test_zero_slope_vertical_block(self):
        L, bundle, omega, g = darboux_cone("0.0")
        res = reconstruct(L, bundle, omega, g)
        assert res.report.passed
        assert res.report.details["vertical_matrix"] < 1e-8
        assert res.report.details["reeb_norm"] < 1e-8
        assert res.report.details["orthogonality"] < 1e-8

    def test_variable_slope_reconstructs_pointwise(self):
        L, bundle, omega, g = darboux_cone("x")
        res = reconstruct(L, bundle, omega, g)
        assert res.report.passed, res.report.details
        env = {"x": 0.45, "p": -0.2, "z": 0.9}
        assert nk.value_of(res.slope.at("O", env)) == pytest.approx(0.45)
        rep = kahler_integrability_check(compatibility_tensor(omega, g), PLAN)
        assert rep.verdict == "fail" and rep.max_residual > 1e-3

    def test_second_stabilizer_dimension(self):
        L, bundle, omega, g = darboux_cone("-1.3", n=2)
        res = reconstruct(L, bundle, omega, g)
        assert res.report.passed, res.report.details
        env = {"x1": 0.2, "p1": -0.4, "x2": 0.7, "p2": 0.3, "z": 0.0}
        assert nk.value_of(res.slope.at("O", env)) == pytest.approx(-1.3)

    def test_incompatible_pair_fails_its_square_clause(self):
        """g scaled by 2 alone: J doubles and J² = −4·id, so the `square`
        clause reaches 3 and the report fails with a witness."""
        L, bundle, omega, g = darboux_cone("0.7")
        rep = reconstruct(L, bundle, omega, tf_scale(g, 2.0)).report
        assert rep.verdict == "fail"
        assert "square" in rep.details["failed_clauses"]
        assert rep.details["square"] == pytest.approx(3.0)
        assert rep.witness.residual == rep.max_residual == rep.details["square"]

    def test_square_clause_reads_the_plan_tolerance(self):
        """ω scaled by 1 + 1e-6: J² + id reaches about 2e-6, which passes
        at tolerance 1e-5 and fails the `square` clause at 1e-6."""
        L, bundle, omega, g = darboux_cone("0.7")
        J = compatibility_tensor(tf_scale(omega, 1.0 + 1e-6), g)
        loose, tight = (
            reconstruct_main1(L.contact, bundle, g, J, replace(PLAN, tolerance=tol)).report
            for tol in (1e-5, 1e-6)
        )
        assert loose.passed and 1e-6 < loose.details["square"] < 1e-5
        assert tight.verdict == "fail" and "square" in tight.details["failed_clauses"]

    def test_failed_clause_is_named(self):
        L, bundle, omega, g = darboux_cone("0.7")
        res = reconstruct(L, bundle, tf_scale(omega, 2.0), tf_scale(g, 2.0))
        assert res.report.verdict == "fail"
        assert "calibration" in res.report.details["failed_clauses"]
        assert res.report.details["square"] < 1e-10

    def test_nan_clauses_are_named_failed(self):
        """A NaN clause fails, so `failed_clauses` must name it too."""
        L, bundle, omega, g = darboux_cone("1e308 * 10 - 1e308 * 10")
        rep = reconstruct(L, bundle, omega, g).report
        nan = sorted(
            name for name, v in rep.details.items()
            if name != "failed_clauses" and math.isnan(v)
        )
        assert rep.verdict == "fail" and math.isnan(rep.max_residual)
        assert len(nan) == 7
        assert rep.details["failed_clauses"] == nan

    def test_contact_clauses_read_the_kernel_frames(self, monkeypatch):
        """`contact_invariance` and `orthogonality` read the fields that one
        `kernel_frames` call hands out: a field off the contact planes (the
        Reeb field ∂z) added to them fails both clauses."""
        from sasaki_lab import kahler

        calls = []

        def frames_and_reeb(C, plan):
            calls.append(C.name)
            return kernel_frames(C, plan) + [C.reeb()]

        L, bundle, omega, g = darboux_cone("0.7")
        assert reconstruct(L, bundle, omega, g).report.passed
        monkeypatch.setattr(kahler, "kernel_frames", frames_and_reeb)
        rep = reconstruct(L, bundle, omega, g).report
        assert calls == [L.contact.name]
        assert rep.details["failed_clauses"] == ["contact_invariance", "orthogonality"]

    def test_half_invariance_of_j(self):
        L, bundle, omega, g = darboux_cone("0.7")
        J = compatibility_tensor(omega, g)
        rep = homogeneity_check(J, 0, "half", PLAN, bundle=bundle)
        assert rep.passed, rep.max_residual


class TestMusicalConventions:
    def test_flat_of_scaling_field_is_minus_s_eta(self):
        L, bundle, omega, g = darboux_cone("0.7")

        def nabla_ev(chart, env):
            out = [0.0, 0.0, 0.0, 0.0]
            out[3] = env[FIBER]
            return out

        nabla = TensorField("scaling", bundle.total, (1, 0), nabla_ev)
        flat = compose(omega, nabla)  # ω(·, ∇)
        env = {"x": 0.3, "p": -0.4, "z": 0.2, FIBER: 1.7}
        got = [nk.value_of(v) for v in flat.at("O", env)]
        s, p = env[FIBER], env["p"]
        assert got == pytest.approx([-s * (-p), 0.0, -s * 1.0, 0.0], abs=1e-12)


class TestConeComplexStructure:
    """M×ℝ, the space of a cone's complex structure in cylinder form."""

    def test_line_extension_appends_coordinate(self):
        ext = append_coordinate(darboux_contact(1).atlas, "t", (-2.0, 2.0))
        (chart,) = ext.charts
        assert chart.coords == ("x", "p", "z", "t")
        assert chart.box[-1] == (-2.0, 2.0)


# -- declared identities against the hand-indexed residuals they replaced --


def _hand_compatibility(omega, g, J):
    """g = ω(·, J·), g(J·, J·) = g, ω(J·, J·) = ω, indexed by hand."""

    def residual(chart, env):
        om = omega.at(chart, env)
        gm = g.at(chart, env)
        m = J.at(chart, env)
        dim = len(m)
        comps = []
        for i in range(dim):
            for j in range(dim):
                wj = nk.sum_(om[i][k] * m[k][j] for k in range(dim))
                comps.append(nk.value_of(gm[i][j]) - nk.value_of(wj))
                gjj = nk.sum_(
                    gm[k][l] * m[k][i] * m[l][j]
                    for k in range(dim)
                    for l in range(dim)
                )
                comps.append(nk.value_of(gjj) - nk.value_of(gm[i][j]))
                wjj = nk.sum_(
                    om[k][l] * m[k][i] * m[l][j]
                    for k in range(dim)
                    for l in range(dim)
                )
                comps.append(nk.value_of(wjj) - nk.value_of(om[i][j]))
        return max_abs(comps)

    return residual


def _hand_almost_complex(J):
    """J² = −id, indexed by hand."""

    def residual(chart, env):
        m = J.at(chart, env)
        dim = len(m)
        return max_abs([
            nk.value_of(nk.sum_(m[i][k] * m[k][j] for k in range(dim)))
            + (1.0 if i == j else 0.0)
            for i in range(dim)
            for j in range(dim)
        ])

    return residual


def _hand_reconstruction(C, bundle, g, J, slope, g_M, plan):
    """`reconstruct_main1`'s clauses, indexed by hand at each point, with
    the slope, the base metric and the kernel frames it reads."""
    xi = C.reeb()
    frames = kernel_frames(C, plan)
    square = _hand_almost_complex(J)

    def residual(chart, env):
        dim = bundle.total.chart(chart).dim
        n = dim - 1  # the base block, then the fiber
        s = env[FIBER]
        base_env = bundle.base_env(env)
        m = J.at(chart, env)
        gm = g.at(chart, env)
        etav = [nk.value_of(v) for v in C.eta.at(chart, base_env)]
        xiv = [nk.value_of(v) for v in xi.at(chart, base_env)]
        a = nk.value_of(slope.at(chart, base_env))

        r_cal = abs(nk.value_of(gm[n][n]) * s * s - s)
        r_sq = square(chart, env)

        # vertical vectors in coordinates
        xi_t = xiv + [0.0]
        nabla = [0.0] * n + [s]

        def matvec(v):
            return [
                nk.value_of(nk.sum_(m[k][j] * v[j] for j in range(dim)))
                for k in range(dim)
            ]

        def eta_of(v):
            return sum(e * c for e, c in zip(etav, v))

        def ds_over_s(v):
            return v[n] / s

        jxi = matvec(xi_t)
        jnab = matvec(nabla)
        want = {
            ("xi", "xi"): a,
            ("nabla", "xi"): -(1.0 + a * a),
            ("xi", "nabla"): 1.0,
            ("nabla", "nabla"): -a,
        }
        got = {
            ("xi", "xi"): eta_of(jxi),
            ("nabla", "xi"): ds_over_s(jxi),
            ("xi", "nabla"): eta_of(jnab),
            ("nabla", "nabla"): ds_over_s(jnab),
        }

        # W-invariance: the images minus their W-projections vanish
        rems = []
        for img in (jxi, jnab):
            alpha, beta = eta_of(img), ds_over_s(img)
            rems += [img[j] - alpha * xi_t[j] - beta * nabla[j] for j in range(dim)]

        # C-invariance: kernel frame vectors stay in ker η ∩ ker ds
        cinv, orth = [], []
        for F in frames:
            lift = [nk.value_of(c) for c in F.at(chart, base_env)] + [0.0]
            img = matvec(lift)
            cinv += [eta_of(img), img[n]]
            for w_vec in (xi_t, nabla):
                orth.append(
                    nk.sum_(
                        gm[i][j] * w_vec[i] * lift[j]
                        for i in range(dim)
                        for j in range(dim)
                    )
                )

        norm_xi = nk.value_of(
            nk.sum_(
                gm[i][j] * xi_t[i] * xi_t[j]
                for i in range(dim)
                for j in range(dim)
            )
        )

        # reassembly: g = s((ds/s + aη)² + g_M) against the extraction
        gmb = g_M.at(chart, base_env)
        asm = []
        for i in range(n):
            for j in range(n):
                want_ij = s * (
                    a * a * etav[i] * etav[j] + nk.value_of(gmb[i][j])
                )
                asm.append(nk.value_of(gm[i][j]) - want_ij)
            mixed = s * (1.0 / s) * a * etav[i]  # g(∂s, ∂_i) = a·η_i
            asm.append(nk.value_of(gm[n][i]) - mixed)
        asm.append(nk.value_of(gm[n][n]) - 1.0 / s)
        return {
            "calibration": r_cal,
            "square": r_sq,
            "vertical_matrix": max_abs([got[k] - want[k] for k in want]),
            "vertical_invariance": max_abs(rems),
            "contact_invariance": max_abs(cinv),
            "reeb_norm": abs(norm_xi - s * (1.0 + a * a)),
            "orthogonality": max_abs(orth),
            "reassembly": max_abs(asm),
        }

    return residual


def _bent(J):
    """J with its (1, 0) entry shifted by 0.01 times the first coordinate."""
    return TensorField(
        "bent", J.atlas, (1, 1),
        lambda chart, env: [
            [v + 0.01 * env[chart.coords[0]] if (k, j) == (1, 0) else v
             for j, v in enumerate(row)]
            for k, row in enumerate(J.at(chart.name, env))
        ],
    )


def test_declared_identities_repeat_the_hand_indexed_residuals(monkeypatch):
    """On the sphere's cone with one entry of J shifted by 0.01·x (residuals
    near 1e-2), the declared checks reduce to the hand-indexed residuals'
    values, to the last bit, chart by chart and at the same witness.  So
    does the reconstruction, clause by clause, on the cone of slope 0.7·x
    with ω and g both doubled and with J bent the same way."""
    pair = kahlerianization(build_example("sphere-3").structure, "0.2")
    bent = _bent(pair.J)
    plan = SamplePlan(seed=5, points_per_chart=8, tolerance=1e-8)
    for declared, hand in (
        (compatibility_check(pair.omega, pair.g, bent, plan),
         _hand_compatibility(pair.omega, pair.g, bent)),
        (almost_complex_check(bent, plan), _hand_almost_complex(bent)),
    ):
        with monkeypatch.context() as m:
            alone(m)
            by_hand = run_residual_check("by_hand", bent.atlas, hand, plan)
        assert 1e-3 < declared.max_residual < 1e-1
        assert declared.verdict == "fail"
        assert [repr(declared.max_residual), repr(declared.per_chart),
                repr(declared.witness)] == [
            repr(by_hand.max_residual), repr(by_hand.per_chart),
            repr(by_hand.witness)]
    L, bundle, omega, g = darboux_cone("0.7*x")
    doubled = tf_scale(omega, 2.0), tf_scale(g, 2.0)
    for g_, J in (
        (doubled[1], compatibility_tensor(*doubled)),
        (g, _bent(compatibility_tensor(omega, g))),
    ):
        res = reconstruct_main1(L.contact, bundle, g_, J, plan)
        hand = _hand_reconstruction(L.contact, bundle, g_, J, res.slope, res.g_M, plan)
        with monkeypatch.context() as m:
            alone(m)
            by_hand = run_residual_check("by_hand", bundle.total, hand, plan)
        declared = res.report
        clauses = {k: v for k, v in declared.details.items() if k != "failed_clauses"}
        assert declared.verdict == "fail" and len(by_hand.details) == 8
        assert [repr(declared.max_residual), repr(declared.per_chart),
                repr(declared.witness), repr(clauses)] == [
            repr(by_hand.max_residual), repr(by_hand.per_chart),
            repr(by_hand.witness), repr(by_hand.details)]
