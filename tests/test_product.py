"""Products of Darboux structures: forms, Reeb fields, and both routes."""

from dataclasses import replace

import pytest

from sasaki_lab import numkernel as nk
from sasaki_lab.bundle import homogeneity_check
from sasaki_lab.contact import ContactStructure
from sasaki_lab.kahler import almost_complex_check, kahler_integrability_check
from sasaki_lab.manifold import SamplePlan
from sasaki_lab.product import (
    FactorNotSasakian,
    NotCooriented,
    invariant_slope_form,
    product_kahler_lift,
    product_routes_check,
    sasakian_product,
    ts_reparametrization,
)
from sasaki_lab.sasaki import (
    LeviStructure,
    contact_metric_check,
    sasaki_check,
    standard_darboux_levi,
)
from sasaki_lab.tensor import TensorField, lie_derivative, pullback

PLAN = SamplePlan(seed=17, points_per_chart=4, tolerance=1e-8)
ENV7 = {
    "x1": 0.3, "p1": -0.6, "z1": 0.1,
    "x2": -0.2, "p2": 0.8, "z2": 0.5,
    "t": 1.4,
}


def vals(seq):
    return [nk.value_of(v) for v in seq]


class TestContactProduct:
    """The product form needs single-chart, cooriented factors."""

    def test_paired_factor_rejected(self):
        honest = standard_darboux_levi(1)
        fake = ContactStructure(
            "pretend-paired", honest.contact.atlas, honest.contact.eta,
            transition_sign=lambda t, piece: 1.0,
        )
        paired = LeviStructure("pretend-paired", fake, honest.phibar)
        with pytest.raises(NotCooriented):
            sasakian_product(paired, honest, PLAN)


class TestSasakianProduct:
    def test_reeb_is_sum_of_factors(self):
        L = sasakian_product(
            standard_darboux_levi(1), standard_darboux_levi(1), PLAN
        )
        got = vals(L.contact.reeb().at("prod", ENV7))
        assert got == pytest.approx(
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0], abs=1e-11
        )

    def test_form_at_unit_parameter_is_average(self):
        L = sasakian_product(
            standard_darboux_levi(1), standard_darboux_levi(1), PLAN
        )
        env = dict(ENV7, t=1.0)
        got = vals(L.contact.eta.at("prod", env))
        p1, p2 = env["p1"], env["p2"]
        assert got == pytest.approx(
            [-p1 / 2, 0.0, 0.5, -p2 / 2, 0.0, 0.5, 0.0]
        )

    def test_levi_structure_is_well_formed(self):
        L = sasakian_product(
            standard_darboux_levi(1), standard_darboux_levi(1), PLAN
        )
        rep = L.validate(PLAN)
        assert rep.passed, (rep.max_residual, rep.details)

    def test_contact_metric_and_normality(self):
        L = sasakian_product(
            standard_darboux_levi(1), standard_darboux_levi(1), PLAN
        )
        assert contact_metric_check(L, replace(PLAN, tolerance=1e-7)).passed
        rep = sasaki_check(L, replace(PLAN, tolerance=1e-7))
        assert rep.passed, rep.max_residual

    def test_abnormal_factor_rejected(self):
        faulty = standard_darboux_levi(1)
        shear = TensorField.from_exprs(
            "bad_endo",
            faulty.contact.atlas,
            (1, 1),
            {
                "O": {
                    (0, 0): "(z)",
                    (1, 0): "1",
                    (2, 0): "(z) * p",
                    (0, 1): "-(1 + (z)^2)",
                    (1, 1): "-(z)",
                    (2, 1): "-(1 + (z)^2) * p",
                }
            },
        )
        bad = LeviStructure("bad", faulty.contact, shear)
        with pytest.raises(FactorNotSasakian):
            sasakian_product(bad, standard_darboux_levi(1), PLAN)


class TestProductCones:
    def test_block_fields_by_hand(self):
        K = product_kahler_lift(
            standard_darboux_levi(1), standard_darboux_levi(1), PLAN
        )
        env = {
            "x1": 0.3, "p1": -0.6, "z1": 0.1, "s1": 1.2,
            "x2": -0.2, "p2": 0.8, "z2": 0.5, "s2": 0.7,
        }
        om = K.omega.at("prod_cone", env)
        g = K.g.at("prod_cone", env)
        # ω(∂s₁, ∂x₁) = η₁(∂x₁) = −p₁; blocks do not mix
        assert nk.value_of(om[3][0]) == pytest.approx(-env["p1"])
        assert nk.value_of(om[3][4]) == 0.0
        assert nk.value_of(g[3][3]) == pytest.approx(1.0 / env["s1"])
        assert nk.value_of(g[7][7]) == pytest.approx(1.0 / env["s2"])

    def test_j_swaps_each_factors_scaling_and_reeb(self):
        K = product_kahler_lift(
            standard_darboux_levi(1), standard_darboux_levi(1), PLAN
        )
        env = {
            "x1": 0.0, "p1": 0.0, "z1": 0.0, "s1": 1.5,
            "x2": 0.0, "p2": 0.0, "z2": 0.0, "s2": 0.6,
        }
        m = K.J.at("prod_cone", env)

        def matvec(v):
            return [
                nk.value_of(nk.sum_(m[k][j] * v[j] for j in range(8)))
                for k in range(8)
            ]

        nabla1 = [0.0] * 8
        nabla1[3] = env["s1"]
        assert matvec(nabla1) == pytest.approx(
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0], abs=1e-12
        )
        nabla2 = [0.0] * 8
        nabla2[7] = env["s2"]
        assert matvec(nabla2) == pytest.approx(
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0], abs=1e-12
        )

    def test_product_pair_is_kahler(self):
        small = SamplePlan(seed=17, points_per_chart=3, tolerance=1e-8)
        K = product_kahler_lift(
            standard_darboux_levi(1), standard_darboux_levi(1), small
        )
        assert almost_complex_check(K.J, small).passed
        rep = kahler_integrability_check(K.J, small)
        assert rep.passed, rep.max_residual

    def test_abnormal_factor_rejected_upstairs(self):
        base = standard_darboux_levi(1)
        shear = TensorField.from_exprs(
            "bad_endo",
            base.contact.atlas,
            (1, 1),
            {
                "O": {
                    (0, 0): "(z)",
                    (1, 0): "1",
                    (2, 0): "(z) * p",
                    (0, 1): "-(1 + (z)^2)",
                    (1, 1): "-(z)",
                    (2, 1): "-(1 + (z)^2) * p",
                }
            },
        )
        bad = LeviStructure("bad", base.contact, shear)
        with pytest.raises(FactorNotSasakian):
            product_kahler_lift(bad, base, PLAN)


class TestSlopeFormAndRoutes:
    def test_slope_form_kills_diagonal_scaling(self):
        K = product_kahler_lift(
            standard_darboux_levi(1), standard_darboux_levi(1), PLAN
        )
        beta = invariant_slope_form(K.bundle)
        nabla = K.bundle.liouville()
        env = {
            "x1": 0.3, "p1": -0.6, "z1": 0.1, "s1": 1.2,
            "x2": -0.2, "p2": 0.8, "z2": 0.5, "s2": 0.7,
        }
        bv = beta.at("prod_cone", env)
        nv = nabla.at("prod_cone", env)
        pairing = nk.value_of(nk.sum_(a * b for a, b in zip(bv, nv)))
        assert pairing == pytest.approx(0.0, abs=1e-12)
        flow = lie_derivative(beta, nabla)
        assert vals(flow.at("prod_cone", env)) == pytest.approx(
            [0.0] * 8, abs=1e-10
        )

    def test_slope_form_is_scale_invariant(self):
        K = product_kahler_lift(
            standard_darboux_levi(1), standard_darboux_levi(1), PLAN
        )
        beta = invariant_slope_form(K.bundle)
        rep = homogeneity_check(
            beta, 0, "plain", K.bundle, replace(PLAN, tolerance=1e-9)
        )
        assert rep.passed, rep.max_residual

    def test_slope_form_in_cone_parameters(self):
        from sasaki_lab.bundle import cone_over

        K = product_kahler_lift(
            standard_darboux_levi(1), standard_darboux_levi(1), PLAN
        )
        Lp = sasakian_product(
            standard_darboux_levi(1), standard_darboux_levi(1), PLAN
        )
        cone = cone_over(Lp.contact.atlas, group="R+", name="pc")
        F = ts_reparametrization(K.bundle, cone)
        beta = pullback(F, invariant_slope_form(K.bundle))
        env = dict(ENV7, s=1.3)
        got = vals(beta.at("prod", env))
        t = env["t"]
        want = [0.0] * 8
        want[6] = 1.0 / (t**0.5 * (t + 1.0))
        assert got == pytest.approx(want, abs=1e-12)

    def test_routes_agree_through_reparametrization(self):
        L1, L2 = standard_darboux_levi(1), standard_darboux_levi(1)
        rep = product_routes_check(
            sasakian_product(L1, L2, PLAN), product_kahler_lift(L1, L2, PLAN), PLAN
        )
        assert rep.passed, rep.max_residual
