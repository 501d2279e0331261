"""Kernel endomorphisms: compatibility, normality, metric identities."""

import itertools
from dataclasses import replace

import pytest

from sasaki_lab import numkernel as nk
from sasaki_lab.contact import contact_frame, darboux_contact, frame_fields
from sasaki_lab.corpus import build_example
from sasaki_lab.manifold import SamplePlan, sample_chart
from sasaki_lab.sasaki import (
    LeviStructure,
    contact_metric_check,
    cr_torsion_field,
    frame_conjugations,
    killing_check,
    levi_form,
    n_tensors,
    paired_consistency_check,
    pin_battery,
    pin_flag_residuals,
    sasaki_check,
    standard_darboux_levi,
    theorem54_check,
)
from sasaki_lab.tensor import TensorField, max_abs

PLAN = SamplePlan(seed=7, points_per_chart=6, tolerance=1e-8)


@pytest.fixture(scope="module")
def flat():
    return standard_darboux_levi(1)


@pytest.fixture(scope="module")
def flat2():
    return standard_darboux_levi(2)


def sheared_levi(c_expr: str) -> LeviStructure:
    """Compatible but generally non-normal: shear the frame by c.

    In the adapted frame (F₁, F₂) the endomorphism matrix becomes
    [[c, −1−c²], [1, −c]]; its transverse form [[1, −c], [−c, 1+c²]] is
    symmetric with determinant one, so every pointwise check passes.
    On ℝ³ the frame torsion vanishes identically (two-dimensional
    kernel), so only z-dependent shears break normality, through the
    Reeb-flow tensor.
    """
    C = darboux_contact(1)
    (chart,) = C.atlas.charts
    c = f"({c_expr})"
    table = {
        (0, 0): c,
        (1, 0): "1",
        (2, 0): f"{c} * p",
        (0, 1): f"-(1 + {c}^2)",
        (1, 1): f"-{c}",
        (2, 1): f"-(1 + {c}^2) * p",
    }
    phibar = TensorField.from_exprs("sheared_endo", C.atlas, (1, 1), {chart.name: table})
    return LeviStructure(f"sheared({c_expr})", C, phibar)


def cross_sheared_levi5() -> LeviStructure:
    """Five-dimensional shear with c = x2: a genuine torsion witness.

    Shearing the first block by a function of the *second* block's base
    coordinate makes the holomorphic distribution non-involutive, so the
    frame-torsion route fails for an honestly CR-geometric reason, not
    just through the Reeb flow (the components are z-independent).
    """
    C = darboux_contact(2)
    (chart,) = C.atlas.charts
    c = "(x2)"
    # coords (x1, p1, x2, p2, z); block one sheared, block two standard
    table = {
        (0, 0): c,
        (1, 0): "1",
        (4, 0): f"{c} * p1",
        (0, 1): f"-(1 + {c}^2)",
        (1, 1): f"-{c}",
        (4, 1): f"-(1 + {c}^2) * p1",
        (3, 2): "1",
        (2, 3): "-1",
        (4, 3): "-p2",
    }
    phibar = TensorField.from_exprs(
        "cross_sheared_endo", C.atlas, (1, 1), {chart.name: table}
    )
    return LeviStructure("cross-sheared-5", C, phibar)


class TestFlatStructure:
    def test_endo_matrix(self, flat):
        env = {"x": 0.2, "p": 0.6, "z": -0.1}
        m = flat.phibar.at("O", env)
        expect = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, -0.6, 0.0]]
        assert m == expect

    def test_levi_metric_is_flat_plane(self, flat):
        env = {"x": 0.2, "p": 0.6, "z": -0.1}
        got = [[nk.value_of(v) for v in row] for row in flat.levi_metric().at("O", env)]
        expect = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
        for grow, erow in zip(got, expect):
            assert grow == pytest.approx(erow, abs=1e-14)

    def test_metric_matches_hand_matrix(self, flat):
        p = 0.6
        env = {"x": 0.2, "p": p, "z": -0.1}
        got = [[nk.value_of(v) for v in row] for row in flat.metric().at("O", env)]
        expect = [
            [p * p + 1.0, 0.0, -p],
            [0.0, 1.0, 0.0],
            [-p, 0.0, 1.0],
        ]
        for grow, erow in zip(got, expect):
            assert grow == pytest.approx(erow, abs=1e-14)

    def test_validate_passes(self, flat, flat2):
        assert flat.validate(PLAN).passed
        assert flat2.validate(PLAN).passed

    def test_validate_rejects_broken_endo(self):
        C = darboux_contact(1)
        bad = TensorField.from_exprs(
            "broken", C.atlas, (1, 1), {"O": {(0, 2): "1", (1, 0): "1", (0, 1): "-1"}}
        )
        rep = LeviStructure("broken", C, bad).validate(PLAN)
        assert not rep.passed
        assert rep.witness is not None


class TestContactMetric:
    def test_flat_identities(self, flat, flat2):
        assert contact_metric_check(flat, PLAN).max_residual < 1e-12
        assert contact_metric_check(flat2, PLAN).max_residual < 1e-12

    def test_sheared_is_still_contact_metric(self):
        # compatibility is pointwise; the shear only breaks normality
        L = sheared_levi("x")
        assert contact_metric_check(L, PLAN).passed


class TestStructureTensors:
    def test_all_vanish_on_flat_model(self, flat):
        tensors = n_tensors(flat)
        (chart,) = flat.atlas.charts
        for coords, env in sample_chart(chart, PLAN):
            for name, T in tensors.items():
                assert max_abs(T.at(chart.name, env)) < 1e-11, name

    def test_z_shear_turns_on_normality_tensor(self):
        L = sheared_levi("z")
        N1 = n_tensors(L)["N1"]
        (chart,) = L.atlas.charts
        worst = max(
            max_abs(N1.at(chart.name, env)) for _, env in sample_chart(chart, PLAN)
        )
        assert worst > 1e-1

    def test_x_shear_stays_normal_in_dim_three(self):
        # torsion is identically zero on a 2-dim kernel and the shear is
        # z-independent, so this is a non-flat Sasakian structure
        L = sheared_levi("x")
        N1 = n_tensors(L)["N1"]
        (chart,) = L.atlas.charts
        worst = max(
            max_abs(N1.at(chart.name, env)) for _, env in sample_chart(chart, PLAN)
        )
        assert worst < 1e-11


class TestPinBattery:
    def test_flags_all_pass_on_flat(self, flat):
        res = pin_flag_residuals(flat.contact, flat.phibar, PLAN)
        assert max(res.values()) < 1e-10

    def test_flags_all_pass_on_sheared(self):
        L = sheared_levi("x")
        res = pin_flag_residuals(L.contact, L.phibar, PLAN)
        assert max(res.values()) < 1e-9

    def test_conjugations_preserve_defining_identities(self, flat):
        cands = frame_conjugations(flat.contact, flat.phibar, 4, seed=5)
        for cand in cands:
            rep = LeviStructure("cand", flat.contact, cand).validate(
                replace(PLAN, tolerance=1e-6)
            )
            # square and kernel identities hold; positivity may fail,
            # so only inspect the report when it failed for positivity
            if not rep.passed:
                assert rep.max_residual < 1e12

    def test_battery_agreement_small(self, flat):
        rep = pin_battery(flat.contact, flat.phibar, count=8, seed=3, plan=PLAN)
        assert rep.passed
        assert rep.max_residual == 0.0
        assert rep.samples == 8  # one row per candidate
        assert rep.details["all_true"] >= 1
        assert rep.details["all_true"] + rep.details["all_false"] == 8

    def test_battery_rows_have_four_flags(self, flat):
        rep = pin_battery(flat.contact, flat.phibar, count=3, seed=9, plan=PLAN)
        assert all(len(row) == 4 for row in rep.details["flag_rows"])


class TestSasakiCheck:
    def test_flat_model_is_normal(self, flat):
        rep = sasaki_check(flat, PLAN)
        assert rep.passed
        assert rep.max_residual < 1e-10
        assert rep.details["route_agreement"] < 1e-11
        assert rep.details["extension_spot_check"] < 1e-10

    def test_flat_model_dim5(self, flat2):
        rep = sasaki_check(flat2, PLAN)
        assert rep.passed
        assert rep.max_residual < 1e-10

    def test_z_shear_fails_both_routes(self):
        rep = sasaki_check(sheared_levi("z"), PLAN)
        assert not rep.passed
        assert rep.max_residual > 1e-3
        assert rep.details["route_full_tensor"] > 1e-3
        assert rep.details["route_frame_torsion"] > 1e-3
        assert rep.witness is not None

    def test_x_shear_passes_in_dim_three(self):
        rep = sasaki_check(sheared_levi("x"), PLAN)
        assert rep.passed
        assert rep.max_residual < 1e-10

    def test_cross_shear_fails_through_torsion(self):
        # z-independent, so the Reeb-flow tensor is silent; the failure
        # comes from honest frame brackets in dimension five
        L = cross_sheared_levi5()
        assert L.validate(PLAN).passed
        rep = sasaki_check(L, PLAN)
        assert not rep.passed
        assert rep.details["route_frame_torsion"] > 1e-3
        assert rep.details["route_full_tensor"] > 1e-3

    def test_routes_agree_on_a_non_normal_candidate(self):
        # the frame changes its dropped index from point to point on the
        # sphere; N1 must be contracted with the bracketed frame fields
        L = build_example("sphere-5").structure
        cand = frame_conjugations(L.contact, L.phibar, 2, seed=7)[1]
        rep = sasaki_check(
            LeviStructure("cand", L.contact, cand), SamplePlan(points_per_chart=2)
        )
        assert rep.verdict == "fail" and rep.witness is not None
        assert rep.details["route_full_tensor"] > 1e-3
        assert rep.details["route_frame_torsion"] > 1e-3
        assert rep.details["route_agreement"] < 1e-12

    def test_torsion_field_vanishes_on_flat(self, flat):
        C = flat.contact
        (chart,) = C.atlas.charts
        pts = sample_chart(chart, PLAN)
        kept = contact_frame(C, chart.name, pts[0][1]).kept
        F = frame_fields(C, chart.name, kept)
        T = cr_torsion_field(C, flat.phibar, F[0], F[1])
        for coords, env in pts:
            assert max_abs(T.at(chart.name, env)) < 1e-11


class TestMetricCharacterizations:
    def test_reeb_is_killing_for_flat(self, flat):
        rep = killing_check(flat, PLAN)
        assert rep.passed
        assert rep.max_residual < 1e-11

    def test_z_dependent_shear_breaks_killing(self):
        rep = killing_check(sheared_levi("z"), PLAN)
        assert not rep.passed
        assert rep.max_residual > 1e-2

    def test_covariant_identity_on_flat(self, flat, flat2):
        assert theorem54_check(flat, PLAN).max_residual < 1e-9
        assert theorem54_check(flat2, PLAN).max_residual < 1e-9

    def test_covariant_identity_on_nonflat_normal_structure(self):
        # x-sheared dim-3 structure is Sasakian, so the identity holds
        rep = theorem54_check(sheared_levi("x"), PLAN)
        assert rep.passed

    def test_covariant_identity_fails_on_z_shear(self):
        rep = theorem54_check(sheared_levi("z"), PLAN)
        assert not rep.passed
        assert rep.max_residual > 1e-3


class TestPairedConsistency:
    def test_single_chart_is_trivially_consistent(self, flat):
        rep = paired_consistency_check(flat, PLAN)
        assert rep.passed
        assert rep.max_residual == 0.0
