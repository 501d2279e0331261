"""Kernel endomorphisms: compatibility, normality, metric identities."""

import math
import re

import pytest

from sasaki_lab import numkernel as nk
from sasaki_lab import manifold
from sasaki_lab.contact import darboux_contact, kernel_frames
from sasaki_lab.corpus import build_example
from sasaki_lab.manifold import PointEnv, SamplePlan
from sasaki_lab.report import max_or_nan, run_residual_check
from sasaki_lab.sasaki import (
    LeviStructure,
    contact_metric_check,
    cr_torsion_field,
    frame_conjugations,
    killing_check,
    n_tensors,
    paired_consistency_check,
    phi_images,
    pin_battery,
    pin_flag_residuals,
    sasaki_check,
    square_target,
    standard_darboux_levi,
    theorem54_check,
)
from sasaki_lab.tensor import (
    TensorField,
    agreeing,
    compose,
    map_structure,
    max_abs,
    nondegeneracy_shortfall,
)

from pointwise import alone, point_envs

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
        assert map_structure(float, m) == expect

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

    def test_validate_fails_with_a_nan_witness_on_a_nan_entry(self, flat):
        """φ̄[2][2] = NaN puts NaN entries in g: a failure with a NaN
        witness, not a traceback from the eigenvalue solve."""

        def components(chart, env):
            out = [list(row) for row in flat.phibar.at(chart.name, env)]
            out[2][2] = math.nan
            return out

        bad = TensorField("nan_endo", flat.atlas, (1, 1), components)
        rep = LeviStructure("nan", flat.contact, bad).validate(PLAN)
        assert rep.verdict == "fail"
        assert math.isnan(rep.max_residual) and math.isnan(rep.witness.residual)


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
        for coords, env in point_envs(chart, PLAN):
            for name, T in tensors.items():
                assert max_abs(T.at(chart.name, env)) < 1e-11, name

    def test_z_shear_turns_on_normality_tensor(self):
        L = sheared_levi("z")
        N1 = n_tensors(L)["N1"]
        (chart,) = L.atlas.charts
        worst = max(
            max_abs(N1.at(chart.name, env)) for _, env in point_envs(chart, PLAN)
        )
        assert worst > 1e-1

    def test_x_shear_stays_normal_in_dim_three(self):
        # torsion is identically zero on a 2-dim kernel and the shear is
        # z-independent, so this is a non-flat Sasakian structure
        L = sheared_levi("x")
        N1 = n_tensors(L)["N1"]
        (chart,) = L.atlas.charts
        worst = max(
            max_abs(N1.at(chart.name, env)) for _, env in point_envs(chart, PLAN)
        )
        assert worst < 1e-11


class TestPinBattery:
    def test_flags_all_pass_on_flat(self, flat):
        res = pin_flag_residuals(
            flat.contact, flat.phibar, kernel_frames(flat.contact, PLAN), PLAN
        )
        assert max(res.values()) < 1e-10

    def test_flags_all_pass_on_sheared(self):
        L = sheared_levi("x")
        res = pin_flag_residuals(L.contact, L.phibar, kernel_frames(L.contact, PLAN), PLAN)
        assert max(res.values()) < 1e-9

    def test_conjugations_preserve_defining_identities(self, flat):
        """A = E·diag(1, M)·E⁻¹ fixes ξ and ker η, so each conjugate
        A φ̄ A⁻¹ kills ξ, is killed by η and squares to −id + ξ⊗η (its
        metric may fail to be positive), yet is not φ̄."""
        sphere = build_example("sphere-3").structure
        for L in (flat, sphere):
            C = L.contact
            cands = frame_conjugations(C, L.phibar, kernel_frames(C, PLAN), 4, seed=5)
            for cand in cands[1:]:
                identities = agreeing(
                    (compose(cand, C.reeb()), compose(L.phibar, C.reeb())),
                    (compose(C.eta, cand), compose(C.eta, L.phibar)),
                    (compose(cand, cand), square_target(C)),
                )
                held = run_residual_check("conjugate", C.atlas, identities, PLAN)
                assert held.max_residual < 1e-9, (L.name, cand.name)
                moved = agreeing((cand, L.phibar))
                rep = run_residual_check("moved", C.atlas, moved, PLAN)
                assert rep.max_residual > 1e-2

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

    def test_battery_in_dimension_five_sees_both_verdicts(self, flat2):
        """On a four-dimensional kernel a random conjugate of φ̄ is not
        symplectic, so all four flags fail together; φ̄ itself passes."""
        rep = pin_battery(flat2.contact, flat2.phibar, count=8, seed=3, plan=PLAN)
        assert rep.passed and rep.max_residual == 0.0
        assert rep.details["disagreements"] == 0
        assert rep.details["flag_rows"] == ["TTTT"] + ["FFFF"] * 7

    def test_battery_draws_each_chart_once(self, monkeypatch):
        L = build_example("sphere-5").structure
        draw, drawn = manifold.sample_chart, []
        monkeypatch.setattr(
            manifold, "sample_chart",
            lambda chart, plan: drawn.append(chart.name) or draw(chart, plan),
        )
        pin_battery(L.contact, L.phibar, count=3, seed=9,
                    plan=SamplePlan(seed=42, points_per_chart=2))
        assert sorted(drawn) == sorted(c.name for c in L.atlas.charts)

    @pytest.mark.parametrize("n, rows", [
        (1, ["TTTT"] * 50),
        (2, ["TTTT"] + ["FFFF"] * 49),
    ])
    def test_battery_builds_the_kernel_frames_once(self, n, rows, monkeypatch):
        """One `kernel_frames` call serves all 50 candidates and their
        flags; the details are those of a battery that built the frames
        afresh for every candidate."""
        from sasaki_lab import sasaki

        frames, calls = sasaki.kernel_frames, []
        monkeypatch.setattr(
            sasaki, "kernel_frames", lambda *a: calls.append(a) or frames(*a)
        )
        L = standard_darboux_levi(n)
        rep = pin_battery(L.contact, L.phibar, count=50, seed=42,
                          plan=SamplePlan(seed=42, points_per_chart=8))
        assert len(calls) == 1
        assert rep.details == {
            "candidates": 50,
            "flag_tol": 1e-08,
            "flag_rows": rows,
            "all_true": rows.count("TTTT"),
            "all_false": rows.count("FFFF"),
            "disagreements": 0,
        }

    def test_first_candidate_is_phibar(self):
        L = build_example("sphere-3").structure
        plan = SamplePlan(seed=42, points_per_chart=4)
        frames = kernel_frames(L.contact, plan)
        first = frame_conjugations(L.contact, L.phibar, frames, 3, seed=7)[0]
        for chart, points, _ in manifold.sample_points(L.atlas, plan):
            for coords in points:
                env = L.atlas.chart(chart).env(coords)
                assert first.at(chart, env) == L.phibar.at(chart, env)

    def test_disagreeing_flags_fail_with_their_candidate_as_witness(
        self, flat, monkeypatch
    ):
        from sasaki_lab import sasaki

        flags = sasaki.pin_flag_residuals

        def forced(C, phi, frames, plan):
            res = flags(C, phi, frames, plan)
            if phi.name == "conjugated_endo_1":
                res["kernel_closed"] = 1.0
            return res

        monkeypatch.setattr(sasaki, "pin_flag_residuals", forced)
        rep = pin_battery(flat.contact, flat.phibar, count=3, seed=9, plan=PLAN)
        assert rep.verdict == "fail"
        assert (rep.witness.chart, rep.witness.coords) == ("candidates", (1.0,))
        assert rep.witness.residual == rep.max_residual == 1.0
        assert rep.details["disagreements"] == 1
        assert rep.details["flag_rows"] == ["TTTT", "TTTF", "TTTT"]


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

    def test_nan_route_agreement_is_an_engine_fault(self, monkeypatch):
        """NaN frame torsions make the route agreement NaN, which must
        raise like any other disagreement instead of passing both gates."""
        import math

        from sasaki_lab import sasaki

        torsion = sasaki.cr_torsion_field
        monkeypatch.setattr(
            sasaki, "cr_torsion_field",
            lambda *a: sasaki.tf_scale(torsion(*a), math.nan),
        )
        with pytest.raises(AssertionError, match="routes disagree by nan"):
            sasaki_check(standard_darboux_levi(1), PLAN)

    def test_nan_extension_spot_check_is_an_engine_fault(self, monkeypatch):
        """NaN rescaled frames make only the spot check NaN."""
        import math

        from sasaki_lab import sasaki

        monkeypatch.setattr(
            sasaki, "extension_factor",
            lambda atlas: TensorField("u", atlas, (0, 0), lambda chart, env: math.nan),
        )
        with pytest.raises(AssertionError, match="extension by nan"):
            sasaki_check(standard_darboux_levi(1), PLAN)

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
        # each sphere chart keeps one dropped index for all its points; N1
        # must be contracted with the bracketed frame fields
        L = build_example("sphere-5").structure
        plan = SamplePlan(points_per_chart=2)
        frames = kernel_frames(L.contact, plan)
        cand = frame_conjugations(L.contact, L.phibar, frames, 2, seed=7)[1]
        rep = sasaki_check(LeviStructure("cand", L.contact, cand), plan)
        assert rep.verdict == "fail" and rep.witness is not None
        assert rep.details["route_full_tensor"] > 1e-3
        assert rep.details["route_frame_torsion"] > 1e-3
        assert rep.details["route_agreement"] < 1e-12

    def test_torsion_field_vanishes_on_flat(self, flat):
        C = flat.contact
        (chart,) = C.atlas.charts
        F = phi_images(flat.phibar, kernel_frames(C, PLAN))
        T = cr_torsion_field(flat.phibar, F[0], F[1])
        for coords, env in point_envs(chart, PLAN):
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

    def test_covariant_identity_solves_once_per_sample_group(self, monkeypatch):
        """The Christoffel symbols come from one solve at the chart's batch,
        not one per point: on `darboux-2` at 16 points the check solves
        twice, for them and for the Reeb field."""
        L = build_example("darboux-2").structure
        solve, calls = nk.solve_linear, []

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(nk, "solve_linear", counting)
        rep = theorem54_check(L, SamplePlan(seed=42, points_per_chart=16))
        assert rep.passed
        assert len(L.atlas.charts) == 1
        assert len(calls) == 2


class TestPairedConsistency:
    def test_single_chart_is_trivially_consistent(self, flat):
        rep = paired_consistency_check(flat, PLAN)
        assert rep.passed
        assert rep.max_residual == 0.0


def test_reduced_values_do_not_depend_on_row_order(monkeypatch):
    """A residual is a function of its row: visiting every group's rows in
    reverse leaves each reduced value as it was, to the last bit."""
    plan = SamplePlan(seed=42, points_per_chart=16)
    sphere = build_example("sphere-3").structure
    jet = build_example("mobius-jet").structure
    runs = {
        "sasaki": lambda: sasaki_check(sphere, plan),
        "pin_flags": lambda: pin_flag_residuals(
            sphere.contact, sphere.phibar, kernel_frames(sphere.contact, plan), plan
        ),
        "paired": lambda: paired_consistency_check(jet, plan),
    }

    def values(out):
        if isinstance(out, dict):  # pin_flag_residuals gives its details
            return {k: repr(v) for k, v in out.items()}
        return {"max_residual": repr(out.max_residual), **values(out.details)}

    forward = {name: values(run()) for name, run in runs.items()}
    sample_domain = manifold.sample_domain
    monkeypatch.setattr(manifold, "sample_domain", lambda domain, plan: [
        (label, where, points[::-1], PointEnv({c: v[::-1] for c, v in env.items()}))
        for label, where, points, env in sample_domain(domain, plan)
    ])
    assert {name: values(run()) for name, run in runs.items()} == forward


def test_sasaki_check_builds_one_phi_image_per_frame_field(monkeypatch):
    """`sasaki_check` composes φ̄ with each frame field once, for every
    chart and all the torsions that field enters, plus the spot check's
    two rescaled frames: on `sphere-5`, whose charts drop different
    indices, 4 + 2 images per check."""
    from sasaki_lab import tensor

    L = build_example("sphere-5").structure
    plan = SamplePlan(seed=42, points_per_chart=2)
    frames = kernel_frames(L.contact, plan)
    image = re.compile(rf"{re.escape(L.phibar.name)}\(frame[\d|]+(_rescaled)?\)")
    built = []
    init = tensor.TensorField.__init__

    def recording(self, name, *args, **kwargs):
        built.append(name)
        init(self, name, *args, **kwargs)

    monkeypatch.setattr(tensor.TensorField, "__init__", recording)
    sasaki_check(L, plan)
    images = [name for name in built if image.fullmatch(name)]
    charts = sorted(chart.name for chart in L.atlas.charts)
    assert [F.chart_names() for F in frames] == [charts] * 4
    assert len(images) == 4 + 2


# -- declared identities against the hand-indexed residuals they replaced --


def _hand_contact_metric(L):
    """η = g(ξ, ·), φ² = −id + ξ⊗η, dη = g(·, φ·), indexed by hand."""
    C = L.contact
    g = L.metric()
    phi = L.phi_gas()
    xi = C.reeb()
    d_eta = C.d_eta()

    def residual(chart, env):
        gm = g.at(chart, env)
        ph = phi.at(chart, env)
        xiv = xi.at(chart, env)
        etav = C.eta.at(chart, env)
        de = d_eta.at(chart, env)
        dim = len(etav)
        comps = []
        for i in range(dim):
            gi = nk.sum_(gm[i][j] * xiv[j] for j in range(dim))
            comps.append(nk.value_of(gi) - nk.value_of(etav[i]))
            for j in range(dim):
                sq = nk.sum_(ph[i][m] * ph[m][j] for m in range(dim))
                want = -(1.0 if i == j else 0.0) + xiv[i] * etav[j]
                comps.append(nk.value_of(sq) - nk.value_of(want))
                gphi = nk.sum_(gm[i][m] * ph[m][j] for m in range(dim))
                comps.append(nk.value_of(gphi) - nk.value_of(de[i][j]))
        return max_abs(comps)

    return residual


def _hand_validate(L):
    """φ̄ξ = 0, η∘φ̄ = 0, φ̄² = −id + ξ⊗η, g symmetric and positive."""
    C = L.contact
    xi = C.reeb()
    g = L.metric()

    def residual(chart, env):
        phim = L.phibar.at(chart, env)
        xiv = xi.at(chart, env)
        etav = C.eta.at(chart, env)
        dim = len(xiv)
        comps = []
        for k in range(dim):
            comps.append(nk.sum_(phim[k][j] * xiv[j] for j in range(dim)))
            comps.append(nk.sum_(etav[m] * phim[m][k] for m in range(dim)))
        for k in range(dim):
            for j in range(dim):
                sq = nk.sum_(phim[k][m] * phim[m][j] for m in range(dim))
                want = -(1.0 if k == j else 0.0) + xiv[k] * etav[j]
                comps.append(nk.value_of(sq) - nk.value_of(want))
        rows = [[nk.value_of(x) for x in row] for row in g.at(chart, env)]
        for i in range(dim):
            for j in range(i):
                comps.append(rows[i][j] - rows[j][i])
        lam = nk.min_eigenvalue(rows)
        return max_or_nan([max_abs(comps), nondegeneracy_shortfall(lam)])

    return residual


def shifted_entry(T: TensorField, k: int, j: int, eps: float = 0.01) -> TensorField:
    """T with its (k, j) component shifted by eps times the first coordinate."""

    def components(chart, env):
        out = [list(row) for row in T.at(chart.name, env)]
        out[k][j] = out[k][j] + eps * env[chart.coords[0]]
        return out

    return TensorField(f"shifted({T.name})", T.atlas, T.valence, components)


def same_report(a, b):
    return [repr(a.max_residual), repr(a.per_chart), repr(a.witness)] == [
        repr(b.max_residual), repr(b.per_chart), repr(b.witness)
    ]


@pytest.mark.parametrize("entry", [(1, 0), (0, 2)])
def test_declared_identities_repeat_the_hand_indexed_residuals(entry, monkeypatch):
    """On a perturbed sphere structure (residuals near 1e-2, not 1e-16),
    the declared checks reduce to the hand-indexed residuals' values, to
    the last bit, chart by chart and at the same witness."""
    L = build_example("sphere-3").structure
    bent = LeviStructure("bent", L.contact, shifted_entry(L.phibar, *entry))
    plan = SamplePlan(seed=5, points_per_chart=8, tolerance=1e-8)
    for check, hand in (
        (contact_metric_check, _hand_contact_metric),
        (LeviStructure.validate, _hand_validate),
    ):
        declared = check(bent, plan)
        with monkeypatch.context() as m:
            alone(m)
            by_hand = run_residual_check("by_hand", bent.atlas, hand(bent), plan)
        assert 1e-3 < declared.max_residual < 1e-1
        assert declared.verdict == "fail"
        assert same_report(declared, by_hand)
