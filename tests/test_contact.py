"""Contact layer: Reeb solves, nondegeneracy, kernel frames."""

import math
from dataclasses import replace

import pytest

from sasaki_lab import numkernel as nk
from sasaki_lab import tensor as tn
from sasaki_lab.contact import (
    ContactStructure,
    darboux_contact,
    is_contact_form,
    kernel_frames,
    reeb_residual_check,
    top_coefficient,
)
from sasaki_lab.manifold import Atlas, Chart, SamplePlan
from sasaki_lab.tensor import TensorField

PLAN = SamplePlan(points_per_chart=16)


class TestDarboux:
    def test_eta_components(self):
        C = darboux_contact(1)
        eta = C.eta.at("O", {"x": 0.2, "p": 0.5, "z": 0.0})
        assert tn.map_structure(float, eta) == [-0.5, 0.0, 1.0]

    def test_n2_coordinates(self):
        C = darboux_contact(2)
        assert C.atlas.charts[0].coords == ("x1", "p1", "x2", "p2", "z")
        env = {"x1": 0.1, "p1": 0.3, "x2": 0.2, "p2": -0.4, "z": 0.0}
        assert tn.map_structure(float, C.eta.at("O", env)) == [-0.3, 0.0, 0.4, 0.0, 1.0]

    def test_reeb_is_dz(self):
        C = darboux_contact(1)
        xi = C.reeb().at("O", {"x": 0.2, "p": 0.5, "z": -0.1})
        assert xi == pytest.approx([0.0, 0.0, 1.0])

    def test_reeb_n2(self):
        C = darboux_contact(2)
        env = {"x1": 0.1, "p1": 0.3, "x2": 0.2, "p2": -0.4, "z": 0.0}
        assert C.reeb().at("O", env) == pytest.approx([0, 0, 0, 0, 1.0])

    def test_reeb_residuals(self):
        for n in (1, 2):
            rep = reeb_residual_check(darboux_contact(n), PLAN)
            assert rep.passed and rep.max_residual < 1e-12

    def test_top_coefficient_is_one(self):
        C = darboux_contact(1)
        c = top_coefficient(C).at("O", {"x": 0.2, "p": 0.5, "z": 0.0})
        assert c == pytest.approx(1.0)
        rep = is_contact_form(C, PLAN)
        assert rep.passed
        assert rep.details["min_coefficient"] == pytest.approx(1.0)

    def test_top_coefficient_n2(self):
        C = darboux_contact(2)
        env = {"x1": 0.1, "p1": 0.3, "x2": 0.2, "p2": -0.4, "z": 0.0}
        assert top_coefficient(C).at("O", env) == pytest.approx(2.0)


def test_rescaled_form_rescales_reeb():
    """η' = 2η has Reeb ξ/2 — the solve must renormalize by itself."""
    base = darboux_contact(1)
    eta2 = TensorField.from_exprs(
        "eta2", base.atlas, (0, 1), {"O": {(0,): "-2*p", (2,): "2"}}
    )
    C = ContactStructure("scaled", base.atlas, eta2)
    xi = C.reeb().at("O", {"x": 0.3, "p": -0.2, "z": 0.1})
    assert xi == pytest.approx([0.0, 0.0, 0.5])
    assert reeb_residual_check(C, PLAN).passed


def test_degenerate_form_fails_contact_check():
    """η = dz − d(px) is exact up to dz… its dη = −d(p x) term kills η∧dη."""
    atlas = Atlas([Chart("O", ("x", "p", "z"), ((-1.0, 1.0),) * 3)])
    eta = TensorField.from_exprs(
        "closed", atlas, (0, 1), {"O": {(0,): "-p", (1,): "-x", (2,): "1"}}
    )
    C = ContactStructure("degenerate", atlas, eta)
    rep = is_contact_form(C, PLAN)
    assert rep.verdict == "fail"
    assert rep.witness is not None
    assert rep.details["min_coefficient"] < 1e-10


def test_infinite_coefficient_fails_contact_check():
    """η = −p dx + 1e400 dz: an inf entry of B makes its determinant NaN,
    so the form fails with a witness instead of passing at an inf
    coefficient."""
    atlas = Atlas([Chart("O", ("x", "p", "z"), ((-1.0, 1.0),) * 3)])
    eta = TensorField.from_exprs("huge", atlas, (0, 1), {"O": {(0,): "-p", (2,): "1e400"}})
    rep = is_contact_form(ContactStructure("huge", atlas, eta), SamplePlan(points_per_chart=8))
    assert rep.verdict == "fail" and math.isnan(rep.max_residual)
    assert math.isnan(rep.witness.residual)
    assert math.isnan(rep.details["min_coefficient"])


def test_degenerate_form_reeb_solve_raises():
    atlas = Atlas([Chart("O", ("x", "p", "z"), ((-1.0, 1.0),) * 3)])
    eta = TensorField.from_exprs(
        "closed", atlas, (0, 1), {"O": {(0,): "-p", (1,): "-x", (2,): "1"}}
    )
    C = ContactStructure("degenerate", atlas, eta)
    with pytest.raises(nk.SingularMatrix):
        C.reeb().at("O", {"x": 0.5, "p": 0.5, "z": 0.0})


def _steep_contact():
    """η = dz − p dx on a chart where every point has |p| > 1."""
    atlas = Atlas([Chart("O", ("x", "p", "z"), ((-3.0, 3.0), (1.5, 2.5), (-3.0, 3.0)))])
    eta = TensorField.from_exprs("eta", atlas, (0, 1), {"O": {(0,): "-p", (2,): "1"}})
    return ContactStructure("steep", atlas, eta)


class TestFrames:
    def test_darboux_frame_at_point(self):
        C = darboux_contact(1)
        flds = kernel_frames(C, PLAN)
        assert [F.name for F in flds] == ["frame0", "frame1"]  # z is dropped
        env = {"x": 0.2, "p": 0.5, "z": 0.0}
        assert flds[0].at("O", env) == pytest.approx([1.0, 0.0, 0.5])  # ∂x + p∂z
        assert flds[1].at("O", env) == pytest.approx([0.0, 1.0, 0.0])  # ∂p

    def test_frame_fields_track_eta(self):
        C = darboux_contact(1)
        flds = kernel_frames(C, PLAN)  # |η_z| = 1 > |p|: z is dropped
        env = {"x": -0.4, "p": 0.8, "z": 0.3}
        vals = [f.at("O", env) for f in flds]
        assert vals[0] == pytest.approx([1.0, 0.0, 0.8])
        assert vals[1] == pytest.approx([0.0, 1.0, 0.0])
        ev = C.eta.at("O", env)
        for v in vals:
            assert abs(tn.contract_form_vector(ev, v)) < 1e-15

    def test_kernel_frames_read_the_plan_sample_set(self):
        """Under a sample set the frame is read at the first point of the
        group the driver reduces, at an env of that point alone: the
        group's batch env evaluates nothing."""
        C = darboux_contact(1)
        shared = tn.SampleSet(())
        plan = replace(PLAN, sample_set=shared)
        kernel_frames(C, plan)
        (batch,) = shared.envs()
        assert not batch.memo
        (points, again), = [shared.points(c, plan) for c in C.atlas.charts]
        assert again is batch and len(points) == PLAN.points_per_chart

    def test_frame_degenerates_past_unit_slope(self):
        """On η = dz − p dx with |p| > 1 the frame drops x, and its z-vector
        e_z − η_z ξ is exactly 0: the frame does not span."""
        flds = kernel_frames(_steep_contact(), PLAN)
        env = {"x": 0.3, "p": 2.0, "z": 0.1}
        vals = [list(F.at("O", env)) for F in flds]
        assert vals == [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]

    def test_drop_index_follows_largest_entry(self):
        """With |p| > 1 at the chart's first sample, η_x = −p dominates and
        x gets dropped instead."""
        flds = kernel_frames(_steep_contact(), PLAN)
        assert [F.name for F in flds] == ["frame1", "frame2"]

    @pytest.mark.parametrize("key, seed", [("sphere-5", 42), ("mobius-jet", 2718)])
    def test_frame_fields_hold_each_charts_own_kept_indices(self, key, seed):
        """On every sampled chart, the k-th field is e_a − η_a·ξ at the
        chart's batch, by `repr`, for a the k-th index the chart keeps: all
        but the largest |η_k| at its first sample.  The charts of both
        examples drop different indices."""
        from sasaki_lab.corpus import build_example
        from sasaki_lab.manifold import sample_points

        C = build_example(key).structure.contact
        plan = SamplePlan(seed=seed)
        frames = kernel_frames(C, plan)
        dropped = {}
        for name, points, env in sample_points(C.atlas, plan):
            first = [abs(float(v)) for v in C.eta.at(name, C.atlas.chart(name).env(points[0]))]
            dropped[name] = first.index(max(first))
            kept = [a for a in range(C.dim) if a != dropped[name]]
            eta, xi = C.eta.at(name, env), C.reeb().at(name, env)
            for F, a in zip(frames, kept, strict=True):
                want = [(1.0 if j == a else 0.0) - eta[a] * x for j, x in enumerate(xi)]
                assert repr([v.tolist() for v in F.at(name, env)]) == repr(
                    [v.tolist() for v in want])
        assert len(frames) == C.dim - 1 and len(set(dropped.values())) == len(dropped) > 1

    def test_contact_exports_no_pointwise_frame(self):
        """`kernel_frames` is the only kernel frame."""
        from sasaki_lab import contact

        assert not hasattr(contact, "contact_frame")
        assert not hasattr(contact, "KernelFrame")


def test_reeb_field_is_differentiable():
    """Jet of the Reeb field of a p-dependent rescaling, vs FD."""
    base = darboux_contact(1)
    eta = TensorField.from_exprs(
        "eta", base.atlas, (0, 1), {"O": {(0,): "-p*(2 + x)", (2,): "2 + x"}}
    )
    C = ContactStructure("var", base.atlas, eta)
    xi = C.reeb()
    env = {"x": 0.3, "p": -0.2, "z": 0.1}
    vals, parts = tn.field_jet(xi, "O", env)
    h = 1e-6
    for i, c in enumerate(("x", "p", "z")):
        up, dn = dict(env), dict(env)
        up[c] += h
        dn[c] -= h
        fd = [
            (a - b) / (2 * h) for a, b in zip(xi.at("O", up), xi.at("O", dn))
        ]
        for got, want in zip(parts[i], fd):
            assert abs(got - want) < 1e-7
