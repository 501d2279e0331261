"""Chart/atlas plumbing: deterministic sampling, margins, transitions."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sasaki_lab import exprlang as el
from sasaki_lab import manifold
from sasaki_lab.manifold import (
    Atlas,
    Chart,
    EmptyDomain,
    NoTransition,
    OutOfDomain,
    Point,
    SamplePlan,
    TransitionMap,
    TransitionPiece,
    Overlaps,
    append_coordinate,
    apply_transition,
    atlas_consistency_check,
    sample_chart,
    sample_points,
)

from pointwise import alone, report_bytes


def _draw_one(rng, intervals):
    """The per-value draw the sampler replaced, kept as its reference."""
    lengths = [b - a for a, b in intervals]
    u = rng.uniform(0.0, sum(lengths))
    for (a, b), ln in zip(intervals, lengths):
        if u <= ln:
            return a + u
        u -= ln
    return intervals[-1][1]


def circle_atlas() -> Atlas:
    """Two arcs of S¹ with x-coordinate overlap pieces, one shifted by 1."""
    a = Chart("A", ("x",), ((0.0, 1.0),))
    b = Chart("B", ("x",), ((0.5, 1.5),))
    fwd_id = (el.parse("x"),)
    fwd_up = (el.parse("x + 1"),)
    fwd_dn = (el.parse("x - 1"),)
    t_ab = TransitionMap(
        "A",
        "B",
        (
            TransitionPiece(((0.5, 1.0),), fwd_id, fwd_id),
            TransitionPiece(((0.0, 0.5),), fwd_up, fwd_dn),
        ),
    )
    t_ba = TransitionMap(
        "B",
        "A",
        (
            TransitionPiece(((0.5, 1.0),), fwd_id, fwd_id),
            TransitionPiece(((1.0, 1.5),), fwd_dn, fwd_up),
        ),
    )
    return Atlas([a, b], [t_ab, t_ba])


class TestChart:
    def test_validation(self):
        with pytest.raises(ValueError):
            Chart("bad", ("x",), ((1.0, 0.0),))
        with pytest.raises(ValueError):
            Chart("bad", ("x", "x"), ((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(ValueError):
            Chart("bad", ("x",), ((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(ValueError):
            Chart("bad", ("x",), ((0.0, 1.0),), excluded=(("y", 0.0, 0.1),))

    def test_sample_intervals_cut_bands(self):
        c = Chart(
            "s", ("s",), ((-2.0, 2.0),), excluded=(("s", -0.25, 0.25),), margin=0.05
        )
        ivs = c.sample_intervals("s")
        assert ivs == [(-1.95, -0.3), (0.3, 1.95)]

    def test_empty_domain(self):
        c = Chart("t", ("t",), ((0.0, 0.08),))  # margin eats everything
        with pytest.raises(EmptyDomain):
            c.sample_intervals("t")


class TestSampling:
    def test_deterministic_and_chart_keyed(self):
        c1 = Chart("O", ("x", "p"), ((-1.0, 1.0), (-1.0, 1.0)))
        plan = SamplePlan(seed=42, points_per_chart=16)
        a = sample_chart(c1, plan)
        b = sample_chart(c1, plan)
        assert a == b
        other = Chart("U", ("x", "p"), ((-1.0, 1.0), (-1.0, 1.0)))
        c = sample_chart(other, plan)
        assert a != c

    def test_margins_and_exclusions_respected(self):
        c = Chart(
            "s",
            ("x", "s"),
            ((-1.0, 1.0), (-2.0, 2.0)),
            excluded=(("s", -0.25, 0.25),),
        )
        for x, s in sample_chart(c, SamplePlan(points_per_chart=200)):
            assert -0.95 <= x <= 0.95
            assert 0.3 <= abs(s) <= 1.95

    def test_sample_points_covers_all_charts(self):
        atlas = circle_atlas()
        out = sample_points(atlas, SamplePlan(points_per_chart=8))
        assert [name for name, _, _ in out] == ["A", "B"]
        assert all(len(points) == 8 for _, points, _ in out)

    def test_draws_match_the_per_value_loop(self):
        """One ``rng.random`` call per group draws, bit for bit, what one
        ``rng.uniform(0, total)`` per coordinate and point did, laid along
        the intervals in turn, and leaves the stream at the same place."""
        c = Chart(
            "s",
            ("x", "s", "t"),
            ((-1.0, 1.0), (-2.0, 2.0), (0.0, 3.0)),
            excluded=(("s", -0.25, 0.25), ("t", 1.0, 1.2), ("t", 2.0, 2.1)),
        )
        intervals = [c.sample_intervals(k) for k in c.coords]
        assert [len(iv) for iv in intervals] == [1, 2, 3]
        fast, slow = manifold._chart_rng(7, "s"), manifold._chart_rng(7, "s")
        got = manifold._draw_points(fast, intervals, 500)
        want = [tuple(_draw_one(slow, iv) for iv in intervals) for _ in range(500)]
        assert repr(got) == repr(want)
        assert all(type(v) is float for pt in got for v in pt)
        assert fast.random() == slow.random()

    def test_a_chart_group_shares_one_batch_env(self):
        """A chart's sample group is its points and one batch env, whose
        coordinates are the points' columns; no point has an env."""
        c = Chart("O", ("x", "p"), ((-1.0, 1.0), (-1.0, 1.0)))
        plan = SamplePlan(seed=3, points_per_chart=5)
        (name, points, batch), = sample_points(Atlas([c]), plan)
        assert name == "O" and points == sample_chart(c, plan)
        assert all(type(v) is float for coords in points for v in coords)
        assert list(batch) == list(c.coords) and not batch.memo
        for k, coord in enumerate(c.coords):
            assert batch[coord].dtype == np.float64
            assert batch[coord].tolist() == [coords[k] for coords in points]

    def test_seed_changes_stream(self):
        c = Chart("O", ("x",), ((-1.0, 1.0),))
        a = sample_chart(c, SamplePlan(seed=1, points_per_chart=4))
        b = sample_chart(c, SamplePlan(seed=2, points_per_chart=4))
        assert a != b


class TestTransitions:
    def test_same_chart_is_identity(self):
        atlas = circle_atlas()
        p = Point("A", (0.3,))
        assert apply_transition(atlas, p, "A") is p

    def test_piece_selection(self):
        atlas = circle_atlas()
        assert apply_transition(atlas, Point("A", (0.7,)), "B") == Point("B", (0.7,))
        assert apply_transition(atlas, Point("A", (0.2,)), "B") == Point("B", (1.2,))

    def test_round_trip(self):
        atlas = circle_atlas()
        p = Point("A", (0.2,))
        q = apply_transition(atlas, p, "B")
        back = apply_transition(atlas, q, "A")
        assert back.coords == pytest.approx(p.coords)

    def test_missing_transition(self):
        atlas = Atlas([Chart("A", ("x",), ((0.0, 1.0),))])
        with pytest.raises(NoTransition):
            apply_transition(atlas, Point("A", (0.5,)), "Z")

    def test_a_batch_takes_each_point_through_its_piece(self):
        """At a batch the points of the two pieces are carried group by
        group and merged: each gets its own coords, bit for bit; a batch
        with a point off the box raises."""
        atlas = circle_atlas()
        xs = [0.07, 0.62, 0.31, 0.98, 0.5]
        (got,) = apply_transition(atlas, Point("A", (np.array(xs),)), "B").coords
        assert type(got) is np.ndarray
        want = [apply_transition(atlas, Point("A", (x,)), "B").coords[0] for x in xs]
        assert list(map(repr, got.tolist())) == list(map(repr, want))
        with pytest.raises(OutOfDomain):
            apply_transition(atlas, Point("A", (np.array(xs + [7.0]),)), "B")

    def test_out_of_domain(self):
        atlas = circle_atlas()
        with pytest.raises(OutOfDomain):
            apply_transition(atlas, Point("A", (7.0,)), "B")

    @pytest.mark.parametrize("batch", [False, True])
    def test_a_nan_image_lies_outside_the_target_box(self, batch):
        """A piece whose forward expression is NaN everywhere carries a
        point inside both boxes to NaN, which lies in no box: the target's
        box test raises, as a piece's own does, at a point and at a batch."""
        nan = (el.parse("(1e400 - 1e400) * x"),)
        piece = TransitionPiece(((0.0, 1.0),), nan, (el.parse("x"),))
        atlas = Atlas(
            [Chart("A", ("x",), ((0.0, 1.0),)), Chart("B", ("x",), ((0.0, 1.0),))],
            [TransitionMap("A", "B", (piece,))],
        )
        x = np.array([0.5, 0.25]) if batch else 0.5
        assert atlas.chart("A").contains((x,))
        assert not atlas.chart("B").contains((x * math.nan,))
        with pytest.raises(OutOfDomain):
            apply_transition(atlas, Point("A", (x,)), "B")


class TestAppendCoordinate:
    def test_appends_last_to_charts_and_signed_pieces(self):
        base = circle_atlas()
        a, b = base.charts
        a = replace(a, excluded=(("x", 0.4, 0.45),), margin=0.02)
        base = Atlas([a, b], base.transitions)
        flipped = base.transition("A", "B").pieces[1]  # the shift by 1

        def sign(t, piece):
            return -1.0 if piece is flipped else 1.0

        ext = append_coordinate(base, "s", (-2.0, 2.0), band=(-0.5, 0.5), sign=sign)
        for old, new in zip(base.charts, ext.charts, strict=True):
            assert new.name == old.name
            assert new.coords == old.coords + ("s",)
            assert new.box == old.box + ((-2.0, 2.0),)
            assert new.excluded == old.excluded + (("s", -0.5, 0.5),)
            assert new.margin == old.margin
        for old, new in zip(base.transitions, ext.transitions, strict=True):
            assert (new.source, new.target) == (old.source, old.target)
            for piece, got in zip(old.pieces, new.pieces, strict=True):
                assert got.box[:-1] == piece.box and got.box[-1] == (-2.0, 2.0)
                assert got.forward[:-1] == piece.forward
                assert got.inverse[:-1] == piece.inverse
                want = -1.5 if piece is flipped else 1.5
                for e in (got.forward[-1], got.inverse[-1]):
                    assert el.eval_expr(e, {"s": 1.5}) == want
        moved = apply_transition(ext, Point("A", (0.2, 1.5)), "B")
        assert moved == Point("B", (1.2, -1.5))

    def test_without_sign_or_band_the_coordinate_is_fixed(self):
        ext = append_coordinate(circle_atlas(), "t", (0.5, 2.0))
        assert all(c.excluded == () for c in ext.charts)
        for t in ext.transitions:
            for piece in t.pieces:
                assert el.eval_expr(piece.forward[-1], {"t": 0.7}) == 0.7
                assert el.eval_expr(piece.inverse[-1], {"t": 0.7}) == 0.7


class TestConsistencyCheck:
    def test_good_atlas_passes(self):
        rep = atlas_consistency_check(circle_atlas(), SamplePlan(points_per_chart=16))
        assert rep.verdict == "pass"
        assert rep.witness is None
        assert rep.max_residual < 1e-12
        assert set(rep.per_chart) == {"A->B", "B->A"}

    def test_broken_inverse_fails_with_witness(self):
        a = Chart("A", ("x",), ((0.0, 1.0),))
        b = Chart("B", ("x",), ((0.0, 1.0),))
        t = TransitionMap(
            "A",
            "B",
            (
                TransitionPiece(
                    ((0.0, 1.0),), (el.parse("x"),), (el.parse("x + 0.001"),)
                ),
            ),
        )
        rep = atlas_consistency_check(
            Atlas([a, b], [t]), SamplePlan(points_per_chart=8)
        )
        assert rep.verdict == "fail"
        assert rep.witness is not None
        assert rep.witness.chart == "A->B"
        assert rep.max_residual == pytest.approx(0.001)

    def test_nan_inverse_fails_with_witness_on_its_transition(self):
        # exprlang reads 1e400 as inf, so this inverse evaluates to NaN
        a = Chart("A", ("x",), ((0.0, 1.0),))
        b = Chart("B", ("x",), ((0.0, 1.0),))
        ident = (el.parse("x"),)
        nan_inverse = (el.parse("(1e400 - 1e400) * x"),)
        good = TransitionMap("B", "A", (TransitionPiece(((0.0, 1.0),), ident, ident),))
        bad = TransitionMap(
            "A", "B", (TransitionPiece(((0.0, 1.0),), ident, nan_inverse),)
        )
        rep = atlas_consistency_check(
            Atlas([a, b], [good, bad]), SamplePlan(points_per_chart=8)
        )
        assert rep.verdict == "fail"
        assert math.isnan(rep.max_residual) and math.isnan(rep.per_chart["A->B"])
        assert rep.per_chart["B->A"] == 0.0
        assert rep.witness.chart == "A->B" and math.isnan(rep.witness.residual)


def _straddling_atlas(back_upper: str = "x + 1e-6 * x") -> Atlas:
    """Charts A and B over ]0, 2[: A->B is the identity on one piece, and
    the way back, B->A, has two pieces, the identity over ]0, 1[ and
    `back_upper` over ]1, 2[ (off by 1e-6·x by default)."""
    a = Chart("A", ("x",), ((0.0, 2.0),))
    b = Chart("B", ("x",), ((0.0, 2.0),))
    ident = (el.parse("x"),)
    t_ab = TransitionMap("A", "B", (TransitionPiece(((0.0, 2.0),), ident, ident),))
    t_ba = TransitionMap("B", "A", (
        TransitionPiece(((0.0, 1.0),), ident, ident),
        TransitionPiece(((1.0, 2.0),), (el.parse(back_upper),), ident),
    ))
    return Atlas([a, b], [t_ab, t_ba])


@pytest.mark.parametrize("points", [3, 16, 384])
def test_round_trips_through_straddled_reverse_pieces_match_point_by_point(
    points, monkeypatch
):
    """A->B's one overlap group maps into both pieces of B->A, and only
    the upper one is off: the round trips fail with the witness above
    x = 1, and report byte for byte what they report point by point."""
    atlas = _straddling_atlas()
    plan = SamplePlan(seed=5, points_per_chart=points, tolerance=1e-10)
    (_, _, points, _), *_ = manifold.sample_domain(Overlaps(atlas), plan)
    back = atlas.transition("B", "A")
    assert {id(back.piece_for(coords)) for coords in points} == set(map(id, back.pieces))
    rep = atlas_consistency_check(atlas, plan)
    assert rep.verdict == "fail" and rep.witness.coords[0] > 1.0
    assert rep.per_chart["A->B"] > 1e-7
    alone(monkeypatch)
    assert report_bytes(rep) == report_bytes(atlas_consistency_check(atlas, plan))


def test_a_zero_divisor_at_one_sample_raises_at_that_sample(monkeypatch):
    """A forward expression whose divisor is 0 at the third sample of its
    group: the group goes point by point, the samples before it get their
    round trips, and that sample raises the lone evaluation's
    `EvalDomainError`, with the batch or without."""
    from sasaki_lab import report

    plan = SamplePlan(seed=5, points_per_chart=6)
    (_, _, points, _), *_ = manifold.sample_domain(Overlaps(_straddling_atlas()), plan)
    c = points[2][0]
    atlas = _straddling_atlas()
    bad = TransitionPiece(((0.0, 2.0),), (el.parse(f"x + (x - {c!r}) / (x - {c!r}) - 1"),),
                          (el.parse("x"),))
    atlas = Atlas(atlas.charts, [TransitionMap("A", "B", (bad,)), atlas.transitions[1]])
    evaluate_group, point_by_point = report.evaluate_group, report.point_by_point

    def outcome(evaluate):
        seen = []  # (coords, round trip) of each lone point

        def recording(residual_fn, where, points, env):
            def noted(where, env):
                out = residual_fn(where, env)
                if not isinstance(out, np.ndarray):
                    seen.append(repr((tuple(env.values()), out)))
                return out

            return evaluate(noted, where, points, env)

        monkeypatch.setattr(report, "evaluate_group", recording)
        with pytest.raises(el.EvalDomainError) as exc:
            atlas_consistency_check(atlas, plan)
        return seen, str(exc.value)

    batched = outcome(evaluate_group)
    assert len(batched[0]) == 2
    assert outcome(point_by_point) == batched


def test_report_json_is_deterministic():
    rep1 = atlas_consistency_check(circle_atlas(), SamplePlan(points_per_chart=8))
    rep2 = atlas_consistency_check(circle_atlas(), SamplePlan(points_per_chart=8))
    text = json.dumps(rep1.to_dict(), indent=2, sort_keys=True)
    assert text == json.dumps(rep2.to_dict(), indent=2, sort_keys=True)
    assert '"verdict": "pass"' in text
