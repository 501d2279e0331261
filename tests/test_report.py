"""Verdicts and residual reduction, including non-finite residuals."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasaki_lab import exprlang as el
from sasaki_lab import report
from sasaki_lab import tensor as tn
from sasaki_lab.contact import ContactStructure, is_contact_form
from sasaki_lab.corpus import build_example
from sasaki_lab.kahler import almost_complex_check
from sasaki_lab.manifold import (
    Atlas,
    Chart,
    Overlaps,
    SamplePlan,
    TransitionMap,
    TransitionPiece,
    _chart_rng,
    _piece_sample,
    sample_chart,
    sample_points,
)
from sasaki_lab.report import (
    max_or_nan,
    reduce_residuals,
    residual_rank,
    run_residual_check,
    verdict_for,
)
from sasaki_lab.sasaki import LeviStructure, paired_consistency_check

from pointwise import alone, reduce_rows, report_bytes

ROOT = Path(__file__).resolve().parents[1]

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


LINE = Atlas([Chart("A", ("x",), ((0.0, 1.0),))])


def _check(residuals, fail_floor=None):
    """Report on the given residuals, one per sample of a one-chart atlas in
    sample order; also returns the sampled coordinates."""
    plan = SamplePlan(seed=42, points_per_chart=len(residuals), tolerance=1e-9)
    points = sample_chart(LINE.charts[0], plan)
    by_coord = dict(zip(points, residuals))
    rep = run_residual_check(
        "nan_probe", LINE,
        lambda chart, env: np.array([by_coord[(x,)] for x in env["x"].tolist()]),
        plan, fail_floor,
    )
    return rep, points


@pytest.mark.parametrize("where", [0, 1, 2])
@pytest.mark.parametrize("fail_floor", [None, 1e-3])
def test_nan_residual_fails_with_its_own_witness(where, fail_floor):
    residuals = [0.0, 0.0, 0.0]
    residuals[where] = NAN
    rep, points = _check(residuals, fail_floor)
    assert rep.verdict == "fail"
    assert math.isnan(rep.max_residual) and math.isnan(rep.per_chart["A"])
    assert rep.witness.coords == points[where]
    assert math.isnan(rep.witness.residual)


def test_finite_residuals_reduce_as_before():
    rep, points = _check([0.0, 2e-9, 1e-9])
    assert rep.verdict == "fail" and rep.max_residual == 2e-9
    assert rep.witness.coords == points[1] and rep.witness.residual == 2e-9
    assert _check([0.0, 1e-12])[0].verdict == "pass"


def _columns(env) -> dict:
    return {name: v.tolist() for name, v in env.items()}


def test_driver_evaluates_the_plans_samples_in_order():
    """The residual is called once per chart, in plan order, at the batch
    env that holds its points' columns, and reduces every point."""
    atlas = Atlas([
        Chart("B", ("x", "y"), ((0.0, 1.0), (-2.0, 2.0))),
        Chart("A", ("x", "y"), ((-1.0, 0.0), (0.5, 3.0))),
    ])
    plan = SamplePlan(seed=7, points_per_chart=5)
    seen = []

    def residual(chart, env):
        seen.append((chart, _columns(env)))
        return 0.0

    rep = run_residual_check("probe", atlas, residual, plan)
    want = [
        (chart, {c: [p[k] for p in points] for k, c in enumerate(("x", "y"))})
        for chart, points, _ in sample_points(atlas, plan)
    ]
    assert seen == want and rep.samples == 10
    assert [chart for chart, _ in seen] == ["B", "A"]


def _clauses(chart, env):
    """Three named clauses; "tail" is NaN at one point of chart B, where the
    larger finite "head" comes first."""
    x, y = env["x"], env["y"]
    tail = np.where((chart == "B") & (1.4 < x) & (x < 1.6), NAN, abs(x * y) / 10.0)
    return {"head": 5.0 + abs(x), "mid": (x - y) * (x - y), "tail": tail}


def test_named_clauses_reduce_to_their_nan_ranked_maxima():
    plan = SamplePlan(seed=3, points_per_chart=64, tolerance=1e-9)
    rep = run_residual_check("clauses", TWO_CHARTS, _clauses, plan, details={"x": 1})
    rows = [
        (chart, coords, {
            name: float(v)
            for name, v in _clauses(chart, TWO_CHARTS.chart(chart).env(coords)).items()
        })
        for chart, points, _ in sample_points(TWO_CHARTS, plan)
        for coords in points
    ]
    nan_at = next(coords for chart, coords, r in rows if math.isnan(r["tail"]))
    assert sum(math.isnan(r["tail"]) for _, _, r in rows) >= 1
    by_hand = {
        name: max_or_nan([r[name] for _, _, r in rows])
        for name in ("head", "mid", "tail")
    }
    assert list(rep.details) == ["x", "head", "mid", "tail"]
    for name, value in by_hand.items():
        assert rep.details[name].hex() == value.hex()
    assert math.isnan(rep.details["tail"]) and rep.details["x"] == 1
    assert rep.verdict == "fail" and math.isnan(rep.max_residual)
    assert not math.isnan(rep.per_chart["A"]) and math.isnan(rep.per_chart["B"])
    assert rep.witness.chart == "B" and rep.witness.coords == nan_at
    assert math.isnan(rep.witness.residual) and rep.samples == len(rows)


def _two_piece_atlas() -> Atlas:
    """Charts A and B glued by two transitions of two pieces each."""
    ident = (el.parse("x"), el.parse("y"))
    flip = (el.parse("x"), el.parse("-y"))

    def pieces(*boxes):
        return tuple(
            TransitionPiece((box, (-1.0, 1.0)), fwd, fwd)
            for box, fwd in zip(boxes, (ident, flip))
        )

    return Atlas(
        [
            Chart("A", ("x", "y"), ((0.0, 2.0), (-1.0, 1.0))),
            Chart("B", ("x", "y"), ((0.0, 2.0), (-1.0, 1.0))),
        ],
        [
            TransitionMap("A", "B", pieces((0.0, 1.0), (1.0, 2.0))),
            TransitionMap("B", "A", pieces((0.2, 0.9), (1.1, 1.8))),
        ],
    )


@pytest.mark.parametrize("stream", ["", ":T"])
def test_driver_evaluates_the_overlap_samples_in_order(stream):
    atlas = _two_piece_atlas()
    plan = SamplePlan(seed=11, points_per_chart=5)
    seen = []

    def residual(site, env):
        seen.append((site.transition, site.piece, _columns(env)))
        return 0.0

    rep = run_residual_check("probe", Overlaps(atlas, stream), residual, plan)
    want = []
    for t in atlas.transitions:
        src = atlas.chart(t.source)
        rng = _chart_rng(plan.seed, f"{t.source}->{t.target}" + stream)
        for piece in t.pieces:
            points = _piece_sample(src, piece, plan, rng)
            columns = {c: [p[k] for p in points] for k, c in enumerate(src.coords)}
            want.append((t, piece, columns))
    assert seen == want and rep.samples == 2 * 2 * 5
    assert sorted(rep.per_chart) == ["A->B", "B->A"]
    assert [t.source for t, _, _ in seen] == ["A"] * 2 + ["B"] * 2


def test_paired_details_are_the_single_field_checks():
    struct = build_example("mobius-jet").structure
    C = struct.contact
    plan = SamplePlan(points_per_chart=4)
    rep = paired_consistency_check(struct, plan)
    fields = {
        "eta": (C.eta, C.transition_sign),
        "reeb": (C.reeb(), C.transition_sign),
        "endo": (struct.phibar, C.transition_sign),
        "levi_metric": (struct.levi_metric(), None),
        "metric": (struct.metric(), None),
    }
    assert list(rep.details) == list(fields)
    for label, (T, sign_fn) in fields.items():
        single = tn.cross_chart_consistency(T, plan, sign_fn)
        assert rep.details[label].hex() == single.max_residual.hex(), label


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert report.VERSION == tomllib.load(f)["project"]["version"]


@pytest.mark.parametrize("s", [
    [0.0, NAN], [NAN, 0.0], [[0.0, 1.0], [NAN, 2.0]], [[1.0], [2.0, NAN]],
])
def test_max_abs_reports_nan(s):
    assert math.isnan(tn.max_abs(s))


def test_max_abs_finite_and_infinite():
    assert tn.max_abs([[0.5, -3.0], [2.0]]) == 3.0
    assert tn.max_abs([0.0, -math.inf]) == math.inf
    assert tn.max_abs([]) == 0.0


def test_max_diff_reports_nan():
    assert math.isnan(tn.max_diff([0.0, NAN], [0.0, 0.0]))
    assert math.isnan(tn.max_diff([[math.inf]], [[math.inf]]))
    assert tn.max_diff([1.0, 2.0], [-1.0, -2.0], -1.0) == 0.0


def _const_field(name, comps):
    return tn.TensorField(name, LINE, (1, 0), lambda chart, env: list(comps))


@pytest.mark.parametrize("where", [0, 1, 2, 3])
def test_vanishing_and_agreeing_report_nan_from_any_field(where):
    # the NaN sits after a larger finite component, in any one field
    fields = [_const_field(f"f{k}", [5.0, 0.0]) for k in range(4)]
    fields[where] = _const_field("nan", [0.0, NAN])
    env = LINE.charts[0].env(sample_chart(LINE.charts[0], SamplePlan(points_per_chart=1))[0])
    assert math.isnan(tn.vanishing(*fields)("A", env))
    T1, S1, T2, S2 = fields
    assert math.isnan(tn.agreeing((T1, S1), (T2, S2))("A", env))


TWO_CHARTS = Atlas([
    Chart("A", ("x", "y"), ((-1.0, 1.0), (0.5, 2.0))),
    Chart("B", ("x", "y"), ((0.0, 3.0), (-2.0, -0.5))),
])


def test_builders_equal_the_hand_written_reductions_bit_for_bit():
    T = tn.TensorField.from_exprs("T", TWO_CHARTS, (1, 1), {
        "A": {(0, 0): "sin(x) * y", (0, 1): "exp(x - y)", (1, 1): "x / y"},
        "B": {(0, 0): "cos(x * y)", (1, 0): "x^2 - y", (1, 1): "1 / (1 + x^2)"},
    })
    S = tn.TensorField.from_exprs("S", TWO_CHARTS, (1, 1), {
        "A": {(0, 0): "sin(x) * y + 0.001 * x", (1, 0): "y^3", (1, 1): "x / y"},
        "B": {(0, 0): "cos(x) * cos(y)", (1, 0): "x^2", (0, 1): "0.3 * x"},
    })
    agree, vanish = tn.agreeing((T, S)), tn.vanishing(T, S)
    for chart, points, _ in sample_points(TWO_CHARTS, SamplePlan(points_per_chart=16)):
        for coords in points:
            env = TWO_CHARTS.chart(chart).env(coords)
            t, s = T.at(chart, env), S.at(chart, env)
            by_hand = tn.max_abs(
                [t[i][j] - s[i][j] for i in range(2) for j in range(2)]
            )
            assert by_hand > 0.0
            assert agree(chart, env).hex() == by_hand.hex()
            assert vanish(chart, env).hex() == max(
                tn.max_abs(t), tn.max_abs(s)
            ).hex()


@pytest.mark.parametrize("values", [[0.0, NAN, 1.0], [math.inf, -math.inf, NAN]])
def test_max_or_nan_ranks_nan_first(values):
    assert math.isnan(max_or_nan(values))


def test_max_or_nan_keeps_plain_max():
    assert max_or_nan([]) == 0.0
    assert max_or_nan([0.0, -2.0, 1.5]) == 1.5
    assert max_or_nan([math.inf, -math.inf]) == math.inf


@pytest.mark.parametrize("size", [1, 64])
def test_max_or_nan_keeps_the_first_of_equal_maxima_at_a_batch(size):
    """-0.0 before 0.0 gives -0.0 in every slot of a batch, as it does for
    two numbers: the batch and the lone call agree by `repr`."""
    lone = repr(max_or_nan([-0.0, 0.0]))
    batch = max_or_nan([np.full(size, -0.0), np.full(size, 0.0)])
    assert lone == "-0.0"
    assert [repr(v) for v in batch.tolist()] == [lone] * size
    assert [repr(v) for v in max_or_nan([np.full(size, 0.0), np.full(size, -0.0)]).tolist()] == [
        repr(max_or_nan([0.0, -0.0]))] * size


def _groups(rows) -> list:
    """Runs of `rows` with one label and one kind of residual (a number, or
    a dict of the same names), each as one (label, points, residual)
    group: float64 arrays, one slot per row."""
    groups = []
    for label, coords, r in rows:
        kind = tuple(r) if isinstance(r, dict) else None
        if groups and groups[-1][0] == (label, kind):
            groups[-1][1].append((coords, r))
        else:
            groups.append(((label, kind), [(coords, r)]))
    out = []
    for (label, kind), members in groups:
        points = [coords for coords, _ in members]
        if kind is None:
            out.append((label, points, np.array([r for _, r in members])))
        else:
            out.append((label, points, {
                name: np.array([r[name] for _, r in members]) for name in kind
            }))
    return out


def _grouped(rows, records=None):
    return reduce_residuals(_groups(rows), records)


# the row-walking reference, and the group reducer over runs of the rows
REDUCERS = (reduce_rows, _grouped)


def test_reducer_keeps_first_strictly_worst_row():
    for reducer in REDUCERS:
        red = reducer([
            ("A", (0.1,), 1.0), ("B", (0.2,), 3.0), ("A", (0.3,), 3.0),
            ("B", (0.4,), NAN), ("A", (0.5,), NAN),
        ])
        assert red.count == 5 and math.isnan(red.max_residual)
        assert math.isnan(red.per_chart["A"]) and math.isnan(red.per_chart["B"])
        assert red.worst[:2] == ("B", (0.4,))


PLAN = SamplePlan(points_per_chart=16)
SQUARE = Atlas([Chart("O", ("x", "y"), ((-1.0, 1.0),) * 2)])
DARBOUX_BOX = Atlas([Chart("O", ("x", "p", "z"), ((-1.0, 1.0),) * 3)])


def test_contact_form_with_nan_component_fails():
    # second component NaN at every point (exprlang reads 1e400 as inf)
    table = {(0,): "-p", (1,): "1e400 - 1e400", (2,): "1"}
    eta = tn.TensorField.from_exprs("nan_eta", DARBOUX_BOX, (0, 1), {"O": table})
    rep = is_contact_form(ContactStructure("nan", DARBOUX_BOX, eta), PLAN)
    first = sample_chart(DARBOUX_BOX.charts[0], PLAN)[0]
    assert rep.verdict == "fail" and math.isnan(rep.max_residual)
    assert rep.witness.coords == first and math.isnan(rep.witness.residual)
    assert math.isnan(rep.details["min_coefficient"])


def test_nan_after_finite_component_is_its_own_witness():
    """J² + id: the (0, 0) entry is 0, the (0, 1) entry NaN where x < 0."""

    def j(chart, env):
        corner = np.where(env["x"] < 0.0, NAN, 0.0)
        return [[0.0, -1.0], [1.0, corner]]

    rep = almost_complex_check(tn.TensorField("nan_J", SQUARE, (1, 1), j), PLAN)
    pts = sample_chart(SQUARE.charts[0], PLAN)
    assert pts[0][0] >= 0.0  # a finite point comes first
    first_nan = next(coords for coords in pts if coords[0] < 0.0)
    assert rep.verdict == "fail" and math.isnan(rep.max_residual)
    assert rep.witness.coords == first_nan and math.isnan(rep.witness.residual)


def test_paired_consistency_with_nan_sub_report_fails():
    struct = build_example("mobius-jet").structure
    phibar = struct.phibar

    def nan_corner(chart, env):
        m = [list(row) for row in phibar.at(chart.name, env)]
        m[0][0] = NAN
        return m

    broken = tn.TensorField("nan_endo", struct.atlas, (1, 1), nan_corner)
    plan = SamplePlan(points_per_chart=4)
    assert paired_consistency_check(struct, plan).verdict == "pass"
    rep = paired_consistency_check(LeviStructure("nan", struct.contact, broken), plan)
    assert rep.verdict == "fail" and math.isnan(rep.max_residual)
    assert math.isnan(rep.details["endo"]) and math.isnan(rep.witness.residual)


@pytest.mark.parametrize("how,want", [(min, -1.0), (max, 9.0)])
def test_record_reduces_its_declared_way(how, want):
    rows = [
        ("A", (0.1,), {"c": 1.0, "r": 2.0}),
        ("B", (0.2,), {"c": 0.5, "r": -1.0}),
        ("A", (0.3,), {"c": 0.25, "r": 9.0}),
    ]
    for reducer in REDUCERS:
        assert reducer(rows, {"r": how}).named == {"c": 1.0, "r": want}


@pytest.mark.parametrize("how", [min, max])
def test_nan_record_sticks(how):
    """A NaN at a middle point survives the finite values after it."""
    rows = [
        ("A", (0.1,), {"c": 1.0, "r": 2.0}),
        ("A", (0.2,), {"c": 0.5, "r": NAN}),
        ("A", (0.3,), {"c": 0.25, "r": -1.0}),
        ("A", (0.4,), {"c": 0.25, "r": 9.0}),
    ]
    for reducer in REDUCERS:
        red = reducer(rows, {"r": how})
        assert math.isnan(red.named["r"]) and red.named["c"] == 1.0
        assert red.max_residual == 1.0 and red.worst == ("A", (0.1,), 1.0)


def test_record_never_reaches_the_residual_or_the_witness():
    """A record larger than every clause, even a NaN one, is reported in
    details only."""
    rows = [
        ("A", (0.1,), {"c": 1e-3, "big": 1e9}),
        ("B", (0.2,), {"c": 2e-3, "big": NAN}),
        ("A", (0.3,), {"c": 5e-4, "big": math.inf}),
    ]
    for reducer in REDUCERS:
        red = reducer(rows, {"big": max})
        assert red.max_residual == 2e-3 and red.per_chart == {"A": 1e-3, "B": 2e-3}
        assert red.worst == ("B", (0.2,), 2e-3) and red.count == 3
        assert list(red.named) == ["c", "big"] and math.isnan(red.named["big"])

    plan = SamplePlan(seed=5, points_per_chart=8, tolerance=1e-9)

    def residual(chart, env):
        return {None: 0.0, "big": 1e9 + env["x"]}

    rep = run_residual_check(
        "records", TWO_CHARTS, residual, plan, details={"x": 1}, records={"big": min}
    )
    assert rep.verdict == "pass" and rep.witness is None
    assert rep.max_residual == 0.0 and rep.per_chart == {"A": 0.0, "B": 0.0}
    smallest = min(c[0] for _, points, _ in sample_points(TWO_CHARTS, plan) for c in points)
    assert rep.details == {"x": 1, "big": 1e9 + smallest}


@pytest.mark.parametrize("how", [min, max, None])  # None: a clause
@pytest.mark.parametrize("first", [0.0, -0.0])
def test_tie_keeps_the_earlier_signed_zero(how, first):
    rows = [("A", (0.1,), {"r": first}), ("A", (0.2,), {"r": -first})]
    for reducer in REDUCERS:
        red = reducer(rows, {"r": how} if how else None)
        assert math.copysign(1.0, red.named["r"]) == math.copysign(1.0, first)


def test_name_no_row_produced_is_absent():
    rows = [("A", (0.1,), {"c": 1.0}), ("A", (0.2,), 0.5)]
    for reducer in REDUCERS:
        red = reducer(rows, {"r": min})
        assert red.named == {"c": 1.0} and red.max_residual == 1.0

    def residual(chart, env):
        return {"c": 1.0, "r": 2.0}

    rep = run_residual_check(
        "empty", TWO_CHARTS, residual, SamplePlan(points_per_chart=0),
        details={"x": 1}, records={"r": min},
    )
    assert rep.samples == 0 and rep.details == {"x": 1}


# -- the group reducer against the row-walking reference ------------------

SPECIAL_RESIDUALS = [NAN, math.inf, -math.inf, 0.0, -0.0, 1.0, 1e-9]
RESIDUAL = st.one_of(
    st.sampled_from(SPECIAL_RESIDUALS),  # NaN, ±inf, ±0.0 and ties
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
RECORDS = {"low": min, "high": max}


@st.composite
def _values(draw, size):
    """One value per point: a number (the same at every point) or a list."""
    if draw(st.booleans()):
        return draw(RESIDUAL)
    return draw(st.lists(RESIDUAL, min_size=size, max_size=size))


@st.composite
def _group_lists(draw):
    """Groups of 1 to 5 points under labels A, B and C, several groups per
    label; a residual is a number, a list, or a dict of clauses (None, c1,
    c2) and records (``low`` by `min`, ``high`` by `max`), each of those a
    number or a list."""
    groups = []
    for k in range(draw(st.integers(1, 6))):
        size = draw(st.integers(1, 5))
        points = [(float(k), float(i)) for i in range(size)]
        if draw(st.booleans()):
            residual = draw(_values(size))
        else:
            names = draw(st.lists(st.sampled_from([None, "c1", "c2", "low", "high"]),
                                  min_size=1, max_size=5, unique=True))
            residual = {name: draw(_values(size)) for name in names}
        groups.append((draw(st.sampled_from("ABC")), points, residual))
    return groups


def _at(value, i):
    return value[i] if isinstance(value, list) else value


def _array(value):
    return np.array(value) if isinstance(value, list) else value


@settings(max_examples=300, deadline=None)
@given(_group_lists())
def test_group_reducer_equals_the_row_walk(groups):
    """`reduce_residuals` over sample groups gives, by `repr` of the whole
    `Reduction` (per-label maxima, witness, count, clauses and records),
    what the row-walking reference gives over the groups' points in
    order."""
    rows = [
        (label, coords, {n: _at(v, i) for n, v in r.items()} if isinstance(r, dict)
         else _at(r, i))
        for label, points, r in groups
        for i, coords in enumerate(points)
    ]
    arrays = [
        (label, points, {n: _array(v) for n, v in r.items()} if isinstance(r, dict)
         else _array(r))
        for label, points, r in groups
    ]
    assert repr(reduce_residuals(arrays, RECORDS)) == repr(reduce_rows(rows, RECORDS))


def test_a_zero_divisor_at_one_sample_sends_its_group_point_by_point(monkeypatch):
    """y / (x − c), c the x of chart B's third sample: chart A's group is
    reduced at its batch, B's batch raises and B goes point by point, its
    first two points get their lone residuals, and the third raises the
    lone evaluation's `EvalDomainError`, message included."""
    plan = SamplePlan(seed=3, points_per_chart=6, tolerance=1e-9)
    (_, a_points, _), (_, b_points, _) = sample_points(TWO_CHARTS, plan)
    c = b_points[2][0]
    T = tn.TensorField.from_exprs("T", TWO_CHARTS, (0, 0), {
        name: {(): f"y / (x - {c!r})"} for name in ("A", "B")
    })
    residual = tn.vanishing(T)

    def lone(chart, coords):
        return residual(chart, TWO_CHARTS.chart(chart).env(coords))

    with pytest.raises(el.EvalDomainError) as want:
        lone("B", b_points[2])
    point_by_point, evaluate_group, groups = report.point_by_point, report.evaluate_group, []

    def recording(residual_fn, where, points, env):
        out = evaluate_group(residual_fn, where, points, env)
        groups.append((where, out))
        return out

    def noted(residual_fn, where, points, env):
        def each(where, env):
            out = residual_fn(where, env)
            groups.append((where, tuple(env.values()), out))
            return out

        return point_by_point(each, where, points, env)

    monkeypatch.setattr(report, "evaluate_group", recording)
    monkeypatch.setattr(report, "point_by_point", noted)
    with pytest.raises(el.EvalDomainError) as got:
        run_residual_check("divisor", TWO_CHARTS, residual, plan)
    assert str(got.value) == str(want.value)
    (where, a_values), *b_rows = groups
    assert where == "A"
    assert list(map(repr, a_values.tolist())) == [repr(lone("A", p)) for p in a_points]
    assert repr(b_rows) == repr([("B", p, lone("B", p)) for p in b_points[:2]])


@pytest.mark.parametrize("n", [-2, -1, 2, 3])
def test_a_power_of_zero_at_one_sample_matches_the_point_by_point_run(n, monkeypatch):
    """y · (x − c)^n, c the x of chart B's third sample, where the base is
    exactly 0.0: a negative n raises at that point, so B's batch raises
    and B goes point by point, and the run raises what a run with every
    group taken point by point raises; a positive n gives the same report
    bytes both ways, at the batch."""
    plan = SamplePlan(seed=3, points_per_chart=6, tolerance=1e-9)
    c = sample_points(TWO_CHARTS, plan)[1][1][2][0]
    T = tn.TensorField.from_exprs("T", TWO_CHARTS, (0, 0), {
        name: {(): f"y * (x - {c!r})^{n}"} for name in ("A", "B")
    })

    def outcome():
        try:
            return report_bytes(run_residual_check("power", TWO_CHARTS, tn.vanishing(T), plan))
        except el.EvalDomainError as exc:
            return repr(exc)

    point_by_point, fallbacks = report.point_by_point, []
    monkeypatch.setattr(
        report, "point_by_point", lambda *a: fallbacks.append(a[1]) or point_by_point(*a)
    )
    batched = outcome()
    assert fallbacks == (["B"] if n < 0 else [])
    assert batched.startswith("EvalDomainError(") == (n < 0)
    alone(monkeypatch)
    assert outcome() == batched
