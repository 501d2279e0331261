"""Gallery entries: registry behavior, declared verdicts, and golden files."""

import math
from dataclasses import replace
from pathlib import Path

import pytest

from sasaki_lab import corpus
from sasaki_lab import numkernel as nk
from sasaki_lab.bundle import FIBER, loop_sign, symplectize
from sasaki_lab.corpus import (
    EXAMPLE_KEYS,
    UnknownKey,
    build_example,
    emit_example,
    parse_example_text,
    write_golden_files,
)
from sasaki_lab.manifold import SamplePlan
from sasaki_lab.report import FAIL, PASS

from pointwise import alone, report_bytes

FAST_PLAN = SamplePlan(seed=11, points_per_chart=4, tolerance=1e-8)

ALL_KEYS = (
    "darboux-1",
    "darboux-2",
    "mobius-band",
    "mobius-jet",
    "mobius-cotangent",
    "sphere-3",
    "sphere-5",
    "product-darboux",
    "main1-family",
)


def test_registry_lists_all_keys():
    assert EXAMPLE_KEYS == ALL_KEYS


def test_unknown_key_raises():
    with pytest.raises(UnknownKey, match="no-such-entry"):
        build_example("no-such-entry")


def test_unknown_key_is_a_keyerror():
    assert issubclass(UnknownKey, KeyError)


@pytest.mark.parametrize("key", ["darboux-1", "sphere-3", "product-darboux"])
def test_unknown_parameter_rejected(key):
    with pytest.raises(UnknownKey):
        build_example(key, bogus=1)


def test_main1_rejects_unknown_parameter():
    with pytest.raises(UnknownKey, match="unknown parameters"):
        build_example("main1-family", a="0.5", extra=2)


def test_main_atlas_is_first():
    for key in ALL_KEYS:
        ex = build_example(key)
        assert next(iter(ex.atlases)) == "main"
        assert ex.atlas is ex.atlases["main"]


def test_cone_fiber_is_the_last_coordinate():
    """Cone code reads the fiber ``s`` as the last index of every chart."""
    cones = set()
    for key in ALL_KEYS:
        for name, atlas in build_example(key).atlases.items():
            for chart in atlas.charts:
                if FIBER in chart.coords:
                    assert chart.coords[-1] == FIBER, (key, name, chart.name)
                    cones.add(key)
    assert cones == {"mobius-band", "mobius-jet", "mobius-cotangent", "main1-family"}
    paired = build_example("mobius-jet").structure.contact
    assert paired.transition_sign is not None
    bundle, _ = symplectize(paired)
    assert bundle.group == "Rx"
    assert all(chart.coords[-1] == FIBER for chart in bundle.total.charts)


def test_check_lookup():
    ex = build_example("darboux-1")
    assert ex.check("sasaki").name == "sasaki"
    with pytest.raises(UnknownKey):
        ex.check("nonexistent")


# -- the map-level checks, at their batch and point by point ---------------

# the gallery's checks of transition maps, embeddings and sections
MAP_CHECKS = (
    *((key, "atlas_consistency") for key in ALL_KEYS),
    ("mobius-band", "base_atlas_consistency"),
    ("mobius-cotangent", "base_atlas_consistency"),
    ("sphere-3", "embedding_frame"),
    ("sphere-5", "embedding_frame"),
    ("mobius-jet", "sections_global"),
    ("mobius-jet", "sections_independent"),
    ("mobius-jet", "paired_consistency"),
)


@pytest.mark.parametrize("points", [3, 384])
@pytest.mark.parametrize("key,check", MAP_CHECKS, ids=[f"{k}/{c}" for k, c in MAP_CHECKS])
def test_map_check_matches_its_point_by_point_report(key, check, points, monkeypatch):
    """A declared map identity reports, byte for byte, what it reports
    with every sample evaluated on its own."""
    job = build_example(key).check(check)
    plan = SamplePlan(seed=42, points_per_chart=points)
    rep = job.run(plan)
    assert rep.passed, (key, check)
    alone(monkeypatch)
    assert report_bytes(rep) == report_bytes(job.run(plan))


@pytest.mark.parametrize("key", ["sphere-3", "sphere-5"])
def test_a_perturbed_sphere_frame_fails_embedding_frame(key, monkeypatch):
    """One entry of the closed-form Jacobian off by 1e-6·u1: the
    embedding's jet no longer matches it, and the failure, witness
    included, is the one reported point by point."""
    frame = corpus._sphere_frame

    def perturbed(env, coords, last_sign):
        y, m, d = frame(env, coords, last_sign)
        m[1][0] = m[1][0] + 1e-6 * env[coords[0]]
        return y, m, d

    monkeypatch.setattr(corpus, "_sphere_frame", perturbed)
    job = build_example(key).check("embedding_frame")
    plan = SamplePlan(seed=42, points_per_chart=16)
    rep = job.run(plan)
    assert rep.verdict == FAIL and 1e-7 < rep.max_residual < 1e-5
    alone(monkeypatch)
    assert report_bytes(rep) == report_bytes(job.run(plan))


# -- every declared check matches its declared verdict ------------------


@pytest.mark.parametrize("key", ALL_KEYS)
def test_declared_checks_match_expectations(key):
    ex = build_example(key)
    assert ex.checks, key
    names = [job.name for job in ex.checks]
    assert len(names) == len(set(names)), "duplicate check names"
    for job in ex.checks:
        rep = job.run(FAST_PLAN)
        assert rep.verdict == job.expect, (
            f"{key}/{job.name}: verdict {rep.verdict} != declared {job.expect} "
            f"(max residual {rep.max_residual:.3e})"
        )
        assert rep.example == key
        assert rep.tolerance == job.tolerance, f"{key}/{job.name}"
        if rep.verdict == FAIL:
            assert rep.witness is not None


def test_main1_nonconstant_slope_declares_failing_integrability():
    ex = build_example("main1-family", a="x")
    job = ex.check("integrability")
    assert job.expect == FAIL
    rep = job.run(FAST_PLAN)
    assert rep.verdict == FAIL
    assert rep.max_residual > 1e-3
    assert rep.witness is not None


def test_main1_constant_slope_expects_integrable():
    for a in ("0.7", "-1.3", "0"):
        ex = build_example("main1-family", a=a)
        assert ex.check("integrability").expect == PASS
        assert ex.params["a"] == a


def test_main1_param_normalized():
    ex = build_example("main1-family", a=0.7)
    assert ex.params["a"] == "0.7"


# -- frozen values -----------------------------------------------------


def test_mobius_band_loop_sign_is_minus_one():
    ex = build_example("mobius-band")
    bundle = ex.structure
    signs = (bundle.total, bundle.transition_sign)
    assert loop_sign(*signs, [("O", "U", 0), ("U", "O", 1)]) == -1.0
    # the shared overlap alone does not flip
    assert loop_sign(*signs, [("O", "U", 0), ("U", "O", 0)]) == 1.0


def test_cotangent_complex_structure_frozen_matrix():
    """Closed-form J at one point of each fiber branch, frozen by hand."""
    ex = build_example("mobius-cotangent")
    field = next(f for f in ex.fields if f.name == "complex_structure").field
    env = {"x": 0.3, "p": 0.5, "z": -0.2, "s": 1.5}
    m = [[nk.value_of(v) for v in row] for row in field.at("O", env)]
    want = [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -0.5, 0.0, 1.0 / 1.5],
        [0.75, 0.0, -1.5, 0.0],
    ]
    for row, wrow in zip(m, want):
        assert row == pytest.approx(wrow, abs=1e-15)

    env_neg = dict(env, s=-1.5)
    m2 = [[nk.value_of(v) for v in row] for row in field.at("O", env_neg)]
    want_neg = [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, (-1.0) / (-1.5)],
        [0.75, 0.0, -1.5, 0.0],
    ]
    for row, wrow in zip(m2, want_neg):
        assert row == pytest.approx(wrow, abs=1e-15)


def test_sphere3_eta_frozen_components():
    """Kernel form at u = (1, 0, 0) in the north chart, frozen by hand.

    There D = 5, and the components come out as (32 u2 - 16 u3 u1)/D^2,
    (-32 u1 - 16 u2 u3)/D^2, (8(|u|^2 - 4) - 16 u3^2)/D^2.
    """
    ex = build_example("sphere-3")
    eta = next(f for f in ex.fields if f.name == "eta").field
    env = {"u1": 1.0, "u2": 0.0, "u3": 0.0}
    got = [nk.value_of(v) for v in eta.at("N", env)]
    assert got == pytest.approx([0.0, -32.0 / 25.0, -24.0 / 25.0], abs=1e-15)
    # south chart flips the last-pair contributions
    got_s = [nk.value_of(v) for v in eta.at("S", env)]
    assert got_s == pytest.approx([0.0, -32.0 / 25.0, 24.0 / 25.0], abs=1e-15)


def test_sphere3_embedding_lands_on_radius_two():
    ex = build_example("sphere-3")
    embed = next(m for m in ex.maps if m.name == "embedding").map
    for chart in ("N", "S"):
        vals = [nk.value_of(v) for v in embed.apply(chart, {"u1": 0.7, "u2": -0.4, "u3": 1.1})]
        assert sum(v * v for v in vals) == pytest.approx(4.0, abs=1e-14)


def test_sphere_charts_agree_through_inversion():
    ex = build_example("sphere-3")
    embed = next(m for m in ex.maps if m.name == "embedding").map
    u = {"u1": 0.9, "u2": -0.3, "u3": 0.5}
    n2 = sum(v * v for v in u.values())
    u_img = {k: 4.0 * v / n2 for k, v in u.items()}
    north = [nk.value_of(v) for v in embed.apply("N", u)]
    south = [nk.value_of(v) for v in embed.apply("S", u_img)]
    assert north == pytest.approx(south, abs=1e-14)


def test_jet_sections_determinant_is_pi():
    ex = build_example("mobius-jet")
    sine = next(m for m in ex.maps if m.name == "section_sine").map
    cosine = next(m for m in ex.maps if m.name == "section_cosine").map
    for x in (0.07, 0.3, 0.92):
        _, p1, z1 = (nk.value_of(v) for v in sine.apply("O", {"x": x}))
        _, p2, z2 = (nk.value_of(v) for v in cosine.apply("O", {"x": x}))
        assert p1 * z2 - z1 * p2 == pytest.approx(math.pi, abs=1e-12)


def test_product_structure_dimension():
    ex = build_example("product-darboux")
    chart = ex.atlas.charts[0]
    assert chart.dim == 7
    assert "z1" in chart.coords and "z2" in chart.coords


# -- definition files --------------------------------------------------


GOLDEN = Path(__file__).resolve().parents[1] / "golden"


@pytest.mark.parametrize("key", ALL_KEYS)
def test_golden_file_matches_emission(key):
    path = GOLDEN / f"{key}.corpus"
    assert path.exists(), f"missing {path}"
    assert path.read_text() == emit_example(build_example(key))


def test_write_golden_files_reproduces_golden(tmp_path):
    written = write_golden_files(tmp_path)
    assert sorted(p.name for p in written) == sorted(
        p.name for p in GOLDEN.glob("*.corpus")
    )
    for path in written:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes()


@pytest.mark.parametrize("key", ALL_KEYS)
def test_definition_file_round_trip(key):
    text = emit_example(build_example(key))
    doc = parse_example_text(text)
    assert doc.key == key
    assert emit_example(doc) == text


@pytest.mark.parametrize("key", ALL_KEYS)
def test_parsed_records_equal_built_records(key):
    """A built entry and its parsed definition file are the same records."""
    ex = build_example(key)
    doc = parse_example_text(emit_example(ex))

    def fields(d):
        return [
            (f.name, f.atlas_key, f.valence, f.source, f.comps, f.note)
            for f in d.fields
        ]

    def maps(d):
        return [(m.name, m.src_key, m.dst_key, m.pieces) for m in d.maps]

    assert fields(doc) == fields(ex)
    assert maps(doc) == maps(ex)


def test_emission_is_deterministic():
    a = emit_example(build_example("mobius-cotangent"))
    b = emit_example(build_example("mobius-cotangent"))
    assert a == b


def test_parsed_atlas_is_usable():
    """A parsed definition file yields working charts and transitions."""
    from sasaki_lab.manifold import atlas_consistency_check

    text = (GOLDEN / "mobius-jet.corpus").read_text()
    doc = parse_example_text(text)
    atlas = doc.atlases["main"]
    rep = atlas_consistency_check(atlas, replace(FAST_PLAN, tolerance=1e-10))
    assert rep.passed


@pytest.mark.parametrize("file, old, new", [
    ("darboux-1", "corpus-example v1\nkey: darboux-1", "not-a-corpus-file\nkey: x"),
    ("darboux-1", "field eta on main", "feld eta on main"),  # unknown block keyword
    ("darboux-1", "eta on main valence (0,1)", "eta on main valence (0,2)"),  # index arity
    ("darboux-1", "(0,1) from dsl", "(0,1) from dls"),  # neither dsl nor builtin
    ("darboux-1", "coords: x p z\n", "coords: x p z\ncolour: red\n"),  # unknown chart line
    # malformed values inside lines the grammar lists
    ("darboux-1", "box x: -1.0 1.0", "box x: -1.0"),
    ("darboux-1", "box x: -1.0 1.0", "box x: -1.0 one"),
    ("darboux-1", "O [2] = 1\n", "O [2] = 1 +\n"),
    ("mobius-jet", "transition O -> U", "transition O to U"),
], ids=[
    "header", "keyword", "arity", "source", "chart-line",
    "box-one-bound", "box-not-a-number", "component-expr", "transition-arrow",
])
def test_parse_rejects_bad_header(file, old, new):
    text = (GOLDEN / f"{file}.corpus").read_text()
    assert old in text
    bad = text.replace(old, new, 1)
    with pytest.raises(corpus.CorpusFormatError) as err:
        parse_example_text(bad)
    assert any(repr(line) in str(err.value) for line in bad.splitlines() if line)


def test_builtin_fields_carry_notes():
    for key in ALL_KEYS:
        for gf in build_example(key).fields:
            assert gf.source in ("dsl", "builtin")
            if gf.source == "builtin":
                assert gf.note, f"{key}/{gf.name}: builtin field without a note"
            else:
                assert gf.field.exprs, f"{key}/{gf.name}: dsl field without exprs"


def test_dsl_fields_emit_expressions():
    text = emit_example(build_example("sphere-3"))
    assert "field ambient_rotation_form on ambient valence (0,1) from dsl" in text
    assert "ambient [0] = 0.5 * q1" in text
    assert "from builtin" in text
