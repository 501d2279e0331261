"""Acceptance gate: one test per published claim, at the stated tolerances.

Each test prints a single ``[acceptance]`` pass/fail line (visible with
``pytest -s`` and in failure output) and then asserts.  One clause is
knowingly red: the simultaneous-commutation property of the cotangent
eigenframes fails on one pair by an exact identity — see the assertion
message in ``test_acceptance_02b`` and the frozen identity checks in the
gallery, which pin the true bracket instead.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

import exprgen
from sasaki_lab import exprlang as el
from sasaki_lab import numkernel as nk
from sasaki_lab import tensor as tn
from sasaki_lab.bundle import (
    abs_s_calibration,
    cone_over,
    decompose_homogeneous_metric,
    induced_metric,
)
from sasaki_lab.contact import darboux_contact, reeb_residual_check
from sasaki_lab.corpus import build_example, complex_pair_bracket
from sasaki_lab.manifold import SamplePlan
from sasaki_lab.report import FAIL, PASS
from sasaki_lab.sasaki import (
    contact_metric_check,
    killing_check,
    n_tensors,
    paired_consistency_check,
    pin_battery,
    sasaki_check,
    standard_darboux_levi,
    theorem54_check,
)
from sasaki_lab.tensor import TensorField, max_abs

from pointwise import point_envs

FULL_PLAN = SamplePlan(seed=42, points_per_chart=64)


def _line(label: str, ok: bool, detail: str = "") -> None:
    tail = f" — {detail}" if detail else ""
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}{tail}")


def _run(job, plan=FULL_PLAN):
    return job.run(plan)


# -- 01: flat models are normal, fast ----------------------------------


def test_acceptance_01_flat_models_normal():
    """Both flat models pass the five structure checks under 1e-7 in <5s."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2):
        struct = standard_darboux_levi(n)
        reports = [
            contact_metric_check(struct, replace(FULL_PLAN, tolerance=1e-7)),
            sasaki_check(struct, replace(FULL_PLAN, tolerance=1e-7)),
            killing_check(struct, replace(FULL_PLAN, tolerance=1e-7)),
            theorem54_check(struct, replace(FULL_PLAN, tolerance=1e-7)),
        ]
        fields = n_tensors(struct)
        chart = struct.atlas.charts[0]
        for coords, env in point_envs(chart, FULL_PLAN):
            for f in fields.values():
                worst = max(worst, max_abs(f.at(chart.name, env)))
        for rep in reports:
            assert rep.verdict == PASS, rep.one_line()
            worst = max(worst, rep.max_residual)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7 and elapsed < 5.0
    _line("01 flat-model normality", ok, f"max {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-7
    assert elapsed < 5.0, f"flat-model battery took {elapsed:.2f}s"


# -- 02: twisted cotangent cone --------------------------------------


def test_acceptance_02a_twisted_cone_kahler_checks():
    """Single-valuedness at 1e-9, homogeneity, complex checks at 1e-8."""
    ex = build_example("mobius-cotangent")
    names = (
        "single_valued_two_form",
        "single_valued_metric",
        "single_valued_complex",
        "homogeneous_two_form",
        "homogeneous_metric",
        "homogeneous_complex",
        "almost_complex",
        "integrability",
    )
    worst = 0.0
    for name in names:
        rep = _run(ex.check(name))
        assert rep.verdict == PASS, f"{name}: {rep.one_line()}"
        worst = max(worst, rep.max_residual)
    _line("02a twisted-cone structure", True, f"max {worst:.2e}")


def test_acceptance_02b_eigenframe_pairwise_commutation():
    """All six unordered pairs of the four eigenframe fields commute at 1e-9.

    Known red: five pairs vanish identically, but the bracket of the
    second plus-eigenvalue frame with its minus partner is forced to be
    twice the sign-graded kernel direction (the frozen identity checked
    in the gallery), so the six-pair simultaneous-commutation property
    cannot hold.  Kept as stated rather than weakened.
    """
    ex = build_example("mobius-cotangent")
    f = {gf.name: gf.field for gf in ex.fields}
    a1 = (f["frame_sgn_dz"], f["frame_scaling"])
    a2 = (f["frame_sgn_dp"], f["frame_x_lift"])
    b1 = (f["frame_scaling"], f["frame_sgn_dz"])
    b2 = (f["frame_x_lift"], f["frame_sgn_dp"])
    frames = {"A1": a1, "A2": a2, "B1": b1, "B2": b2}
    atlas = ex.atlas
    worst = {}
    for (n1, z1), (n2, z2) in itertools.combinations(frames.items(), 2):
        re, im = complex_pair_bracket(z1, z2)
        r = 0.0
        for chart in atlas.charts:
            for coords, env in point_envs(chart, FULL_PLAN):
                r = max(r, max_abs(re.at(chart.name, env)))
                r = max(r, max_abs(im.at(chart.name, env)))
        worst[f"[{n1},{n2}]"] = r
    bad = {k: v for k, v in worst.items() if v >= 1e-9}
    _line(
        "02b eigenframe pairwise commutation",
        not bad,
        ", ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )
    assert not bad, (
        f"non-commuting pairs {bad}: the second mixed pair brackets to "
        "twice the sign-graded kernel direction by an exact identity, so "
        "this property fails as stated"
    )


# -- 03: slope family recovery and the constancy dichotomy -------------


def test_acceptance_03_slope_family():
    worst = 0.0
    for a in ("0", "0.7", "-1.3"):
        ex = build_example("main1-family", a=a)
        rec = _run(ex.check("slope_recovery"))
        assert rec.verdict == PASS, f"a={a}: {rec.one_line()}"
        assert rec.max_residual < 1e-8
        integ = _run(ex.check("integrability"))
        assert integ.verdict == PASS, f"a={a}: {integ.one_line()}"
        worst = max(worst, rec.max_residual, integ.max_residual)

    ex_var = build_example("main1-family", a="x")
    job = ex_var.check("integrability")
    assert job.expect == FAIL
    rep = _run(job)
    assert rep.verdict == FAIL
    assert rep.witness is not None, "failing check must carry a witness"
    assert rep.max_residual > 1e-3
    assert rep.seed == FULL_PLAN.seed
    _line(
        "03 slope family",
        True,
        f"constant max {worst:.2e}; varying slope witness {rep.max_residual:.2e}",
    )


# -- 04: the four compatibility flags agree ----------------------------


def test_acceptance_04_flag_battery_agreement():
    struct = standard_darboux_levi(1)
    rep = pin_battery(
        struct.contact,
        struct.phibar,
        count=50,
        seed=42,
        plan=SamplePlan(seed=42, points_per_chart=8),
    )
    ok = rep.verdict == PASS and rep.max_residual == 0.0
    _line(
        "04 flag battery",
        ok,
        f"{rep.details.get('all_true', 0)} all-true / "
        f"{rep.details.get('all_false', 0)} all-false, 0 disagreements",
    )
    assert ok, rep.one_line()


# -- 05: metric decomposition round trip -------------------------------


def _random_base_metric(rng, atlas, tag: int) -> TensorField:
    """Identity plus a small random polynomial perturbation (stays PD)."""
    terms = ("x", "p", "z", "x * p", "p * z", "x * z")
    comps = {}
    for i in range(3):
        for j in range(i, 3):
            c = round(float(rng.uniform(0.02, 0.12)), 3)
            t = terms[int(rng.integers(0, len(terms)))]
            sign = "-" if rng.random() < 0.5 else "+"
            base = "1" if i == j else "0"
            comps[(i, j)] = f"{base} {sign} {c} * {t}"
    return TensorField.from_exprs(
        f"random_pd_{tag}", atlas, (0, 2), {"O": comps}, symmetry="sym"
    )


def test_acceptance_05_decomposition_round_trip():
    base = darboux_contact(1).atlas
    bundle = cone_over(base, "R+")
    scal = abs_s_calibration(bundle)
    plan = SamplePlan(seed=42, points_per_chart=16)
    rng = np.random.default_rng(505)
    worst = 0.0
    for trial in range(5):
        g_m = _random_base_metric(rng, base, trial)
        g = induced_metric(bundle, g_m, scal)
        dec = decompose_homogeneous_metric(bundle, g, scal, plan)
        assert dec.report.verdict == PASS, dec.report.one_line()
        assert dec.calibrated
        worst = max(worst, dec.mu_max)
        chart = base.charts[0]
        for coords, env in point_envs(chart, plan):
            a_val = abs(nk.value_of(dec.A.at(chart.name, env)) - 1.0)
            worst = max(worst, a_val)
            shadow = dec.g_M.at(chart.name, env)
            want = g_m.at(chart.name, env)
            for i in range(3):
                for j in range(3):
                    worst = max(
                        worst, abs(nk.value_of(shadow[i][j] - want[i][j]))
                    )
    ok = worst < 1e-8
    _line("05 decomposition round trip", ok, f"max {worst:.2e} over 5 metrics")
    assert ok


# -- 06: the round three-sphere ----------------------------------------


def test_acceptance_06_sphere():
    ex = build_example("sphere-3")
    struct = ex.structure
    cm = contact_metric_check(struct, replace(FULL_PLAN, tolerance=1e-7))
    sa = sasaki_check(struct, replace(FULL_PLAN, tolerance=1e-7))
    rb = reeb_residual_check(struct.contact, replace(FULL_PLAN, tolerance=1e-9))
    for rep in (cm, sa):
        assert rep.verdict == PASS, rep.one_line()
        assert rep.max_residual < 1e-7
    assert rb.verdict == PASS and rb.max_residual < 1e-9, rb.one_line()
    _line(
        "06 round sphere",
        True,
        f"structure max {max(cm.max_residual, sa.max_residual):.2e}, "
        f"rotation-field max {rb.max_residual:.2e}",
    )


# -- 07: the normalized product ----------------------------------------


def test_acceptance_07_product():
    ex = build_example("product-darboux")
    sa = _run(ex.check("sasaki"))
    assert sa.verdict == PASS and sa.max_residual < 1e-7, sa.one_line()
    rs = _run(ex.check("reeb_is_sum"))
    assert rs.verdict == PASS and rs.max_residual < 1e-9, rs.one_line()
    routes = _run(ex.check("reparametrization_routes"))
    assert routes.verdict == PASS and routes.max_residual < 1e-7, routes.one_line()
    beta = _run(ex.check("slope_form_homogeneous"))
    assert beta.verdict == PASS and beta.max_residual < 1e-9, beta.one_line()
    _line(
        "07 normalized product",
        True,
        f"normality {sa.max_residual:.2e}, routes {routes.max_residual:.2e}",
    )


# -- 08: the paired jet structure --------------------------------------


def test_acceptance_08_paired_jet():
    ex = build_example("mobius-jet")
    struct = ex.structure
    pc = paired_consistency_check(struct, replace(FULL_PLAN, tolerance=1e-8))
    sa = sasaki_check(struct, replace(FULL_PLAN, tolerance=1e-8))
    for rep in (pc, sa):
        assert rep.verdict == PASS and rep.max_residual < 1e-8, rep.one_line()
    loop = _run(ex.check("loop_sign"))
    assert loop.verdict == PASS
    assert loop.details["sign"] == -1.0
    _line(
        "08 paired jet structure",
        True,
        f"chart-wise max {max(pc.max_residual, sa.max_residual):.2e}, "
        "loop sign -1",
    )


# -- 09: engine soundness over the whole gallery -----------------------

SWEEP_PLAN = SamplePlan(seed=42, points_per_chart=2)
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


def _sub(a, b):
    if isinstance(a, (list, tuple)):
        return [_sub(x, y) for x, y in zip(a, b)]
    return a - b


def _field_samples(field, atlas, plan):
    for chart in atlas.charts:
        if chart.name not in field.chart_names():
            continue
        for coords, env in point_envs(chart, plan):
            yield chart.name, env


def _is_two_form(field, atlas) -> bool:
    """(0,2) fields split into forms and metrics; probe antisymmetry once."""
    for chart_name, env in _field_samples(field, atlas, SWEEP_PLAN):
        m = field.at(chart_name, env)
        n = len(m)
        skew = max(
            abs(nk.value_of(m[i][j] + m[j][i])) for i in range(n) for j in range(n)
        )
        return skew < 1e-9
    return False


def test_acceptance_09a_d_squared_zero_on_gallery_fields():
    worst, swept = 0.0, 0
    for key in ALL_KEYS:
        ex = build_example(key)
        for gf in ex.fields:
            p, q = gf.field.valence
            atlas = ex.atlases[gf.atlas_key]
            if p != 0 or q > 2 or (q == 2 and not _is_two_form(gf.field, atlas)):
                continue
            dd = tn.exterior_derivative(tn.exterior_derivative(gf.field))
            for chart_name, env in _field_samples(gf.field, atlas, SWEEP_PLAN):
                worst = max(worst, max_abs(dd.at(chart_name, env)))
            swept += 1
    ok = worst < 1e-8 and swept >= 10
    _line("09a repeated differential vanishes", ok, f"max {worst:.2e}, {swept} fields")
    assert ok, (worst, swept)


def test_acceptance_09b_cartan_formula_on_gallery_fields():
    worst, swept = 0.0, 0
    for key in ALL_KEYS:
        ex = build_example(key)
        by_atlas = {}
        for gf in ex.fields:
            by_atlas.setdefault(gf.atlas_key, []).append(gf)
        for akey, group in by_atlas.items():
            atlas = ex.atlases[akey]
            forms = [g.field for g in group if g.field.valence == (0, 1)]
            vecs = [g.field for g in group if g.field.valence == (1, 0)]
            for alpha, X in itertools.product(forms, vecs):
                charts = sorted(
                    set(alpha.chart_names()) & set(X.chart_names())
                )
                d_alpha = tn.exterior_derivative(alpha)
                lhs = tn.lie_derivative(alpha, X)

                def ixa_ev(chart, env):
                    return tn.contract_form_vector(
                        alpha.at(chart.name, env), X.at(chart.name, env)
                    )

                ixa = TensorField("ixa", atlas, (0, 0), ixa_ev, charts=charts)
                d_ixa = tn.exterior_derivative(ixa)
                for chart in atlas.charts:
                    if chart.name not in charts:
                        continue
                    dim = chart.dim
                    for coords, env in point_envs(chart, SWEEP_PLAN):
                        lv = lhs.at(chart.name, env)
                        dm = d_alpha.at(chart.name, env)
                        xv = X.at(chart.name, env)
                        contracted = [
                            nk.sum_(dm[i][j] * xv[i] for i in range(dim))
                            for j in range(dim)
                        ]
                        dv = d_ixa.at(chart.name, env)
                        worst = max(
                            worst,
                            max_abs(
                                [
                                    l - (c + d)
                                    for l, c, d in zip(lv, contracted, dv)
                                ]
                            ),
                        )
                swept += 1
    ok = worst < 1e-8 and swept >= 4
    _line("09b flow-derivative identity", ok, f"max {worst:.2e}, {swept} pairs")
    assert ok, (worst, swept)


def test_acceptance_09c_jacobi_identity_on_gallery_frames():
    worst, swept = 0.0, 0
    for key in ALL_KEYS:
        ex = build_example(key)
        by_atlas = {}
        for gf in ex.fields:
            if gf.field.valence == (1, 0):
                by_atlas.setdefault(gf.atlas_key, []).append(gf.field)
        for akey, vecs in by_atlas.items():
            atlas = ex.atlases[akey]
            for X, Y, Z in itertools.combinations(vecs, 3):
                total = tn.tf_add(
                    tn.lie_bracket(tn.lie_bracket(X, Y), Z),
                    tn.tf_add(
                        tn.lie_bracket(tn.lie_bracket(Y, Z), X),
                        tn.lie_bracket(tn.lie_bracket(Z, X), Y),
                    ),
                )
                for chart_name, env in _field_samples(X, atlas, SWEEP_PLAN):
                    worst = max(worst, max_abs(total.at(chart_name, env)))
                swept += 1
    ok = worst < 1e-8 and swept >= 4
    _line("09c bracket cyclicity", ok, f"max {worst:.2e}, {swept} triples")
    assert ok, (worst, swept)


def test_acceptance_09d_pullback_commutes_with_d():
    worst, swept = 0.0, 0
    for key in ALL_KEYS:
        ex = build_example(key)
        for gm in ex.maps:
            dst_atlas = ex.atlases[gm.dst_key]
            src_atlas = ex.atlases[gm.src_key]
            for gf in ex.fields:
                if gf.atlas_key != gm.dst_key:
                    continue
                p, q = gf.field.valence
                if p != 0 or q not in (1, 2):
                    continue
                if q == 2 and not _is_two_form(gf.field, dst_atlas):
                    continue
                lhs = tn.exterior_derivative(tn.pullback(gm.map, gf.field))
                rhs = tn.pullback(gm.map, tn.exterior_derivative(gf.field))
                for chart in src_atlas.charts:
                    if chart.name not in gm.map.pieces:
                        continue
                    for coords, env in point_envs(chart, SWEEP_PLAN):
                        worst = max(
                            worst,
                            max_abs(
                                _sub(
                                    lhs.at(chart.name, env),
                                    rhs.at(chart.name, env),
                                )
                            ),
                        )
                swept += 1
    ok = worst < 1e-8 and swept >= 5
    _line("09d pullback naturality", ok, f"max {worst:.2e}, {swept} map/field pairs")
    assert ok, (worst, swept)


def _has_kink(e) -> bool:
    if isinstance(e, el.Call):
        return e.fn in ("abs", "sgn") or _has_kink(e.arg)
    if isinstance(e, el.Bin):
        return _has_kink(e.left) or _has_kink(e.right)
    if isinstance(e, el.Neg):
        return _has_kink(e.arg)
    if isinstance(e, el.Pow):
        return _has_kink(e.base)
    return False


def test_acceptance_09e_dual_derivatives_match_finite_differences():
    """100 random smooth expressions: seeded duals vs central differences."""
    rng = np.random.default_rng(909)
    variables = ["x", "y", "s"]
    h = 1e-6
    checked, attempts = 0, 0
    while checked < 100:
        attempts += 1
        assert attempts < 3000, "generator kept producing unusable draws"
        e = exprgen.random_expr(rng, variables, depth=int(rng.integers(1, 4)))
        if _has_kink(e):
            continue
        matched = False
        for _ in range(6):
            env = exprgen.random_env(rng, variables)
            try:
                tag, duals = nk.seed([env[v] for v in variables])
                denv = dict(zip(variables, duals))
                out = el.eval_expr(e, denv)
                grads = [nk.tangent_at(out, tag, i) for i in range(3)]
                fd = []
                for v in variables:
                    up = dict(env, **{v: env[v] + h})
                    dn = dict(env, **{v: env[v] - h})
                    fd.append(
                        (el.eval_expr(e, up) - el.eval_expr(e, dn)) / (2 * h)
                    )
            except el.EvalDomainError:
                continue
            if not all(math.isfinite(g) for g in fd):
                continue
            err = max(
                abs(g - f) / max(1.0, abs(g)) for g, f in zip(grads, fd)
            )
            if err < 1e-6:
                matched = True
                break
            # re-draw: central differences lose accuracy near steep spots
        assert matched, f"derivative mismatch persists for {el.pretty(e)}"
        checked += 1
    _line("09e dual derivatives vs finite differences", True, f"{checked} expressions")


# -- 10: determinism and budget ----------------------------------------


def test_acceptance_10_verify_all_deterministic_and_fast(tmp_path):
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    cmd = [sys.executable, "-m", "sasaki_lab.cli", "verify", "all", "--json"]
    t0 = time.perf_counter()
    r1 = subprocess.run(
        cmd + [str(out1)], capture_output=True, text=True, timeout=400
    )
    elapsed = time.perf_counter() - t0
    assert r1.returncode == 0, r1.stdout + r1.stderr
    r2 = subprocess.run(
        cmd + [str(out2)], capture_output=True, text=True, timeout=400
    )
    assert r2.returncode == 0, r2.stdout + r2.stderr
    identical = out1.read_bytes() == out2.read_bytes()
    reports = json.loads(out1.read_text())
    ok = identical and elapsed < 120.0 and len(reports) >= 80
    _line(
        "10 determinism and budget",
        ok,
        f"{len(reports)} reports, {elapsed:.1f}s, byte-identical={identical}",
    )
    assert identical, "full-gallery JSON differs between identical runs"
    assert elapsed < 120.0, f"full gallery took {elapsed:.1f}s"
