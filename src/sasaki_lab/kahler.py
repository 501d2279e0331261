"""Compatibility tensors, integrability, and metric reconstruction on cones.

Given a symplectic form and a metric, `compatibility_tensor` produces the
unique endomorphism J with g(X, Y) = ω(X, J(Y)); compatibility means J is
an almost complex structure, Kähler means its torsion also vanishes.

`reconstruct_main1` inverts the construction on a scaling cone whose
metric calibrates to the fiber coordinate: it recovers the slope function
relating the two canonical vertical directions (the Reeb lift and the
scaling field), the base contact-metric data, and certifies the predicted
2×2 action of J on the vertical plane.  The slope is constant exactly when
the pair is Kähler, which `kahler_integrability_check` decides with an
explicit inconclusive band between its pass and fail thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import exprlang, numkernel as nk
from .bundle import FIBER, PrincipalBundle
from .contact import ContactStructure, contact_frame
from .manifold import Atlas, Chart, SamplePlan, TransitionMap, TransitionPiece
from .report import CheckReport, max_or_nan, run_residual_check
from .sasaki import LeviStructure
from .tensor import TensorField, max_abs, nijenhuis, tf_combine, vanishing, zeros


class NotCompatible(ValueError):
    """The candidate pair does not square to minus the identity."""


@dataclass
class KahlerCandidate:
    """A homogeneous (ω, g) pair on a scaling bundle with its derived J."""

    bundle: PrincipalBundle
    omega: TensorField
    g: TensorField
    J: TensorField
    scal: TensorField  # 𝔰 = g(∇, ∇)


def kahler_candidate(
    bundle: PrincipalBundle,
    omega: TensorField,
    g: TensorField,
    plan: SamplePlan,
) -> KahlerCandidate:
    """Check the degree laws, then derive J and the metric calibration."""
    from .bundle import g_calibration, require_homogeneous

    require_homogeneous(omega, 1, "plain", plan, bundle)
    require_homogeneous(g, 1, "positive", plan, bundle)
    return KahlerCandidate(
        bundle=bundle,
        omega=omega,
        g=g,
        J=compatibility_tensor(omega, g),
        scal=g_calibration(bundle, g),
    )


def kahlerianization(
    L: LeviStructure, slope: Union[float, str] = 0.0
) -> KahlerCandidate:
    """The homogeneous (ω, g) pair on the cone over a Levi structure.

    ω is the canonical homogeneous 2-form; g is the degree-1 metric
    s((ds/s + a·η)² + g_M) from the slope a and the structure's own
    η² + transverse metric.  A zero slope and a normal structure give a
    Kähler pair; a non-constant slope obstructs integrability while
    leaving every pointwise check intact.
    """
    from .bundle import g_calibration, symplectize

    C = L.contact
    bundle, omega = symplectize(C)
    g_M = L.metric()
    a_expr = (
        exprlang.parse(repr(float(slope)))
        if isinstance(slope, (int, float))
        else exprlang.parse(slope)
    )

    def cone_metric(chart, env):
        si = chart.index(FIBER)
        s = env[FIBER]
        # calibration |s| on two-sided cones keeps g positive there
        mag = nk.absolute(s) if bundle.group == "Rx" else s
        base_env = bundle.base_env(env)
        etav = C.eta.at(chart.name, base_env)
        gmb = g_M.at(chart.name, base_env)
        a = exprlang.eval_expr(a_expr, base_env)
        dim = len(etav) + 1
        keep = [j for j in range(dim) if j != si]
        out = [[0.0] * dim for _ in range(dim)]
        out[si][si] = mag / (s * s)
        for jb, j in enumerate(keep):
            out[si][j] = (mag / s) * a * etav[jb]
            out[j][si] = out[si][j]
            for kb, k in enumerate(keep):
                out[j][k] = mag * (
                    a * a * etav[jb] * etav[kb] + gmb[jb][kb]
                )
        return out

    g = TensorField(f"cone_metric({L.name})", bundle.total, (0, 2), cone_metric)
    return KahlerCandidate(
        bundle=bundle,
        omega=omega,
        g=g,
        J=compatibility_tensor(omega, g),
        scal=g_calibration(bundle, g),
    )


def compatibility_tensor(omega: TensorField, g: TensorField) -> TensorField:
    """J with g(X, Y) = ω(X, J(Y)), i.e. J = Ω⁻¹G chart-matrix-wise.

    Both flats contract the second argument; the solve keeps J usable
    inside derivative sweeps.  Raises SingularMatrix where ω degenerates.
    """
    return tf_combine(
        f"compatibility({omega.name},{g.name})",
        (1, 1),
        [omega, g],
        lambda cs, env: nk.solve_linear(*cs),
    )


def almost_complex_check(J: TensorField, plan: SamplePlan) -> CheckReport:
    """max ‖J² + id‖ over samples."""

    def residual(chart, coords, env):
        m = J.at(chart, env)
        dim = len(m)
        return max_abs([
            nk.value_of(nk.sum_(m[i][k] * m[k][j] for k in range(dim)))
            + (1.0 if i == j else 0.0)
            for i in range(dim)
            for j in range(dim)
        ])

    return run_residual_check("almost_complex", J.atlas, residual, plan)


def kahler_integrability_check(J: TensorField, plan: SamplePlan) -> CheckReport:
    """max ‖N_J‖; residuals between tolerance and 1e-3 are inconclusive."""
    return run_residual_check(
        "kahler_integrability",
        J.atlas,
        vanishing(nijenhuis(J)),
        plan,
        fail_floor=1e-3,
    )


def compatibility_check(
    omega: TensorField,
    g: TensorField,
    J: TensorField,
    plan: SamplePlan,
) -> CheckReport:
    """Defining identity plus isometry/symplectomorphism invariances."""

    def residual(chart, coords, env):
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

    return run_residual_check("compatibility_identity", J.atlas, residual, plan)


# -- reconstruction on a calibrated cone -------------------------------


@dataclass
class Main1Result:
    slope: TensorField  # base scalar a with g(∇, ξ-lift) = s·a
    g_M: TensorField  # base (0,2) contact-metric
    phi_C: TensorField  # base (1,1): J restricted to the contact planes
    J: TensorField  # total-space compatibility tensor
    report: CheckReport


def vertical_slope(
    C: ContactStructure, bundle: PrincipalBundle, g: TensorField
) -> TensorField:
    """The base scalar a with g(∇, ξ-lift) = s·a, read at the unit lift."""
    xi = C.reeb()

    def slope(chart, env):
        si = bundle.fiber_index(chart.name)
        env_t = bundle.lift_env(env)
        gm = g.at(chart.name, env_t)
        xiv = xi.at(chart.name, env)
        keep = [j for j in range(len(gm)) if j != si]
        # a = g(∇, ξ)/s = Σ g_{s j} ξ^j; the mixed block carries no
        # fiber factor for a degree-1 metric, so the unit lift suffices
        return nk.sum_(gm[si][j] * xiv[jb] for jb, j in enumerate(keep))

    return TensorField("vertical_slope", bundle.base, (0, 0), slope)


def reconstruct_main1(
    C: ContactStructure,
    bundle: PrincipalBundle,
    g: TensorField,
    J: TensorField,
    plan: SamplePlan,
) -> Main1Result:
    """Recover the slope, base metric, and vertical J-action from (g, J).

    J is the pair's compatibility tensor.  Requires the metric to
    calibrate to the fiber coordinate (g(∇,∇) = s).  The vertical plane W
    is spanned by the lifted Reeb field and the scaling field; the
    certified facts are:

      * J restricted to W equals [[a, 1], [−(1+a²), −a]] (columns are
        the images of ξ and ∇),
      * W and the contact planes are J-invariant,
      * ‖ξ‖² = s(1+a²) and W ⟂ C,
      * the base metric extracted at the unit-fiber lift, η² removed of
        the slope contribution, reassembles g.
    """
    xi = C.reeb()
    slope = vertical_slope(C, bundle, g)

    def base_metric(chart, env):
        env_t = bundle.lift_env(env)
        gm = g.at(chart.name, env_t)
        etav = C.eta.at(chart.name, env)
        a = slope.at(chart.name, env)
        si = bundle.fiber_index(chart.name)
        keep = [j for j in range(len(gm)) if j != si]
        return [
            [
                gm[j][k] - a * a * etav[jb] * etav[kb]
                for kb, k in enumerate(keep)
            ]
            for jb, j in enumerate(keep)
        ]

    g_M = TensorField("reconstructed_base_metric", bundle.base, (0, 2), base_metric)

    def contact_endo(chart, env):
        si = bundle.fiber_index(chart.name)
        env_t = bundle.lift_env(env)
        m = J.at(chart.name, env_t)
        etav = C.eta.at(chart.name, env)
        xiv = xi.at(chart.name, env)
        keep = [j for j in range(len(m)) if j != si]
        # v ↦ J(v − η(v)ξ): the base block of J minus the base part
        # of J(ξ) spread along η, so the Reeb direction maps to zero
        jxi = [
            nk.sum_(m[k][l] * xiv[lb] for lb, l in enumerate(keep))
            for k in keep
        ]
        return [
            [m[k][j] - etav[jb] * jxi[kb] for jb, j in enumerate(keep)]
            for kb, k in enumerate(keep)
        ]

    phi_C = TensorField(
        "reconstructed_contact_endo", bundle.base, (1, 1), contact_endo
    )

    worst = {
        "calibration": 0.0,
        "square": 0.0,
        "vertical_matrix": 0.0,
        "vertical_invariance": 0.0,
        "contact_invariance": 0.0,
        "reeb_norm": 0.0,
        "orthogonality": 0.0,
        "reassembly": 0.0,
    }

    def residual(chart, coords, env):
        si = bundle.fiber_index(chart)
        dim = bundle.total.chart(chart).dim
        s = env[FIBER]
        base_env = bundle.base_env(env)
        m = J.at(chart, env)
        gm = g.at(chart, env)
        etav = [nk.value_of(v) for v in C.eta.at(chart, base_env)]
        xiv = [nk.value_of(v) for v in xi.at(chart, base_env)]
        a = nk.value_of(slope.at(chart, base_env))

        r_cal = abs(nk.value_of(gm[si][si]) * s * s - s)

        r_sq = max_abs([
            nk.value_of(nk.sum_(m[i][k] * m[k][j] for k in range(dim)))
            + (1.0 if i == j else 0.0)
            for i in range(dim)
            for j in range(dim)
        ])
        if r_sq > 1e-6:
            raise NotCompatible(
                f"J² + id reaches {r_sq:.3e} at {coords} in chart {chart}"
            )

        # vertical vectors in coordinates
        xi_t = [0.0] * dim
        nabla = [0.0] * dim
        for jb, j in enumerate(k for k in range(dim) if k != si):
            xi_t[j] = xiv[jb]
        nabla[si] = s

        def matvec(v):
            return [
                nk.value_of(nk.sum_(m[k][j] * v[j] for j in range(dim)))
                for k in range(dim)
            ]

        def eta_of(v):
            vb = [v[j] for j in range(dim) if j != si]
            return sum(e * c for e, c in zip(etav, vb))

        def ds_over_s(v):
            return v[si] / s

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
        r_w = max_abs([got[k] - want[k] for k in want])

        # W-invariance: the images minus their W-projections vanish
        rems = []
        for img in (jxi, jnab):
            alpha, beta = eta_of(img), ds_over_s(img)
            rems += [img[j] - alpha * xi_t[j] - beta * nabla[j] for j in range(dim)]
        r_winv = max_abs(rems)

        # C-invariance: kernel frame vectors stay in ker η ∩ ker ds
        fr = contact_frame(C, chart, base_env)
        cinv, orth = [], []
        for vec in fr.vectors:
            lift = [0.0] * dim
            for jb, j in enumerate(k for k in range(dim) if k != si):
                lift[j] = nk.value_of(vec[jb])
            img = matvec(lift)
            cinv += [eta_of(img), img[si]]
            for w_vec in (xi_t, nabla):
                orth.append(
                    nk.sum_(
                        gm[i][j] * w_vec[i] * lift[j]
                        for i in range(dim)
                        for j in range(dim)
                    )
                )
        r_cinv, r_orth = max_abs(cinv), max_abs(orth)

        norm_xi = nk.value_of(
            nk.sum_(
                gm[i][j] * xi_t[i] * xi_t[j]
                for i in range(dim)
                for j in range(dim)
            )
        )
        r_norm = abs(norm_xi - s * (1.0 + a * a))

        # reassembly: g = s((ds/s + aη)² + g_M) against the extraction
        gmb = g_M.at(chart, base_env)
        keep = [j for j in range(dim) if j != si]
        asm = []
        for ib, i in enumerate(keep):
            for jb, j in enumerate(keep):
                want_ij = s * (
                    a * a * etav[ib] * etav[jb] + nk.value_of(gmb[ib][jb])
                )
                asm.append(nk.value_of(gm[i][j]) - want_ij)
            mixed = s * (1.0 / s) * a * etav[ib]  # g(∂s, ∂_i) = a·η_i
            asm.append(nk.value_of(gm[si][i]) - mixed)
        asm.append(nk.value_of(gm[si][si]) - 1.0 / s)
        clauses = {
            "calibration": r_cal,
            "square": r_sq,
            "vertical_matrix": r_w,
            "vertical_invariance": r_winv,
            "contact_invariance": r_cinv,
            "orthogonality": r_orth,
            "reeb_norm": r_norm,
            "reassembly": max_abs(asm),
        }
        for name, r in clauses.items():
            worst[name] = max_or_nan([worst[name], r])
        return max_or_nan(list(clauses.values()))

    report = run_residual_check(
        "main_reconstruction",
        bundle.total,
        residual,
        plan,
        details=worst,
    )
    report.details["failed_clauses"] = sorted(
        name for name, value in worst.items() if value > plan.tolerance
    )
    return Main1Result(slope=slope, g_M=g_M, phi_C=phi_C, J=J, report=report)


# -- complex structures on the product with a line ---------------------


LINE_COORD = "t"


def line_extension(atlas: Atlas, box=(-1.0, 1.0)) -> Atlas:
    """Append a line coordinate to every chart; transitions fix it."""
    charts = [
        Chart(
            c.name,
            c.coords + (LINE_COORD,),
            c.box + (box,),
            excluded=c.excluded,
            margin=c.margin,
        )
        for c in atlas.charts
    ]
    ident = exprlang.parse(LINE_COORD)
    transitions = [
        TransitionMap(
            t.source,
            t.target,
            tuple(
                TransitionPiece(
                    piece.box + (box,),
                    piece.forward + (ident,),
                    piece.inverse + (ident,),
                )
                for piece in t.pieces
            ),
        )
        for t in atlas.transitions
    ]
    return Atlas(charts, transitions)


def cone_complex_structure(
    L: LeviStructure,
    slope: Union[float, str] = 0.0,
    box=(-1.0, 1.0),
) -> TensorField:
    """The endomorphism of M×ℝ built from a Levi structure and a slope.

    On vectors (X, f∂t) it acts as

        (X, f) ↦ (φX − (a·η(X) + f)ξ,  (a·f + (1+a²)·η(X)) ∂t)

    with φ the metric-compatible sign.  It squares to −id for every
    slope, constant or not; its torsion vanishes exactly when the slope
    is constant and the underlying structure is normal.
    """
    C = L.contact
    phi = L.phi_gas()
    xi = C.reeb()
    ext = line_extension(C.atlas, box)
    a_expr = (
        exprlang.parse(repr(float(slope)))
        if isinstance(slope, (int, float))
        else exprlang.parse(slope)
    )

    def components(chart, env):
        ph = phi.at(chart.name, env)
        xiv = xi.at(chart.name, env)
        etav = C.eta.at(chart.name, env)
        a = exprlang.eval_expr(a_expr, env)
        n = len(xiv)
        out = zeros(n + 1, 2)
        for k in range(n):
            for j in range(n):
                out[k][j] = ph[k][j] - a * etav[j] * xiv[k]
            out[k][n] = -xiv[k]
            out[n][k] = (1.0 + a * a) * etav[k]
        out[n][n] = a
        return out

    return TensorField(f"line_extension_endo({L.name})", ext, (1, 1), components)
