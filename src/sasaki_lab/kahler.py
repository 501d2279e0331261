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
from typing import Callable, Union

from . import exprlang, numkernel as nk
from .bundle import FIBER, PrincipalBundle, symplectize
from .contact import ContactStructure, kernel_frames
from .manifold import SamplePlan
from .report import CheckReport, run_residual_check
from .sasaki import LeviStructure
from .tensor import (
    TensorField,
    agreeing,
    compose,
    congruence,
    identity,
    max_abs,
    nijenhuis,
    tf_combine,
    vanishing,
)


class NotCompatible(ValueError):
    """The candidate pair does not square to minus the identity."""


@dataclass
class KahlerCandidate:
    """A homogeneous (ω, g) pair on a scaling bundle with its derived J."""

    bundle: PrincipalBundle
    omega: TensorField
    g: TensorField
    J: TensorField


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
    C = L.contact
    bundle, omega = symplectize(C)
    g_M = L.metric()
    a_expr = exprlang.parse(
        repr(float(slope)) if isinstance(slope, (int, float)) else slope
    )

    def cone_metric(chart, env):
        s = env[FIBER]
        # calibration |s| on two-sided cones keeps g positive there
        mag = nk.absolute(s) if bundle.group == "Rx" else s
        base_env = bundle.base_env(env)
        etav = C.eta.at(chart.name, base_env)
        gmb = g_M.at(chart.name, base_env)
        a = exprlang.eval_expr(a_expr, base_env)
        n = len(etav)
        # the base block, each row ending in the mixed entry, then the fiber row
        out = [
            [mag * (a * a * etav[j] * etav[k] + gmb[j][k]) for k in range(n)]
            + [(mag / s) * a * etav[j]]
            for j in range(n)
        ]
        out.append([row[n] for row in out] + [mag / (s * s)])
        return out

    g = TensorField(f"cone_metric({L.name})", bundle.total, (0, 2), cone_metric)
    return KahlerCandidate(
        bundle=bundle,
        omega=omega,
        g=g,
        J=compatibility_tensor(omega, g),
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


def squares_to_minus_id(J: TensorField) -> Callable:
    """Residual of J² = −id: the largest |J² + id| component."""
    return agreeing((compose(J, J), identity(J.atlas), -1.0))


def almost_complex_check(J: TensorField, plan: SamplePlan) -> CheckReport:
    """max ‖J² + id‖ over samples."""
    return run_residual_check("almost_complex", J.atlas, squares_to_minus_id(J), plan)


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
    identities = agreeing(
        (g, compose(omega, J)), (congruence(g, J), g), (congruence(omega, J), omega)
    )
    return run_residual_check("compatibility_identity", J.atlas, identities, plan)


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
        gm = g.at(chart.name, bundle.lift_env(env))
        xiv = xi.at(chart.name, env)
        # a = g(∇, ξ)/s = Σ g_{s j} ξ^j; the mixed block carries no
        # fiber factor for a degree-1 metric, so the unit lift suffices
        return nk.sum_(g_sj * x for g_sj, x in zip(gm[-1], xiv))

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

    The contact planes are spanned by the base chart's `kernel_frames`
    fields, built before any point is evaluated.
    """
    xi = C.reeb()
    frames = kernel_frames(C, plan)
    slope = vertical_slope(C, bundle, g)
    square = squares_to_minus_id(J)

    def base_metric(chart, env):
        gm = g.at(chart.name, bundle.lift_env(env))
        etav = C.eta.at(chart.name, env)
        a = slope.at(chart.name, env)
        n = len(etav)
        return [
            [gm[j][k] - a * a * etav[j] * etav[k] for k in range(n)]
            for j in range(n)
        ]

    g_M = TensorField("reconstructed_base_metric", bundle.base, (0, 2), base_metric)

    def contact_endo(chart, env):
        m = J.at(chart.name, bundle.lift_env(env))
        etav = C.eta.at(chart.name, env)
        xiv = xi.at(chart.name, env)
        n = len(xiv)
        # v ↦ J(v − η(v)ξ): the base block of J minus the base part
        # of J(ξ) spread along η, so the Reeb direction maps to zero
        jxi = [nk.sum_(m_kl * x for m_kl, x in zip(m[k], xiv)) for k in range(n)]
        return [[m[k][j] - etav[j] * jxi[k] for j in range(n)] for k in range(n)]

    phi_C = TensorField(
        "reconstructed_contact_endo", bundle.base, (1, 1), contact_endo
    )

    def residual(chart, coords, env):
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

        r_sq = square(chart, coords, env)
        if r_sq > 1e-6:
            raise NotCompatible(
                f"J² + id reaches {r_sq:.3e} at {coords} in chart {chart}"
            )

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
        for F in frames[chart]:
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

    report = run_residual_check("main_reconstruction", bundle.total, residual, plan)
    report.details["failed_clauses"] = sorted(
        name for name, value in report.details.items() if not value <= plan.tolerance
    )
    return Main1Result(slope=slope, g_M=g_M, phi_C=phi_C, J=J, report=report)

