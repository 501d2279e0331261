"""Compatibility tensors, integrability, and metric reconstruction on cones.

Given a symplectic form and a metric, `compatibility_tensor` produces the
unique endomorphism J with g(X, Y) = ω(X, J(Y)); compatibility means J is
an almost complex structure, Kähler means its torsion also vanishes.

`reconstruct_main1` inverts the construction on a scaling cone whose
metric calibrates to the fiber coordinate: it recovers the slope function
relating the two canonical vertical directions (`vertical_frame`: the
Reeb lift and the scaling field) and the base contact metric, and
certifies the predicted 2×2 action of J on the vertical plane in eight
clauses declared over fields, J² = −id among them.  The slope is constant
exactly when the pair is Kähler, which `kahler_integrability_check`
decides with an explicit inconclusive band between its pass and fail
thresholds.
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
    contract_form_vector,
    identity,
    named,
    nijenhuis,
    tf_combine,
    vanishing,
)


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
    slope: TensorField  # base scalar a with g(∇, ξ̃) = s·a
    g_M: TensorField  # base (0,2) contact-metric
    report: CheckReport


def vertical_frame(
    C: ContactStructure, bundle: PrincipalBundle, g: TensorField
) -> tuple[TensorField, TensorField, TensorField]:
    """(ξ̃, ∇, a): the Reeb field lifted to the total space (fiber
    component 0) and the scaling field ∇ = s∂ₛ, which span the vertical
    plane, and the base scalar a with g(∇, ξ̃) = s·a, read at the unit
    lift."""
    xi = C.reeb()

    def slope(chart, env):
        gm = g.at(chart.name, bundle.lift_env(env))
        xiv = xi.at(chart.name, env)
        # a = g(∇, ξ)/s = Σ g_{s j} ξ^j; the mixed block carries no
        # fiber factor for a degree-1 metric, so the unit lift suffices
        return nk.sum_(g_sj * x for g_sj, x in zip(gm[-1], xiv))

    def scaling(chart, env):
        return [0.0] * (chart.dim - 1) + [env[FIBER]]

    return (
        bundle.on_total(xi, 0.0),
        TensorField("scaling", bundle.total, (1, 0), scaling),
        TensorField("vertical_slope", bundle.base, (0, 0), slope),
    )


def reconstruct_main1(
    C: ContactStructure,
    bundle: PrincipalBundle,
    g: TensorField,
    J: TensorField,
    plan: SamplePlan,
) -> Main1Result:
    """Recover the slope and base metric from (g, J) and certify the
    vertical J-action.

    J is the pair's compatibility tensor.  The vertical plane W is spanned
    by ξ̃ and ∇ (`vertical_frame`), the contact planes by the lifts of the
    base's `kernel_frames` fields (`PrincipalBundle.on_total`), built
    before any point is evaluated.  The clauses are declared once, as
    `named` `vanishing`/`agreeing` identities of fields on every sampled
    chart; ds/s(v) is v's fiber component over s and η(v) sums over the
    base components:

    * ``calibration``: g(∂ₛ, ∂ₛ)·s·s = s, i.e. g(∇, ∇) = s;
    * ``square``: J² = −id (`squares_to_minus_id`);
    * ``vertical_matrix``: (η, ds/s) of Jξ̃ and J∇ are the columns of
      [[a, 1], [−(1+a²), −a]];
    * ``vertical_invariance``: Jξ̃ and J∇ minus their W-projections vanish;
    * ``contact_invariance``: η and ds vanish on the images of the frames;
    * ``reeb_norm``: g(ξ̃, ξ̃) = s(1+a²), summed i outer, j inner;
    * ``orthogonality``: g(ξ̃, F̃) and g(∇, F̃) vanish for every frame lift
      F̃, summed the same way;
    * ``reassembly``: g = s((ds/s + aη)² + g_M) against the base metric
      extracted at the unit-fiber lift, η² removed of the slope
      contribution: g's base rows with their mixed entries g(∂ₛ, ∂_i),
      then g(∂ₛ, ∂ₛ) = 1/s.

    ``details`` holds each clause's worst value and ``failed_clauses`` the
    clauses above ``plan.tolerance``.
    """
    xi_t, nabla, slope = vertical_frame(C, bundle, g)

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
    eta_t, a_t, g_M_t = (bundle.on_total(F) for F in (C.eta, slope, g_M))

    def w_coords(v, over_s):  # (η(v), ds(v)), or (η(v), ds(v)/s) if `over_s`
        def fn(cs, env):
            etav, vv = cs
            return [contract_form_vector(etav, vv), vv[-1] / env[FIBER] if over_s else vv[-1]]

        return tf_combine(f"(η,ds)({v.name})", (1, 0), [eta_t, v], fn)

    def g_of(w, v):  # g(w, v) = Σ_ij g_ij·w^i·v^j, i outer, j inner
        def fn(cs, env):
            gm, wv, vv = cs
            n = range(len(wv))
            return nk.sum_(gm[i][j] * wv[i] * vv[j] for i in n for j in n)

        return tf_combine(f"{g.name}({w.name},{v.name})", (0, 0), [g, w, v], fn)

    def off_plane(img, coords):  # img − η(img)·ξ̃ − ds/s(img)·∇
        def fn(cs, env):
            iv, (alpha, beta), xv, nv = cs
            return [i - alpha * x - beta * w for i, x, w in zip(iv, xv, nv)]

        return tf_combine(f"{img.name}−W", (1, 0), [img, coords, xi_t, nabla], fn)

    def calibration(cs, env):
        s = env[FIBER]
        return cs[0][-1][-1] * s * s - s

    def matrix_xi(cs, env):  # the column of ξ
        return [cs[0], -(1.0 + cs[0] * cs[0])]

    def matrix_nabla(cs, env):  # the column of ∇
        return [1.0, -cs[0]]

    def reeb_norm(cs, env):
        return env[FIBER] * (1.0 + cs[0] * cs[0])

    def reassembly(cs, env):  # g's base rows, each with its mixed entry, then g_ss
        gm, gmb, etav, a = cs
        s = env[FIBER]
        n = len(etav)
        out = []
        for i in range(n):
            out += [gm[i][j] - s * (a * a * etav[i] * etav[j] + gmb[i][j]) for j in range(n)]
            out.append(gm[n][i] - s * (1.0 / s) * a * etav[i])  # g(∂ₛ, ∂_i) = a·η_i
        out.append(gm[n][n] - 1.0 / s)
        return out

    j_xi, j_nabla = compose(J, xi_t), compose(J, nabla)
    w_xi, w_nabla = w_coords(j_xi, True), w_coords(j_nabla, True)

    lifts = [bundle.on_total(F, 0.0) for F in kernel_frames(C, plan)]
    clauses = named(
        calibration=vanishing(tf_combine("g(∇,∇)−s", (0, 0), [g], calibration)),
        square=squares_to_minus_id(J),
        vertical_matrix=agreeing(
            (w_xi, tf_combine("(a,−(1+a²))", (1, 0), [a_t], matrix_xi)),
            (w_nabla, tf_combine("(1,−a)", (1, 0), [a_t], matrix_nabla)),
        ),
        vertical_invariance=vanishing(off_plane(j_xi, w_xi), off_plane(j_nabla, w_nabla)),
        contact_invariance=vanishing(*(w_coords(compose(J, F), False) for F in lifts)),
        reeb_norm=agreeing(
            (g_of(xi_t, xi_t), tf_combine("s(1+a²)", (0, 0), [a_t], reeb_norm))
        ),
        orthogonality=vanishing(*(g_of(w, F) for F in lifts for w in (xi_t, nabla))),
        reassembly=vanishing(
            tf_combine("g−reassembled", (0, 2), [g, g_M_t, eta_t, a_t], reassembly)
        ),
    )
    report = run_residual_check("main_reconstruction", bundle.total, clauses, plan)
    report.details["failed_clauses"] = sorted(
        name for name, value in report.details.items() if not value <= plan.tolerance
    )
    return Main1Result(slope=slope, g_M=g_M, report=report)
