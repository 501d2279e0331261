"""Scaling bundles over chart atlases: cones, homogeneity, metric splitting.

A bundle here is a base atlas with one extra fiber coordinate ``s`` appended
last to every chart (`manifold.append_coordinate`).  This module, `kahler`
and `corpus` rely on that layout: they read the fiber as the last index and
the base coordinates as the indices before it.  The structure group is
either the positive reals ("R+", fiber box [0.5, 2]) or the nonzero reals
("Rx", fiber box [−2, 2] minus a band around 0); transitions multiply ``s``
by a locally constant sign — the *sign cocycle* — which is what makes
non-trivializable examples representable at all.

`homogeneity_check` verifies h_ν-pullback laws in three modes:

* ``plain``    — pullback equals ν^k · K (2-forms of the cone type),
* ``positive`` — pullback equals |ν|^k · K (metrics, calibrations),
* ``half``     — pullback equals sgn(ν)·|ν|^k · K (paired endomorphisms).

A calibration is a positive degree-1 function 𝔰 on the total space, such
as the fiber coordinate itself (`abs_s_calibration`, |s| on "Rx" cones).
`decompose_homogeneous_metric` splits a degree-1 positively homogeneous
metric along a calibration into fiber weight A, mixed one-form μ, and a
base "shadow" metric; the shadow is invariant under re-calibration, which a
unit test exercises by decomposing the same metric against two different
calibrations.  `induced_metric` goes the other way, from a shadow and a
calibration to the homogeneous metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from . import exprlang, numkernel as nk
from .contact import NONDEGENERACY_THRESHOLD, ContactStructure, nondegeneracy_shortfall
from .manifold import (
    Atlas,
    PointEnv,
    SamplePlan,
    TransitionMap,
    TransitionPiece,
    append_coordinate,
)
from .report import CheckReport, max_or_nan, run_residual_check
from .tensor import (
    SmoothMap,
    TensorField,
    agreeing,
    exterior_derivative,
    field_jet,
    max_abs,
    pullback,
    vanishing,
    zeros,
)

if TYPE_CHECKING:
    from .product import ProductBundle

FIBER = "s"
# the fiber box and excluded band of each structure group
_FIBER_BOXES = {"R+": ((0.5, 2.0), None), "Rx": ((-2.0, 2.0), (-0.5, 0.5))}


class NotHomogeneous(ValueError):
    """The field failed its homogeneity law beyond tolerance."""


class NotPositiveDefinite(ValueError):
    """A metric candidate has a non-positive direction at a sample."""


@dataclass
class PrincipalBundle:
    name: str
    total: Atlas
    base: Atlas
    group: str  # "R+" or "Rx"

    def lift_env(self, base_env: dict, s=1.0) -> PointEnv:
        """A base point's env lifted to fiber height `s`, with a fresh memo."""
        return PointEnv({**base_env, FIBER: s})

    def base_env(self, env: dict) -> PointEnv:
        """A total-space env restricted to the base coordinates, fresh memo."""
        return PointEnv({c: v for c, v in env.items() if c != FIBER})

    def scaling(self, nu: float) -> SmoothMap:
        """h_ν: multiply the fiber coordinate by ν, chart by chart."""
        table = {}
        for chart in self.total.charts:
            exprs = tuple(
                exprlang.parse(f"{nu!r} * {c}" if c == FIBER else c)
                for c in chart.coords
            )
            table[chart.name] = (chart.name, exprs)
        return SmoothMap(f"scale({nu})", self.total, self.total, table)

    def transition_sign(self, t: TransitionMap, piece: TransitionPiece) -> float:
        """Sign of ∂s'/∂s at the piece center (locally constant cocycle)."""
        src = self.total.chart(t.source)
        center = {
            c: (lo + hi) / 2.0 for c, (lo, hi) in zip(src.coords, piece.box)
        }
        if abs(center[FIBER]) < 0.75:  # keep clear of an excluded band
            center[FIBER] = 1.0
        tag = nk.new_tag()
        center[FIBER] = nk.DScalar(center[FIBER], (1.0,), tag)
        out = exprlang.eval_expr(piece.forward[-1], center)
        d = nk.value_of(nk.tangent_at(out, tag, 0))
        return math.copysign(1.0, d)


def loop_sign(atlas: Atlas, sign_fn: Callable, path) -> float:
    """Product of sign_fn(transition, piece) along [(src, tgt, piece_idx), ...].

    With a bundle's total atlas and `PrincipalBundle.transition_sign` it
    is the fiber cocycle's sign around the loop.
    """
    sign = 1.0
    for src, tgt, idx in path:
        t = atlas.transition(src, tgt)
        sign *= sign_fn(t, t.pieces[idx])
    return sign


def cone_over(
    base: Atlas,
    group: str = "R+",
    cocycle: Optional[Callable] = None,
    name: str = "cone",
) -> PrincipalBundle:
    """Attach a scaling fiber to every chart of the base atlas.

    cocycle(transition, piece) -> ±1 chooses the fiber sign on overlaps
    (default +1 everywhere); −1 requires group "Rx".
    """
    if group not in _FIBER_BOXES:
        raise ValueError(f"unknown structure group {group!r}")

    def sign(t: TransitionMap, piece: TransitionPiece) -> float:
        eps = 1.0 if cocycle is None else cocycle(t, piece)
        if eps < 0 and group != "Rx":
            raise ValueError("sign-flipping cocycle needs group 'Rx'")
        return eps

    box, band = _FIBER_BOXES[group]
    total = append_coordinate(base, FIBER, box, band, sign)
    return PrincipalBundle(name, total, base, group)


def symplectize(C: ContactStructure) -> tuple[PrincipalBundle, TensorField]:
    """The homogeneous 2-form ds∧η + s·dη on a cone over the contact base.

    Paired structures (those with a ``transition_sign``) symplectize on an
    "Rx" cone whose cocycle is that sign pattern; the sign flips of η and s
    cancel, making ω a single-valued 2-form upstairs.  The others get an
    "R+" cone.
    """
    group = "R+" if C.transition_sign is None else "Rx"
    P = cone_over(C.atlas, group, C.transition_sign, name=f"cone({C.name})")

    def components(chart, env):
        n = chart.dim - 1  # the base block, then the fiber row
        s = env[FIBER]
        vals, parts = field_jet(C.eta, chart.name, env)
        out = zeros(n + 1, 2)
        for i in range(n):
            out[n][i] = vals[i]
            out[i][n] = -vals[i]
            for j in range(n):
                out[i][j] = s * (parts[i][j] - parts[j][i])
        return out

    omega = TensorField(f"symplectization({C.name})", P.total, (0, 2), components)
    return P, omega


def symplectic_check(omega: TensorField, plan: SamplePlan) -> CheckReport:
    """Closedness (dω = 0) and pointwise nondegeneracy of a 2-form."""
    closed = vanishing(exterior_derivative(omega))

    def residual(chart, coords, env):
        rows = [[nk.value_of(x) for x in row] for row in omega.at(chart, env)]
        shortfall = nondegeneracy_shortfall(abs(nk.determinant(rows)))
        return max_or_nan([closed(chart, coords, env), shortfall])

    return run_residual_check(
        "symplectic_form",
        omega.atlas,
        residual,
        plan,
        details={"nondegeneracy_threshold": NONDEGENERACY_THRESHOLD},
    )


_SCALES = {"R+": (0.5, 2.0), "Rx": (-2.0, -1.0, 0.5, 2.0)}


def homogeneity_check(
    K: TensorField,
    weight: int,
    mode: str,
    plan: SamplePlan,
    bundle: PrincipalBundle | ProductBundle,
) -> CheckReport:
    """Compare h_ν-pullbacks of K against the declared scaling law.

    ``bundle`` supplies the fiber scaling ``scaling(ν)`` and the structure
    ``group`` whose ν set is used (a `PrincipalBundle` or a product of
    cones).
    """
    if mode not in ("plain", "positive", "half"):
        raise ValueError(f"unknown homogeneity mode {mode!r}")
    scales = _SCALES[bundle.group]

    def factor(nu: float) -> float:
        if mode == "plain":
            return nu**weight
        base = abs(nu) ** weight
        return base if mode == "positive" else math.copysign(base, nu)

    laws = agreeing(
        *((pullback(bundle.scaling(nu), K), K, factor(nu)) for nu in scales)
    )
    return run_residual_check(
        f"homogeneity({K.name})",
        K.atlas,
        laws,
        plan,
        details={"mode": mode, "weight": weight, "scales": list(scales)},
    )


# -- calibrations ------------------------------------------------------


def abs_s_calibration(bundle: PrincipalBundle) -> TensorField:
    table = {c.name: {(): "abs(s)" if bundle.group == "Rx" else "s"} for c in bundle.total.charts}
    return TensorField.from_exprs("abs_s", bundle.total, (0, 0), table)


# -- homogeneous metric decomposition ---------------------------------


@dataclass
class MetricDecomposition:
    A: TensorField  # base (0,0)
    mu: TensorField  # base (0,1)
    g_M: TensorField  # base (0,2) — the shadow metric
    calibrated: bool
    mu_max: float
    report: CheckReport


def decompose_homogeneous_metric(
    bundle: PrincipalBundle,
    g: TensorField,
    scal: TensorField,
    plan: SamplePlan,
) -> MetricDecomposition:
    """Split g = A·d𝔰²/𝔰 + d𝔰⊗μ + μ⊗d𝔰 + 𝔰·γ and extract the shadow.

    Components are read off on the s=1 lift of each base chart:

        A = g(∇,∇)/𝔰,   μ = (i_∇ g − A·d𝔰)/𝔰,   γ = remainder/𝔰,
        shadow g_M = γ/A − (μ/A)⊗(μ/A).

    The shadow is what all calibrations agree on.  Raises NotHomogeneous /
    NotPositiveDefinite on bad input; the returned report covers reassembly
    at total-space samples and s-independence of the extracted base data.
    """
    law = homogeneity_check(g, 1, "positive", plan, bundle)
    if not law.passed:
        raise NotHomogeneous(
            f"{g.name}: positive degree-1 law fails at {law.max_residual:.3e}"
        )

    def pieces_at(chart_name: str, env_total: dict):
        """A, μ_j, γ_{jk} (full total-index range) at one total point."""
        dim = bundle.total.chart(chart_name).dim
        s = env_total[FIBER]
        gm = g.at(chart_name, env_total)
        sval, sparts = field_jet(scal, chart_name, env_total)
        a_val = s * s * gm[-1][-1] / sval
        i_nabla = [s * x for x in gm[-1]]
        mu = [
            (i_nabla[j] - a_val * sparts[j]) / sval for j in range(dim)
        ]
        gamma = [
            [
                (
                    gm[j][k]
                    - a_val * sparts[j] * sparts[k] / sval
                    - sparts[j] * mu[k]
                    - mu[j] * sparts[k]
                )
                / sval
                for k in range(dim)
            ]
            for j in range(dim)
        ]
        return a_val, mu, gamma

    def base_field(name: str, valence: tuple[int, int], kind: str) -> TensorField:
        def components(chart, env):
            env_t = bundle.lift_env(env)
            a_val, mu, gamma = pieces_at(chart.name, env_t)
            n = chart.dim  # the base block of the total indices
            if kind == "A":
                return a_val
            if kind == "mu":
                return mu[:n]
            return [
                [
                    gamma[j][k] / a_val - (mu[j] / a_val) * (mu[k] / a_val)
                    for k in range(n)
                ]
                for j in range(n)
            ]

        return TensorField(name, bundle.base, valence, components)

    A = base_field("fiber_weight", (0, 0), "A")
    mu = base_field("mixed_form", (0, 1), "mu")
    g_M = base_field("shadow_metric", (0, 2), "gM")

    # positivity of the shadow, and the size of μ, at base samples
    def shadow(chart, coords, env):
        rows = [[nk.value_of(x) for x in row] for row in g_M.at(chart, env)]
        lo = nk.min_eigenvalue(rows)
        if lo <= 0.0:
            raise NotPositiveDefinite(
                f"shadow metric eigenvalue {lo:.3e} at {coords} in {chart}"
            )
        return max_abs(mu.at(chart, env))

    mu_max = run_residual_check("mixed_form", bundle.base, shadow, plan).max_residual

    # reassembly + s-independence of the extracted data
    def residual(chart_name, coords, env):
        chart = bundle.total.chart(chart_name)
        dim = chart.dim
        a_val, mu_t, gamma = pieces_at(chart_name, env)
        sval, sparts = field_jet(scal, chart_name, env)
        gm = g.at(chart_name, env)
        comps = []
        for j in range(dim):
            for k in range(dim):
                rebuilt = (
                    a_val * sparts[j] * sparts[k] / sval
                    + sparts[j] * mu_t[k]
                    + mu_t[j] * sparts[k]
                    + sval * gamma[j][k]
                )
                comps.append(nk.value_of(rebuilt) - nk.value_of(gm[j][k]))
        # data read at this fiber height must match the s=1 extraction
        base_env = bundle.base_env(env)
        comps.append(nk.value_of(a_val) - nk.value_of(A.at(chart_name, base_env)))
        mu_base = mu.at(chart_name, base_env)
        comps += [nk.value_of(x) - nk.value_of(y) for x, y in zip(mu_t, mu_base)]
        return max_abs(comps)

    rep = run_residual_check("metric_decomposition", bundle.total, residual, plan)

    return MetricDecomposition(
        A=A,
        mu=mu,
        g_M=g_M,
        calibrated=mu_max <= plan.tolerance,
        mu_max=mu_max,
        report=rep,
    )


def induced_metric(
    bundle: PrincipalBundle, g_M: TensorField, scal: TensorField
) -> TensorField:
    """g̃ = 𝔰·((d𝔰/𝔰)² + lifted g_M): the homogeneous metric of a shadow."""

    def components(chart, env):
        dim = chart.dim
        sval, sparts = field_jet(scal, chart.name, env)
        zeta = [sparts[j] / sval for j in range(dim)]
        gm = g_M.at(chart.name, env)
        out = zeros(dim, 2)
        for j in range(dim):
            for k in range(dim):
                out[j][k] = sval * zeta[j] * zeta[k]
        for j in range(dim - 1):  # the base block; the fiber is last
            for k in range(dim - 1):
                out[j][k] = out[j][k] + sval * gm[j][k]
        return out

    return TensorField(
        f"induced_metric({g_M.name})", bundle.total, (0, 2), components
    )
