"""Scaling bundles over chart atlases: cones, homogeneity, metric splitting.

A bundle here is a base atlas with one extra fiber coordinate ``s`` appended
last to every chart (`manifold.append_coordinate`), read as the last index
here and in `kahler` and `corpus`; `PrincipalBundle.on_total` reads a base
field on the total space at each point's base point.  The structure group is
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
metric along a calibration, as one field of (g, 𝔰, d𝔰) read at the unit
lift, into fiber weight A, mixed one-form μ and a base "shadow" metric,
invariant under re-calibration (a unit test decomposes one metric against
two calibrations).  `induced_metric` goes the other way, from a shadow
and a calibration to the homogeneous metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from . import exprlang, numkernel as nk
from .contact import ContactStructure
from .manifold import (
    Atlas,
    PointEnv,
    SamplePlan,
    TransitionMap,
    TransitionPiece,
    append_coordinate,
    sample_points,
)
from .report import CheckReport, run_residual_check
from .tensor import (
    NONDEGENERACY_THRESHOLD,
    SmoothMap,
    TensorField,
    agreeing,
    every,
    exterior_derivative,
    field_jet,
    named,
    nondegenerate,
    pullback,
    tf_combine,
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
        """A base env lifted to fiber height `s`, kept as `_derived` says;
        at a batch, `s` is one height for every point of the group."""
        return _derived(base_env, ("lift_env", repr(s)), lambda env: {**env, FIBER: s})

    def base_env(self, env: dict) -> PointEnv:
        """A total-space env restricted to the base coordinates, kept as
        `_derived` says."""
        return _derived(
            env, ("base_env",), lambda env: {c: v for c, v in env.items() if c != FIBER}
        )

    def on_total(self, F: TensorField, fiber=None) -> TensorField:
        """Base field F as a field on the total space, read at each point's
        base point (`base_env`): F's base components, and `fiber` appended
        as a vector's fiber component if given."""

        def components(chart, env):
            v = F.at(chart.name, self.base_env(env))
            return v if fiber is None else [*v, fiber]

        return TensorField(f"{F.name}∘π", self.total, F.valence, components, F.chart_names())

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


def _derived(env: dict, key: tuple, derive: Callable) -> PointEnv:
    """``PointEnv(derive(env))``, built once and kept in the memo of `env`
    under `key` (not a field, so `SampleSet.prune` drops it after each
    check): at a batch, one derived env per sample group, so every field
    evaluated there is evaluated once for the group.  A plain mapping's
    derived env lives for the call.
    """
    memo = getattr(env, "memo", None)
    if memo is None:
        return PointEnv(derive(env))
    if key not in memo:
        memo[key] = PointEnv(derive(env))
    return memo[key]


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
    """Closedness (dω = 0) and pointwise nondegeneracy (|det ω|) of a 2-form."""
    volume = tf_combine(f"|det {omega.name}|", (0, 0), [omega],
                        lambda cs, env: abs(nk.determinant(cs[0])))
    return run_residual_check(
        "symplectic_form",
        omega.atlas,
        every(vanishing(exterior_derivative(omega)), nondegenerate(volume)),
        plan,
        details={"nondegeneracy_threshold": NONDEGENERACY_THRESHOLD},
    )


_SCALES = {"R+": (0.5, 2.0), "Rx": (-2.0, -1.0, 0.5, 2.0)}


def homogeneity_check(
    K: TensorField,
    weight: int,
    mode: str,
    bundle: PrincipalBundle | ProductBundle,
    plan: SamplePlan,
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

    One field of (g, 𝔰, d𝔰) on the total space gives

        A = g(∇,∇)/𝔰,   μ = (i_∇ g − A·d𝔰)/𝔰,   γ = remainder/𝔰,

    and A, μ and the shadow g_M = γ/A − (μ/A)⊗(μ/A), what all
    calibrations agree on, are read at the unit lift of each base point.
    Raises NotHomogeneous when g fails its degree-1 law, and
    NotPositiveDefinite when the shadow's smallest eigenvalue, recorded
    with |μ| in one run over base samples, is not positive.  The report
    is one `agreeing` check at total-space samples: g against its
    reassembly, and A and μ there against their unit-lift values.
    """
    law = homogeneity_check(g, 1, "positive", bundle, plan)
    if not law.passed:
        raise NotHomogeneous(
            f"{g.name}: positive degree-1 law fails at {law.max_residual:.3e}"
        )
    d_scal = exterior_derivative(scal)

    def split(cs, env):  # [A, μ, γ], μ and γ over the total indices
        gm, sval, ds = cs
        s = env[FIBER]
        n = range(len(ds))
        a = s * s * gm[-1][-1] / sval
        mu = [(s * x - a * d) / sval for x, d in zip(gm[-1], ds)]
        gamma = [
            [(gm[j][k] - a * ds[j] * ds[k] / sval - ds[j] * mu[k] - mu[j] * ds[k]) / sval
             for k in n]
            for j in n
        ]
        return [a, mu, gamma]

    pieces = tf_combine(f"split({g.name})", (0, 0), [g, scal, d_scal], split)

    def at_unit_lift(name, valence, read):  # read(A, μ, γ, base dim)
        return TensorField(name, bundle.base, valence, lambda chart, env: read(
            *pieces.at(chart.name, bundle.lift_env(env)), chart.dim))

    def shadow(a, mu, gamma, n):
        return [[gamma[j][k] / a - (mu[j] / a) * (mu[k] / a) for k in range(n)]
                for j in range(n)]

    A = at_unit_lift("fiber_weight", (0, 0), lambda a, mu, gamma, n: a)
    mu = at_unit_lift("mixed_form", (0, 1), lambda a, mu, gamma, n: mu[:n])
    g_M = at_unit_lift("shadow_metric", (0, 2), shadow)

    lowest = tf_combine(f"min_eigenvalue({g_M.name})", (0, 0), [g_M],
                        lambda cs, env: nk.min_eigenvalue(cs[0]))
    base = run_residual_check(
        "mixed_form", bundle.base,
        named(mixed_form=vanishing(mu), min_eigenvalue=lowest.at), plan,
        records={"min_eigenvalue": min},
    )
    lo = base.details["min_eigenvalue"] if base.samples else 1.0  # no point, no record
    if not lo > 0.0:  # a NaN eigenvalue is no positive one
        chart, point = next(
            (name, p) for name, points, _ in sample_points(bundle.base, plan)
            for p in points if not lowest.at(name, bundle.base.chart(name).env(p)) > 0.0)
        raise NotPositiveDefinite(
            f"shadow metric eigenvalue {lo:.3e}; not positive at {point} in {chart}")

    def rebuilt(cs, env):  # A·d𝔰²/𝔰 + d𝔰⊗μ + μ⊗d𝔰 + 𝔰·γ
        (a, mu_t, gamma), sval, ds = cs
        n = range(len(ds))
        return [
            [a * ds[j] * ds[k] / sval + ds[j] * mu_t[k] + mu_t[j] * ds[k] + sval * gamma[j][k]
             for k in n]
            for j in n
        ]

    identities = agreeing(
        (tf_combine(f"reassembled({g.name})", (0, 2), [pieces, scal, d_scal], rebuilt), g),
        (tf_combine("fiber_weight_here", (0, 0), [pieces], lambda cs, env: cs[0][0]),
         bundle.on_total(A)),
        (tf_combine("mixed_form_here", (0, 1), [pieces], lambda cs, env: cs[0][1][:-1]),
         bundle.on_total(mu)),
    )
    rep = run_residual_check("metric_decomposition", bundle.total, identities, plan)
    mu_max = base.max_residual
    return MetricDecomposition(A, mu, g_M, mu_max <= plan.tolerance, mu_max, rep)


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
