"""Products of Sasakian structures over a shared scaling axis.

Two cooriented structures combine on M₁ × M₂ × (0,∞) through the form
(t·η₁ + η₂)/(t+1), the product form t·η₁ + η₂ normalised so that the
Reeb field is ξ₁ + ξ₂; the whole package stays Sasakian when both
factors are.  Upstairs the construction is transparent — it is the
product of the factors' cones under the diagonal scaling action, and the
two descriptions are related by the explicit chart change
(s₁, s₂) = (st/(t+1), s/(t+1)), which the route-consistency check
exercises as a pullback identity.

Only single-chart (hence honestly cooriented) factors are supported;
the glued, sign-twisted examples have their own dedicated constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from . import numkernel as nk
from .bundle import (
    PrincipalBundle,
    abs_s_calibration,
    cone_over,
    induced_metric,
)
from .contact import ContactStructure
from .kahler import KahlerCandidate, compatibility_tensor, kahlerianization
from .manifold import Atlas, Chart, PointEnv, SamplePlan
from .report import CheckReport, run_residual_check
from .sasaki import LeviStructure, sasaki_check
from .tensor import SmoothMap, TensorField, agreeing, pullback

T_COORD = "t"
T_BOX = (0.5, 2.0)


class NotCooriented(ValueError):
    """Product factors must carry a global single-chart contact form."""


class FactorNotSasakian(ValueError):
    """A factor failed its normality certification."""


def _single_chart(C: ContactStructure) -> Chart:
    if C.transition_sign is not None or len(C.atlas.charts) != 1:
        raise NotCooriented(
            f"{C.name}: products need a single-chart cooriented factor"
        )
    return C.atlas.charts[0]


def _suffix_chart(chart: Chart, suffix: str) -> tuple[tuple, tuple]:
    return tuple(c + suffix for c in chart.coords), chart.box


def _factor_env(env: dict, coords: tuple, suffix: str) -> PointEnv:
    return PointEnv({c: env[c + suffix] for c in coords})


@dataclass
class ProductFrame:
    """Shared layout data for the two factors inside a product chart."""

    chart1: Chart
    chart2: Chart
    atlas: Atlas

    @property
    def dims(self) -> tuple[int, int]:
        return self.chart1.dim, self.chart2.dim

    def envs(self, env: dict) -> tuple[PointEnv, PointEnv]:
        return (
            _factor_env(env, self.chart1.coords, "1"),
            _factor_env(env, self.chart2.coords, "2"),
        )


def _product_frame(
    ch1: Chart, ch2: Chart, extra: tuple | None, name: str
) -> ProductFrame:
    coords1, box1 = _suffix_chart(ch1, "1")
    coords2, box2 = _suffix_chart(ch2, "2")
    coords, box = coords1 + coords2, box1 + box2
    if extra is not None:
        coords, box = coords + (extra[0],), box + (extra[1],)
    chart = Chart(name, coords, box)
    return ProductFrame(ch1, ch2, Atlas((chart,), ()))


def sasakian_product(
    L1: LeviStructure,
    L2: LeviStructure,
    plan: SamplePlan,
    name: str | None = None,
) -> LeviStructure:
    """The normalised Sasakian structure on M₁ × M₂ × [1/2, 2].

    The form is (t·η₁ + η₂)/(t+1), whose Reeb field is ξ₁ + ξ₂.  The
    plane endomorphism extends the two factor endomorphisms by rotating
    the leftover plane spanned by ξ₁ − t·ξ₂ and ∂_t:

        φ(∂_t) = (ξ₁ − t·ξ₂)/(t(t+1)),
        φ(ξ₁ − t·ξ₂) = −t(t+1)·∂_t,

    which squares correctly and makes the transverse form positive.
    Both factors must certify as normal first.
    """
    for L in (L1, L2):
        rep = sasaki_check(L, plan)
        if not rep.passed:
            raise FactorNotSasakian(
                f"{L.name}: normality residual {rep.max_residual:.3e}"
            )
    C1, C2 = L1.contact, L2.contact
    pf = _product_frame(
        _single_chart(C1), _single_chart(C2), (T_COORD, T_BOX), name or "prod"
    )

    def eta_ev(chart, env):
        e1, e2 = pf.envs(env)
        v1 = C1.eta.at(pf.chart1.name, e1)
        v2 = C2.eta.at(pf.chart2.name, e2)
        t = env[T_COORD]
        u, v = t / (t + 1.0), 1.0 / (t + 1.0)
        return [u * a for a in v1] + [v * a for a in v2] + [0.0]

    eta = TensorField(
        f"sasakian_product_eta({L1.name},{L2.name})", pf.atlas, (0, 1), eta_ev
    )
    n1, n2 = pf.dims
    dim = n1 + n2 + 1
    contact = ContactStructure(
        name or f"{L1.name}*{L2.name}", pf.atlas, eta
    )

    phi1, phi2 = L1.phibar, L2.phibar
    xi1, xi2 = C1.reeb(), C2.reeb()

    def phi_ev(chart, env):
        e1, e2 = pf.envs(env)
        m1 = phi1.at(pf.chart1.name, e1)
        m2 = phi2.at(pf.chart2.name, e2)
        x1 = xi1.at(pf.chart1.name, e1)
        x2 = xi2.at(pf.chart2.name, e2)
        v1 = C1.eta.at(pf.chart1.name, e1)
        v2 = C2.eta.at(pf.chart2.name, e2)
        t = env[T_COORD]
        out = [[0.0] * dim for _ in range(dim)]
        for k in range(n1):
            for j in range(n1):
                out[k][j] = m1[k][j]
            out[k][dim - 1] = x1[k] / (t * (t + 1.0))
            out[dim - 1][k] = -t * v1[k]
        for k in range(n2):
            for j in range(n2):
                out[n1 + k][n1 + j] = m2[k][j]
            out[n1 + k][dim - 1] = -x2[k] / (t + 1.0)
            out[dim - 1][n1 + k] = t * v2[k]
        return out

    phibar = TensorField(
        f"sasakian_product_endo({L1.name},{L2.name})",
        pf.atlas,
        (1, 1),
        phi_ev,
    )
    return LeviStructure(contact.name, contact, phibar)


# -- the upstairs picture: product of cones ----------------------------


@dataclass
class ProductBundle:
    """Product of two scaling cones under the diagonal fiber action."""

    total: Atlas
    fibers: tuple[str, str]
    group: ClassVar[str] = "R+"  # the diagonal action scales both fibers positively

    def scaling(self, nu: float) -> SmoothMap:
        (chart,) = self.total.charts
        exprs = tuple(
            f"{nu!r} * {c}" if c in self.fibers else c for c in chart.coords
        )
        return SmoothMap.from_exprs(
            f"diag_scale({nu})",
            self.total,
            self.total,
            {chart.name: (chart.name, exprs)},
        )

    def liouville(self) -> TensorField:
        (chart,) = self.total.charts
        idx = {c: i for i, c in enumerate(chart.coords)}

        def components(chart, env):
            out = [0.0] * chart.dim
            for f in self.fibers:
                out[idx[f]] = env[f]
            return out

        return TensorField("diag_liouville", self.total, (1, 0), components)


def _block_sum(name, pf, f1, f2):
    """Direct sum of factor (0,2) tensors, zero on the mixed blocks."""
    n1, n2 = pf.dims
    dim = n1 + n2

    def components(chart, env):
        e1, e2 = pf.envs(env)
        a = f1.at(pf.chart1.name, e1)
        b = f2.at(pf.chart2.name, e2)
        out = [[0.0] * dim for _ in range(dim)]
        for i in range(n1):
            for j in range(n1):
                out[i][j] = a[i][j]
        for i in range(n2):
            for j in range(n2):
                out[n1 + i][n1 + j] = b[i][j]
        return out

    return TensorField(name, pf.atlas, (0, 2), components)


def product_kahler_lift(
    L1: LeviStructure, L2: LeviStructure, plan: SamplePlan
) -> KahlerCandidate:
    """The product of the factors' cone pairs under the diagonal action.

    ω and g are block sums, and J is derived from the pair as always.
    Factors whose cone pairs are obstructed are rejected, since the
    product could not be Kähler either.
    """
    from .kahler import kahler_integrability_check

    K1, K2 = kahlerianization(L1), kahlerianization(L2)
    for L, K in ((L1, K1), (L2, K2)):
        rep = kahler_integrability_check(K.J, plan)
        if not rep.passed:
            raise FactorNotSasakian(
                f"{L.name}: cone torsion residual {rep.max_residual:.3e}"
            )
    pf = _product_frame(
        K1.bundle.total.charts[0],
        K2.bundle.total.charts[0],
        None,
        "prod_cone",
    )
    pb = ProductBundle(total=pf.atlas, fibers=("s1", "s2"))
    omega = _block_sum("product_omega", pf, K1.omega, K2.omega)
    g = _block_sum("product_metric", pf, K1.g, K2.g)
    return KahlerCandidate(
        bundle=pb,
        omega=omega,
        g=g,
        J=compatibility_tensor(omega, g),
    )


def invariant_slope_form(pb: ProductBundle) -> TensorField:
    """The degree-0 one-form measuring the fiber ratio on a product.

    β = (√(s₂/s₁)·ds₁ − √(s₁/s₂)·ds₂)/(s₁+s₂); it kills the diagonal
    scaling field and is invariant under the diagonal action, and in
    the (t, s) parametrization it reads dt/(√t·(t+1)).
    """
    (chart,) = pb.total.charts
    idx = {c: i for i, c in enumerate(chart.coords)}
    f1, f2 = pb.fibers

    def components(chart, env):
        s1, s2 = env[f1], env[f2]
        total = s1 + s2
        out = [0.0] * chart.dim
        out[idx[f1]] = nk.sqrt(s2 / s1) / total
        out[idx[f2]] = -nk.sqrt(s1 / s2) / total
        return out

    return TensorField("slope_form", pb.total, (0, 1), components)


def ts_reparametrization(
    pb: ProductBundle, cone: PrincipalBundle
) -> SmoothMap:
    """(x₁, x₂, t, s) ↦ (x₁, s₁ = st/(t+1), x₂, s₂ = s/(t+1))."""
    (src,) = cone.total.charts
    (dst,) = pb.total.charts
    exprs = []
    for c in dst.coords:
        if c == pb.fibers[0]:
            exprs.append(f"s * {T_COORD} / ({T_COORD} + 1)")
        elif c == pb.fibers[1]:
            exprs.append(f"s / ({T_COORD} + 1)")
        else:
            exprs.append(c)
    return SmoothMap.from_exprs(
        "ts_to_fiber_pair",
        cone.total,
        pb.total,
        {src.name: (dst.name, tuple(exprs))},
    )


def product_routes_check(
    Lp: LeviStructure, K: KahlerCandidate, plan: SamplePlan
) -> CheckReport:
    """Downstairs and upstairs products agree through (t,s) ↦ (s₁,s₂).

    ``Lp`` is the `sasakian_product` and ``K`` the `product_kahler_lift`
    of the same two factors; both gated their factors when built.  The
    cone metric induced from the normalised product's base metric must
    pull back from the block-sum metric of the factor cones along the
    explicit reparametrization — an exact identity, checked at samples of
    the (t, s) cone.
    """
    cone = cone_over(Lp.contact.atlas, group="R+", name="product_cone")
    g_ts = induced_metric(cone, Lp.metric(), abs_s_calibration(cone))
    F = ts_reparametrization(K.bundle, cone)
    moved = pullback(F, K.g)
    return run_residual_check(
        "product_routes", cone.total, agreeing((moved, g_ts)), plan
    )
