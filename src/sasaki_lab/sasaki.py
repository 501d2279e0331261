"""Kernel endomorphisms of a contact form and their integrability tensors.

`LeviStructure` packages a contact structure with a kernel endomorphism φ̄
normalized so that dη(X, φ̄Y) is the *positive* transverse metric; the
metric-compatible endomorphism appearing in the covariant-derivative
characterization is the opposite sign, exposed as `phi_gas`.

The module offers several independently computed certificates:

* `pin_battery`        — four pointwise compatibility flags that are
                         provably equivalent; the battery asserts they
                         never disagree on any candidate endomorphism,
* `sasaki_check`       — normality via the full first structure tensor
                         and, separately, via torsion brackets of honest
                         kernel frame fields, with an agreement check,
* `theorem54_check`    — the ∇φ = g⊗ξ − η⊗id characterization,
* `killing_check`      — the Reeb flow preserves the metric,
* `paired_consistency_check` — sign pattern of all five fields across
                         chart overlaps of orientation-twisted examples.

The torsion route deliberately uses frame fields annihilated by η as
*fields* (not frozen coefficient vectors): bracket identities like
η([X, Y]) = −dη(X, Y) fail for naive constant extensions, and the
two-extension spot check inside `sasaki_check` documents that the
computed torsion is extension-independent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import numkernel as nk
from .contact import ContactStructure, contact_frame, frame_fields
from .manifold import SamplePlan, sample_chart
from .report import (
    CheckReport,
    Reduction,
    check_report,
    max_or_nan,
    reduce_residuals,
    run_residual_check,
)
from .tensor import (
    TensorField,
    cross_chart_rows,
    endo_apply,
    field_jet,
    lie_bracket,
    lie_derivative,
    max_abs,
    nijenhuis,
    tf_combine,
    tf_scale,
    vanishing,
)


@dataclass
class LeviStructure:
    """Contact structure plus positively-normalized kernel endomorphism."""

    name: str
    contact: ContactStructure
    phibar: TensorField
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def atlas(self):
        return self.contact.atlas

    def levi_metric(self) -> TensorField:
        """Transverse metric dη(·, φ̄·), degenerate only along the Reeb line."""
        if "levi" not in self._cache:
            self._cache["levi"] = levi_form(self.contact, self.phibar)
        return self._cache["levi"]

    def metric(self) -> TensorField:
        """g = η⊗η + dη(·, φ̄·): the associated Riemannian metric."""
        if "metric" not in self._cache:

            def metric(cs, env):
                ev_eta, base = cs
                dim = len(ev_eta)
                return [
                    [base[i][j] + ev_eta[i] * ev_eta[j] for j in range(dim)]
                    for i in range(dim)
                ]

            self._cache["metric"] = tf_combine(
                f"metric({self.name})",
                (0, 2),
                [self.contact.eta, self.levi_metric()],
                metric,
            )
        return self._cache["metric"]

    def phi_gas(self) -> TensorField:
        """The metric-compatible endomorphism: opposite sign of φ̄."""
        if "gas" not in self._cache:
            self._cache["gas"] = tf_scale(
                self.phibar, -1.0, name=f"phi_gas({self.name})"
            )
        return self._cache["gas"]

    def reeb(self) -> TensorField:
        return self.contact.reeb()

    def validate(self, plan: SamplePlan) -> CheckReport:
        """Defining identities: φ̄ξ = 0, η∘φ̄ = 0, φ̄² = −id + ξ⊗η, g ≻ 0."""
        C = self.contact
        xi = C.reeb()
        g = self.metric()
        pd_threshold = 1e-8

        def residual(chart, coords, env):
            phim = self.phibar.at(chart, env)
            xiv = xi.at(chart, env)
            etav = C.eta.at(chart, env)
            dim = len(xiv)
            comps = []
            for k in range(dim):
                comps.append(nk.sum_(phim[k][j] * xiv[j] for j in range(dim)))
                comps.append(nk.sum_(etav[m] * phim[m][k] for m in range(dim)))
            for k in range(dim):
                for j in range(dim):
                    sq = nk.sum_(phim[k][m] * phim[m][j] for m in range(dim))
                    want = -(1.0 if k == j else 0.0) + xiv[k] * etav[j]
                    comps.append(nk.value_of(sq) - nk.value_of(want))
            rows = [[nk.value_of(x) for x in row] for row in g.at(chart, env)]
            for i in range(dim):
                for j in range(i):
                    comps.append(rows[i][j] - rows[j][i])
            lam = nk.min_eigenvalue(rows)
            return max_or_nan([max_abs(comps), 0.0, 1.0 - lam / pd_threshold])

        return run_residual_check(
            f"levi_structure({self.name})", self.atlas, residual, plan
        )


def levi_form(C: ContactStructure, phi: TensorField) -> TensorField:
    """(X, Y) ↦ dη(X, φY) as a (0,2) field (symmetric iff φ is compatible)."""

    def levi(cs, env):
        de, ph = cs
        dim = len(de)
        return [
            [nk.sum_(de[i][k] * ph[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]

    return tf_combine(f"levi_form({phi.name})", (0, 2), [C.d_eta(), phi], levi)


def standard_darboux_levi(n: int = 1) -> LeviStructure:
    """The flat model: φ̄(∂xᵢ) = ∂pᵢ, φ̄(∂pᵢ) = −∂xᵢ − pᵢ∂z, φ̄(∂z) = 0.

    Its transverse metric is Σ dxᵢ² + dpᵢ², so the associated metric is
    the standard one and every structure tensor vanishes.
    """
    from .contact import darboux_contact

    C = darboux_contact(n)
    (chart,) = C.atlas.charts
    z = 2 * n
    table = {}
    for i in range(n):
        x, p = 2 * i, 2 * i + 1
        table[(p, x)] = "1"
        table[(x, p)] = "-1"
        table[(z, p)] = f"-p{i + 1}" if n > 1 else "-p"
    phibar = TensorField.from_exprs(
        f"flat_endo_{n}", C.atlas, (1, 1), {chart.name: table}
    )
    return LeviStructure(f"standard-darboux-{n}", C, phibar)


# -- pointwise compatibility battery -----------------------------------


_FLAG_NAMES = ("invariant_two_form", "symmetric_levi", "invariant_levi", "kernel_closed")
_FLAG_TOL = 1e-8  # a flag holds when its residual is at most this


def pin_flag_residuals(
    C: ContactStructure,
    phi: TensorField,
    plan: SamplePlan,
) -> dict[str, float]:
    """Residuals of the four equivalent compatibility conditions.

    (1) dη(φX, φY) = dη(X, Y) on kernel vectors,
    (2) dη(X, φY) symmetric,
    (3) the form dη(·, φ·) is φ-invariant,
    (4) η([φX, Y] + [X, φY]) = 0 for kernel *fields* X, Y.

    The fourth is the only one needing derivatives; it uses frame fields,
    so candidates must map the kernel to itself.
    """
    d_eta = C.d_eta()
    comps = {name: [] for name in _FLAG_NAMES}
    for chart in C.atlas.charts:
        pts = sample_chart(chart, plan)
        center = pts[0][1]
        kept = contact_frame(C, chart.name, center).kept
        frames = frame_fields(C, chart.name, kept)
        phi_frames = [endo_apply(phi, F) for F in frames]
        brackets = {}
        for a, b in itertools.combinations(range(len(frames)), 2):
            brackets[(a, b)] = (
                lie_bracket(phi_frames[a], frames[b]),
                lie_bracket(frames[a], phi_frames[b]),
            )
        for coords, env in pts:
            de = d_eta.at(chart.name, env)
            ph = phi.at(chart.name, env)
            etav = C.eta.at(chart.name, env)
            fr = contact_frame(C, chart.name, env)
            vecs = fr.vectors
            dim = chart.dim

            def pair(u, v):
                return nk.value_of(
                    nk.sum_(
                        de[i][j] * u[i] * v[j]
                        for i in range(dim)
                        for j in range(dim)
                    )
                )

            def apply(m, v):
                return [
                    nk.sum_(m[k][j] * v[j] for j in range(dim))
                    for k in range(dim)
                ]

            imgs = [apply(ph, v) for v in vecs]
            m = len(vecs)
            for a in range(m):
                for b in range(m):
                    base = pair(vecs[a], vecs[b])
                    lev_ab = pair(vecs[a], imgs[b])
                    lev_ba = pair(vecs[b], imgs[a])
                    comps["invariant_two_form"].append(pair(imgs[a], imgs[b]) - base)
                    comps["symmetric_levi"].append(lev_ab - lev_ba)
                    comps["invariant_levi"].append(
                        pair(imgs[a], apply(ph, imgs[b])) - lev_ab
                    )
            for (a, b), (br1, br2) in brackets.items():
                v1 = br1.at(chart.name, env)
                v2 = br2.at(chart.name, env)
                val = nk.sum_(
                    etav[k] * (v1[k] + v2[k]) for k in range(dim)
                )
                comps["kernel_closed"].append(val)
    return {name: max_abs(values) for name, values in comps.items()}


def frame_conjugations(
    C: ContactStructure, phibar: TensorField, count: int, seed: int
) -> list[TensorField]:
    """Candidate endomorphisms A φ̄ A⁻¹ with A fixing ξ and the kernel.

    In the adapted frame (ξ, F₁, …, F₂ₙ) each A is diag(1, M) for a
    well-conditioned random M, so every candidate still squares to
    −id + ξ⊗η and maps ker η to itself — exactly the precondition the
    four battery flags need.  Candidate 0 is the identity conjugation.
    """
    rng = np.random.default_rng(seed)
    dim = C.dim
    k = dim - 1
    j0 = np.zeros((k, k))
    for i in range(0, k, 2):
        j0[i][i + 1] = -1.0
        j0[i + 1][i] = 1.0

    def candidate(kmat: np.ndarray, label: str) -> TensorField:
        def components(chart, env):
            fr = contact_frame(C, chart.name, env)
            cols = [fr.xi] + list(fr.vectors)
            rows = [[cols[c][i] for c in range(dim)] for i in range(dim)]
            middle = [[0.0] * dim for _ in range(dim)]
            for a in range(k):
                for b in range(k):
                    middle[1 + a][1 + b] = kmat[a][b]
            # φ' = E · blockdiag(0, K) · E⁻¹: solve Eᵀ Φᵀ = (E·mid)ᵀ
            prod = [
                [
                    nk.sum_(rows[i][c] * middle[c][j] for c in range(dim))
                    for j in range(dim)
                ]
                for i in range(dim)
            ]
            solved = nk.solve_linear(_transpose(rows), _transpose(prod))
            return _transpose(solved)

        return TensorField(label, C.atlas, (1, 1), components)

    fields = [candidate(j0, "conjugated_endo_0")]
    while len(fields) < count:
        m = rng.normal(size=(k, k))
        if abs(np.linalg.det(m)) < 0.1:
            continue
        kmat = m @ j0 @ np.linalg.inv(m)
        fields.append(candidate(kmat, f"conjugated_endo_{len(fields)}"))
    return fields


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def pin_battery(
    C: ContactStructure,
    phibar: TensorField,
    count: int,
    seed: int,
    plan: SamplePlan,
) -> CheckReport:
    """Run the four compatibility flags over conjugated candidates.

    The flags are mathematically equivalent, so any pairwise disagreement
    on any candidate is an engine bug; the report's residual is the
    disagreement count.  ``seed`` draws the candidates, ``plan`` the points.
    """
    candidates = frame_conjugations(C, phibar, count, seed)
    rows = []
    disagreements = 0
    first_bad = None
    for idx, cand in enumerate(candidates):
        res = pin_flag_residuals(C, cand, plan)
        flags = [res[name] <= _FLAG_TOL for name in _FLAG_NAMES]
        rows.append("".join("T" if f else "F" for f in flags))
        if len(set(flags)) > 1:
            disagreements += 1
            if first_bad is None:
                first_bad = (idx, res)
    worst = None
    if first_bad is not None:
        idx, res = first_bad
        worst = (C.atlas.charts[0].name, (float(idx),), float(max(res.values())))
    red = Reduction(
        float(disagreements),
        {c.name: float(disagreements) for c in C.atlas.charts},
        worst,
        len(candidates),
    )
    return check_report(
        "pin_battery",
        red,
        plan,
        details={
            "candidates": len(candidates),
            "flag_tol": _FLAG_TOL,
            "flag_rows": rows,
            "all_true": sum(1 for r in rows if r == "TTTT"),
            "all_false": sum(1 for r in rows if r == "FFFF"),
        },
    )


# -- metric compatibility and structure tensors ------------------------


def contact_metric_check(L: LeviStructure, plan: SamplePlan) -> CheckReport:
    """η = g(ξ, ·), φ² = −id + ξ⊗η, dη = g(·, φ·) for φ = phi_gas."""
    C = L.contact
    g = L.metric()
    phi = L.phi_gas()
    xi = C.reeb()
    d_eta = C.d_eta()

    def residual(chart, coords, env):
        gm = g.at(chart, env)
        ph = phi.at(chart, env)
        xiv = xi.at(chart, env)
        etav = C.eta.at(chart, env)
        de = d_eta.at(chart, env)
        dim = len(etav)
        comps = []
        for i in range(dim):
            gi = nk.sum_(gm[i][j] * xiv[j] for j in range(dim))
            comps.append(nk.value_of(gi) - nk.value_of(etav[i]))
            for j in range(dim):
                sq = nk.sum_(ph[i][m] * ph[m][j] for m in range(dim))
                want = -(1.0 if i == j else 0.0) + xiv[i] * etav[j]
                comps.append(nk.value_of(sq) - nk.value_of(want))
                gphi = nk.sum_(gm[i][m] * ph[m][j] for m in range(dim))
                comps.append(nk.value_of(gphi) - nk.value_of(de[i][j]))
        return max_abs(comps)

    return run_residual_check("contact_metric", L.atlas, residual, plan)


def n_tensors(L: LeviStructure) -> dict[str, TensorField]:
    """The four classical structure tensors of an almost contact structure.

    N1 adds the Reeb-weighted two-form to the torsion of φ̄ (full-form
    convention for d, hence weight one, not two); N2 antisymmetrizes the
    derivative of η along φ̄-columns; N3, N4 are Reeb-flow derivatives.
    All four vanish together exactly in the normal case.
    """
    C = L.contact
    xi = C.reeb()

    def n1(cs, env):
        base, de, xiv = cs
        dim = len(xiv)
        return [
            [
                [base[k][i][j] + de[i][j] * xiv[k] for j in range(dim)]
                for i in range(dim)
            ]
            for k in range(dim)
        ]

    N1 = tf_combine(
        "normality_tensor", (1, 2), [nijenhuis(L.phibar), C.d_eta(), xi], n1
    )

    def column_field(i: int) -> TensorField:
        return tf_combine(
            f"endo_column_{i}", (1, 0), [L.phibar],
            lambda cs, env: [row[i] for row in cs[0]],
        )

    dim = C.dim
    lie_cols = [lie_derivative(C.eta, column_field(i)) for i in range(dim)]

    def n2(rows, env):
        return [[rows[i][j] - rows[j][i] for j in range(dim)] for i in range(dim)]

    N2 = tf_combine("eta_twist_tensor", (0, 2), lie_cols, n2)
    N3 = lie_derivative(L.phibar, xi)
    N3.name = "reeb_flow_of_endo"
    N4 = lie_derivative(C.eta, xi)
    N4.name = "reeb_flow_of_form"
    return {"N1": N1, "N2": N2, "N3": N3, "N4": N4}


def cr_torsion_field(
    C: ContactStructure, phi: TensorField, X: TensorField, Y: TensorField
) -> TensorField:
    """[φX, φY] − [X, Y] − φ([φX, Y] + [X, φY]) for kernel fields X, Y."""
    phiX = endo_apply(phi, X)
    phiY = endo_apply(phi, Y)
    b1 = lie_bracket(phiX, phiY)
    b2 = lie_bracket(X, Y)
    b3 = lie_bracket(phiX, Y)
    b4 = lie_bracket(X, phiY)

    def torsion(cs, env):
        v1, v2, v3, v4, ph = cs
        dim = len(v1)
        mixed = [v3[k] + v4[k] for k in range(dim)]
        return [
            v1[k] - v2[k] - nk.sum_(ph[k][m] * mixed[m] for m in range(dim))
            for k in range(dim)
        ]

    return tf_combine(
        f"torsion({X.name},{Y.name})", (1, 0), [b1, b2, b3, b4, phi], torsion
    )


def sasaki_check(L: LeviStructure, plan: SamplePlan) -> CheckReport:
    """Normality by two routes that must agree, on the sampling driver.

    Route one evaluates every component of the first structure tensor.
    Route two brackets kernel frame fields (torsion) and adds the Reeb
    derivative of the endomorphism, which together are equivalent to
    route one.  The frame fields of a chart keep the indices of its first
    sample's frame; they, their torsions and the spot-check field are
    built on the residual's first call for the chart.  The report fails
    only when both routes exceed tolerance (residuals between tolerance
    and 1e-3 are inconclusive); a route disagreement or
    extension-dependence raises AssertionError because it would mean the
    engine, not the geometry, is wrong.
    """
    C = L.contact
    tensors = n_tensors(L)
    N1, N3 = tensors["N1"], tensors["N3"]
    route1, route2, agreement, spot = [], [], [], []
    built = {}  # chart name -> (frames, torsions, spot field, rescaling factor)

    def chart_fields(chart, env):
        if chart not in built:
            frames = frame_fields(C, chart, contact_frame(C, chart, env).kept)
            torsions = {
                (a, b): cr_torsion_field(C, L.phibar, frames[a], frames[b])
                for a, b in itertools.combinations(range(len(frames)), 2)
            }
            coord = C.atlas.chart(chart).coords[0]

            def factor(env):
                return 1.0 + 0.3 * env[coord]

            scaled = [
                tf_scale(F, factor, name=f"{F.name}_rescaled") for F in frames[:2]
            ]
            spot_field = cr_torsion_field(C, L.phibar, scaled[0], scaled[1])
            built[chart] = (frames, torsions, spot_field, factor)
        return built[chart]

    def residual(chart, coords, env):
        frames, torsions, spot_field, factor = chart_fields(chart, env)
        n1v = N1.at(chart, env)
        r1 = max_abs(n1v)
        parts2 = [N3.at(chart, env)]  # route two's components
        vecs = [F.at(chart, env) for F in frames]
        dim = len(n1v)
        for (a, b), T in torsions.items():
            tv = [nk.value_of(v) for v in T.at(chart, env)]
            parts2.append(tv)
            contracted = [
                nk.value_of(
                    nk.sum_(
                        n1v[k][i][j] * vecs[a][i] * vecs[b][j]
                        for i in range(dim)
                        for j in range(dim)
                    )
                )
                for k in range(dim)
            ]
            agreement.append(max_abs([tv[k] - contracted[k] for k in range(dim)]))
        u = factor(env)
        sv = spot_field.at(chart, env)
        base = torsions[(0, 1)].at(chart, env)
        spot.append(max_abs([
            nk.value_of(sv[k]) / (u * u) - nk.value_of(base[k]) for k in range(dim)
        ]))
        r2 = max_abs(parts2)
        route1.append(r1)
        route2.append(r2)
        return max_or_nan([r1, r2])

    report = run_residual_check("sasaki", C.atlas, residual, plan, fail_floor=1e-3)
    agreement, spot = max_or_nan(agreement), max_or_nan(spot)
    if agreement > 1e-8:
        raise AssertionError(
            f"normality routes disagree by {agreement:.3e}; engine fault"
        )
    if spot > 1e-7:
        raise AssertionError(
            f"torsion depends on the frame extension by {spot:.3e}; engine fault"
        )
    report.details = {
        "route_full_tensor": max_or_nan(route1),
        "route_frame_torsion": max_or_nan(route2),
        "route_agreement": agreement,
        "extension_spot_check": spot,
    }
    return report


def killing_check(L: LeviStructure, plan: SamplePlan) -> CheckReport:
    """The Reeb field preserves the associated metric: L_ξ g = 0."""
    lg = lie_derivative(L.metric(), L.reeb())
    return run_residual_check("reeb_killing", L.atlas, vanishing(lg), plan)


def theorem54_check(L: LeviStructure, plan: SamplePlan) -> CheckReport:
    """(∇_X φ)Y = ½(g(X, Y)ξ − η(Y)X) with φ the metric-compatible sign.

    The one-half is a convention artifact, not a weakening: this package
    takes d without the one-half factor on two-forms, and its compatible
    metric is four times the metric of the half-convention normalization
    (with η doubled and ξ halved, same φ and same Levi-Civita connection,
    since constant metric rescalings preserve ∇).  Substituting that
    rescaling into the classical factor-one identity yields exactly the
    residual below; it vanishes precisely in the normal case either way.

    Christoffel symbols come from a linear solve against first partials
    of g, so the whole residual is algebraic in one jet sweep.
    """
    C = L.contact
    g = L.metric()
    phi = L.phi_gas()
    xi = C.reeb()

    def residual(chart, coords, env):
        dim = C.atlas.chart(chart).dim
        gv, gparts = field_jet(g, chart, env)
        phv, phparts = field_jet(phi, chart, env)
        xiv = [nk.value_of(v) for v in xi.at(chart, env)]
        etav = [nk.value_of(v) for v in C.eta.at(chart, env)]
        rows = [[nk.value_of(gv[i][j]) for j in range(dim)] for i in range(dim)]
        pairs = [(i, j) for i in range(dim) for j in range(dim)]
        rhs = [
            [
                0.5
                * (
                    nk.value_of(gparts[i][m][j])
                    + nk.value_of(gparts[j][i][m])
                    - nk.value_of(gparts[m][i][j])
                )
                for (i, j) in pairs
            ]
            for m in range(dim)
        ]
        sol = nk.solve_linear(rows, rhs)  # sol[k][col] = Γ^k_{ij}
        gamma = [[[0.0] * dim for _ in range(dim)] for _ in range(dim)]
        for col, (i, j) in enumerate(pairs):
            for k in range(dim):
                gamma[k][i][j] = nk.value_of(sol[k][col])
        comps = []
        for i in range(dim):
            for k in range(dim):
                for j in range(dim):
                    nabla = nk.value_of(phparts[i][k][j])
                    for m in range(dim):
                        nabla += gamma[k][i][m] * nk.value_of(phv[m][j])
                        nabla -= gamma[m][i][j] * nk.value_of(phv[k][m])
                    want = 0.5 * (
                        rows[i][j] * xiv[k] - etav[j] * (1.0 if k == i else 0.0)
                    )
                    comps.append(nabla - want)
        return max_abs(comps)

    return run_residual_check("covariant_derivative_identity", L.atlas, residual, plan)


def paired_consistency_check(L: LeviStructure, plan: SamplePlan) -> CheckReport:
    """Overlap behavior of all five fields on orientation-twisted atlases.

    η, ξ and φ̄ pick up the transition sign; the transverse and full
    metrics are single-valued.  Combines five cross-chart comparisons
    into one report.
    """
    C = L.contact
    sign_fn = C.transition_sign if C.paired else None
    jobs = [
        ("eta", C.eta, sign_fn),
        ("reeb", C.reeb(), sign_fn),
        ("endo", L.phibar, sign_fn),
        ("levi_metric", L.levi_metric(), None),
        ("metric", L.metric(), None),
    ]
    streams = [
        (label, list(cross_chart_rows(T, plan, sf))) for label, T, sf in jobs
    ]
    return check_report(
        "paired_consistency",
        reduce_residuals(row for _, rows in streams for row in rows),
        plan,
        details={
            label: reduce_residuals(rows).max_residual for label, rows in streams
        },
    )
