"""Kernel endomorphisms of a contact form and their integrability tensors.

`LeviStructure` packages a contact structure with a kernel endomorphism φ̄
normalized so that dη(X, φ̄Y) is the *positive* transverse metric; the
metric-compatible endomorphism appearing in the covariant-derivative
characterization is the opposite sign, exposed as `phi_gas`.

The module offers several independently computed certificates:

* `pin_battery`        — four pointwise compatibility flags that are
                         provably equivalent, each declared over the field
                         algebra; the battery asserts they never disagree
                         on any frame conjugate A φ̄ A⁻¹ of φ̄,
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
from dataclasses import dataclass, field, replace

import numpy as np

from . import numkernel as nk
from .contact import ContactStructure, kernel_frames, nondegeneracy_shortfall
from .manifold import SamplePlan
from .report import (
    CheckReport,
    check_report,
    max_or_nan,
    reduce_residuals,
    run_residual_check,
)
from .tensor import (
    SampleSet,
    TensorField,
    agreeing,
    compose,
    field_jet,
    field_overlaps,
    lie_bracket,
    lie_derivative,
    max_abs,
    nijenhuis,
    single_valued,
    tf_add,
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
        C, phi = self.contact, self.phibar
        kernel = vanishing(compose(phi, C.reeb()), compose(C.eta, phi))
        square = agreeing((compose(phi, phi), square_target(C)))
        g = self.metric()

        def residual(chart, coords, env):
            rows = [[nk.value_of(x) for x in row] for row in g.at(chart, env)]
            asym = [rows[i][j] - rows[j][i] for i in range(len(rows)) for j in range(i)]
            return max_or_nan([
                kernel(chart, coords, env), square(chart, coords, env),
                max_abs(asym), nondegeneracy_shortfall(nk.min_eigenvalue(rows)),
            ])

        return run_residual_check(
            f"levi_structure({self.name})", self.atlas, residual, plan
        )


def levi_form(C: ContactStructure, phi: TensorField) -> TensorField:
    """(X, Y) ↦ dη(X, φY) as a (0,2) field (symmetric iff φ is compatible)."""
    return compose(C.d_eta(), phi, f"levi_form({phi.name})")


def square_target(C: ContactStructure) -> TensorField:
    """−id + ξ⊗η: what an almost contact endomorphism squares to."""

    def target(cs, env):
        etav, xiv = cs
        return [
            [-(1.0 if k == j else 0.0) + x * e for j, e in enumerate(etav)]
            for k, x in enumerate(xiv)
        ]

    return tf_combine("square_target", (1, 1), [C.eta, C.reeb()], target)


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

    Each flag is a named clause, declared per chart with `agreeing` or
    `vanishing` over the `kernel_frames` fields X, their `phi_images` φX
    and the scalar fields dη(u, v) = ``compose(u, compose(dη, v))``, all
    built before any point is evaluated.  Candidates must map the kernel
    to itself; the fourth flag is the only one needing derivatives.
    """
    d_eta = C.d_eta()
    flags = {}  # chart name -> {flag: its declared residual}
    for chart, fields in kernel_frames(C, plan).items():
        pairs = phi_images(phi, fields)
        X = [x for x, _ in pairs]
        PX = [px for _, px in pairs]
        PPX = [compose(phi, v) for v in PX]
        lowered = {v: compose(d_eta, v) for v in X + PX + PPX}  # v -> dη(·, v)

        def levi(u, v):
            return compose(u, lowered[v])

        every = list(itertools.product(range(len(X)), repeat=2))
        distinct = list(itertools.combinations(range(len(X)), 2))
        flags[chart] = {
            "invariant_two_form": agreeing(
                *((levi(PX[a], PX[b]), levi(X[a], X[b])) for a, b in every)),
            "symmetric_levi": agreeing(
                *((levi(X[a], PX[b]), levi(X[b], PX[a])) for a, b in distinct)),
            "invariant_levi": agreeing(
                *((levi(PX[a], PPX[b]), levi(X[a], PX[b])) for a, b in every)),
            "kernel_closed": vanishing(*(
                compose(C.eta, tf_add(lie_bracket(PX[a], X[b]),
                                      lie_bracket(X[a], PX[b])))
                for a, b in distinct)),
        }

    def residual(chart, coords, env):
        return {name: flag(chart, coords, env) for name, flag in flags[chart].items()}

    return run_residual_check("pin_flags", C.atlas, residual, plan).details


def frame_conjugations(
    C: ContactStructure, phibar: TensorField, count: int, seed: int, plan: SamplePlan
) -> list[TensorField]:
    """Candidate endomorphisms A φ̄ A⁻¹ with A fixing ξ and the kernel.

    A = E·diag(1, M)·E⁻¹ in the adapted frame E = (ξ, F₁, …, F₂ₙ), the F
    the `kernel_frames` fields of ``plan``, for a well-conditioned random
    M drawn from ``seed``.  So every candidate still squares to
    −id + ξ⊗η and maps ker η to itself — exactly the precondition the
    four battery flags need.  Candidate 0 is φ̄ itself.
    """
    rng = np.random.default_rng(seed)
    xi, frames = C.reeb(), kernel_frames(C, plan)
    k = C.dim - 1

    def frame_map(m: list, label: str) -> TensorField:
        """E·diag(1, m)·E⁻¹, by one solve Eᵀ·Aᵀ = (E·diag(1, m))ᵀ."""

        def components(chart, env):
            cols = [xi.at(chart.name, env)]
            cols += [F.at(chart.name, env) for F in frames[chart.name]]
            rows = _transpose(cols)
            ed = [
                [row[0]]
                + [nk.sum_(row[1 + c] * m[c][j] for c in range(k)) for j in range(k)]
                for row in rows
            ]
            return _transpose(nk.solve_linear(_transpose(rows), _transpose(ed)))

        return TensorField(label, C.atlas, (1, 1), components)

    fields = [phibar]
    while len(fields) < count:
        m = rng.normal(size=(k, k))
        if abs(np.linalg.det(m)) < 0.1:
            continue
        label = f"conjugated_endo_{len(fields)}"
        A = frame_map(m.tolist(), f"{label}_frame_map")
        A_inv = frame_map(np.linalg.inv(m).tolist(), f"{label}_frame_map_inverse")
        fields.append(compose(compose(A, phibar), A_inv, label))
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
    """Run the four compatibility flags over the `frame_conjugations` of φ̄.

    The flags are mathematically equivalent, so a candidate on which they
    disagree is an engine bug.  Each candidate is one row for
    `reduce_residuals`, labelled ``candidates`` with the candidate's index
    as coordinates: residual 1.0 when its flags disagree, 0.0 when they
    agree.  ``details`` counts the disagreements and keeps each
    candidate's flags as a row of T and F.  Every candidate runs under one
    `SampleSet` that keeps η, ξ and dη and is pruned after each candidate,
    so each chart is drawn once.  ``seed`` draws the candidates, ``plan``
    the points.
    """
    plan = replace(plan, sample_set=SampleSet((C.eta, C.reeb(), C.d_eta())))
    candidates = frame_conjugations(C, phibar, count, seed, plan)
    flag_rows = []
    for cand in candidates:
        res = pin_flag_residuals(C, cand, plan)  # in the order (1)-(4)
        plan.sample_set.prune()
        flag_rows.append("".join("T" if r <= _FLAG_TOL else "F" for r in res.values()))
    disagree = [len(set(row)) > 1 for row in flag_rows]
    red = reduce_residuals(
        ("candidates", (float(idx),), float(d)) for idx, d in enumerate(disagree)
    )
    return check_report(
        "pin_battery",
        red,
        plan,
        details={
            "candidates": len(candidates),
            "flag_tol": _FLAG_TOL,
            "flag_rows": flag_rows,
            "all_true": flag_rows.count("TTTT"),
            "all_false": flag_rows.count("FFFF"),
            "disagreements": sum(disagree),
        },
    )


# -- metric compatibility and structure tensors ------------------------


def contact_metric_check(L: LeviStructure, plan: SamplePlan) -> CheckReport:
    """η = g(ξ, ·), φ² = −id + ξ⊗η, dη = g(·, φ·) for φ = phi_gas."""
    C, g, phi = L.contact, L.metric(), L.phi_gas()
    identities = agreeing(
        (compose(g, C.reeb()), C.eta),
        (compose(phi, phi), square_target(C)),
        (compose(g, phi), C.d_eta()),
    )
    return run_residual_check("contact_metric", L.atlas, identities, plan)


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


def phi_images(phi: TensorField, frames: list) -> list[tuple[TensorField, TensorField]]:
    """The (X, φX) pair of each frame field X, the image built once."""
    return [(X, compose(phi, X, f"{phi.name}({X.name})")) for X in frames]


def cr_torsion_field(phi: TensorField, x_pair: tuple, y_pair: tuple) -> TensorField:
    """[φX, φY] − [X, Y] − φ([φX, Y] + [X, φY]) for the `phi_images`
    pairs (X, φX), (Y, φY) of kernel fields X, Y."""
    (X, phiX), (Y, phiY) = x_pair, y_pair
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
    route one.  The frame fields are the `kernel_frames` of the contact
    structure; they, their torsions and the spot-check field of each chart
    are built before any point is evaluated.  The routes are named
    clauses, their agreement and the spot check records: ``details`` holds
    the worst of each.  The report fails only when both routes exceed
    tolerance (residuals between tolerance and 1e-3 are inconclusive); a
    route disagreement or extension-dependence, a NaN one included, raises
    AssertionError because it would mean the engine, not the geometry, is
    wrong.
    """
    C = L.contact
    tensors = n_tensors(L)
    N1, N3 = tensors["N1"], tensors["N3"]

    def chart_fields(chart, frames):
        pairs = phi_images(L.phibar, frames)
        torsions = {
            (a, b): cr_torsion_field(L.phibar, pairs[a], pairs[b])
            for a, b in itertools.combinations(range(len(pairs)), 2)
        }
        coord = C.atlas.chart(chart).coords[0]

        def factor(env):
            return 1.0 + 0.3 * env[coord]

        scaled = [tf_scale(F, factor, name=f"{F.name}_rescaled") for F in frames[:2]]
        spot_field = cr_torsion_field(L.phibar, *phi_images(L.phibar, scaled))
        return frames, torsions, spot_field, factor

    built = {  # chart name -> (frames, torsions, spot field, rescaling factor)
        chart: chart_fields(chart, frames)
        for chart, frames in kernel_frames(C, plan).items()
    }

    def residual(chart, coords, env):
        frames, torsions, spot_field, factor = built[chart]
        n1v = N1.at(chart, env)
        r1 = max_abs(n1v)
        parts2 = [N3.at(chart, env)]  # route two's components
        vecs = [F.at(chart, env) for F in frames]
        dim = len(n1v)
        # n1v[k][i][j]·vecs[a][i] once per a; the last frame is never first
        left = [
            [[[n1v[k][i][j] * v[i] for j in range(dim)] for i in range(dim)]
             for k in range(dim)]
            for v in vecs[:-1]
        ]
        gaps = []  # torsion minus route one, per frame pair
        for (a, b), T in torsions.items():
            tv = [nk.value_of(v) for v in T.at(chart, env)]
            parts2.append(tv)
            contracted = [
                nk.value_of(
                    nk.sum_(
                        left[a][k][i][j] * vecs[b][j]
                        for i in range(dim)
                        for j in range(dim)
                    )
                )
                for k in range(dim)
            ]
            gaps.append([tv[k] - contracted[k] for k in range(dim)])
        u = factor(env)
        sv = spot_field.at(chart, env)
        base = torsions[(0, 1)].at(chart, env)
        spot = [nk.value_of(sv[k]) / (u * u) - nk.value_of(base[k]) for k in range(dim)]
        return {
            "route_full_tensor": r1, "route_frame_torsion": max_abs(parts2),
            "route_agreement": max_abs(gaps), "extension_spot_check": max_abs(spot),
        }

    report = run_residual_check(
        "sasaki", C.atlas, residual, plan, fail_floor=1e-3,
        records=dict.fromkeys(("route_agreement", "extension_spot_check"), max),
    )
    for name, bound, what in (
        ("route_agreement", 1e-8, "normality routes disagree by"),
        ("extension_spot_check", 1e-7, "torsion depends on the frame extension by"),
    ):
        value = report.details[name] if report.samples else 0.0  # no point, no record
        if not value <= bound:  # a NaN fails too
            raise AssertionError(f"{what} {value:.3e}; engine fault")
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
    metrics are single-valued.  One pass over the five fields' overlaps,
    each field a named clause whose worst value lands in ``details``.
    """
    C = L.contact
    jobs = [
        ("eta", C.eta, C.transition_sign),
        ("reeb", C.reeb(), C.transition_sign),
        ("endo", L.phibar, C.transition_sign),
        ("levi_metric", L.levi_metric(), None),
        ("metric", L.metric(), None),
    ]
    parts = {
        field_overlaps(T): (label, single_valued(T, sf)) for label, T, sf in jobs
    }

    def residual(site, coords, env):
        label, fn = parts[site.domain]
        return {label: fn(site, coords, env)}

    return run_residual_check(
        "paired_consistency", list(parts), residual, plan,
        details=dict.fromkeys((label for label, _, _ in jobs), 0.0),  # if no overlaps
    )
