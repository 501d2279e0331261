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
                         its four clauses declared once for the atlas,
* `theorem54_check`    — the ∇φ = g⊗ξ − η⊗id characterization,
                         declared as one (1,2) field that must vanish,
* `killing_check`      — the Reeb flow preserves the metric,
* `paired_consistency_check` — sign pattern of all five fields across
                         chart overlaps of orientation-twisted examples.

The torsion route deliberately uses frame fields annihilated by η as
*fields* (not frozen coefficient vectors): bracket identities like
η([X, Y]) = −dη(X, Y) fail for naive constant extensions, and the
two-extension spot check inside `sasaki_check` documents that the
computed torsion is extension-independent.

Every certificate here declares what it certifies (`agreeing`,
`vanishing`, `nondegenerate`, `single_valued`), each reduced once per
sample group.  The kernel frame fields hold on every sampled chart, so
`sasaki_check` and the battery's flags declare their `named` clauses once;
only `paired_consistency_check` dispatches, because each overlap has its
own clause, and only the battery's flag rows are hand-made.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from . import numkernel as nk
from .contact import ContactStructure, kernel_frames
from .manifold import SamplePlan
from .report import (
    CheckReport,
    check_report,
    reduce_residuals,
    run_residual_check,
)
from .tensor import (
    SampleSet,
    TensorField,
    agreeing,
    compose,
    every,
    field_jet,
    field_overlaps,
    lie_bracket,
    lie_derivative,
    named,
    nijenhuis,
    nondegenerate,
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
        """Defining identities: φ̄ξ = 0, η∘φ̄ = 0, φ̄² = −id + ξ⊗η, g = gᵀ,
        and the open condition g ≻ 0 (its smallest eigenvalue)."""
        C, phi, g = self.contact, self.phibar, self.metric()
        transpose = tf_combine(f"{g.name}ᵀ", (0, 2), [g], lambda cs, env: list(zip(*cs[0])))
        lowest = tf_combine(f"min_eigenvalue({g.name})", (0, 0), [g],
                            lambda cs, env: nk.min_eigenvalue(cs[0]))
        residual = every(
            vanishing(compose(phi, C.reeb()), compose(C.eta, phi)),
            agreeing((compose(phi, phi), square_target(C))),
            agreeing((g, transpose)),
            nondegenerate(lowest),
        )
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
    frames: list[TensorField],
    plan: SamplePlan,
) -> dict[str, float]:
    """Residuals of the four equivalent compatibility conditions.

    (1) dη(φX, φY) = dη(X, Y) on kernel vectors,
    (2) dη(X, φY) symmetric,
    (3) the form dη(·, φ·) is φ-invariant,
    (4) η([φX, Y] + [X, φY]) = 0 for kernel *fields* X, Y.

    Each flag is a named clause, declared once with `agreeing` or
    `vanishing` over the kernel frame fields X (``frames``, the
    `kernel_frames` of ``plan``), their `phi_images` φX and the scalar
    fields dη(u, v) = ``compose(u, compose(dη, v))``, all built before any
    point is evaluated.  Candidates must map the kernel to itself; the
    fourth flag is the only one needing derivatives.
    """
    d_eta = C.d_eta()
    X, PX = map(list, zip(*phi_images(phi, frames)))
    PPX = [compose(phi, v) for v in PX]
    lowered = {v: compose(d_eta, v) for v in X + PX + PPX}  # v -> dη(·, v)

    def levi(u, v):
        return compose(u, lowered[v])

    ordered = list(itertools.product(range(len(X)), repeat=2))
    distinct = list(itertools.combinations(range(len(X)), 2))
    flags = named(
        invariant_two_form=agreeing(
            *((levi(PX[a], PX[b]), levi(X[a], X[b])) for a, b in ordered)),
        symmetric_levi=agreeing(
            *((levi(X[a], PX[b]), levi(X[b], PX[a])) for a, b in distinct)),
        invariant_levi=agreeing(
            *((levi(PX[a], PPX[b]), levi(X[a], PX[b])) for a, b in ordered)),
        kernel_closed=vanishing(*(
            compose(C.eta, tf_add(lie_bracket(PX[a], X[b]), lie_bracket(X[a], PX[b])))
            for a, b in distinct)),
    )
    return run_residual_check("pin_flags", C.atlas, flags, plan).details


def frame_conjugations(
    C: ContactStructure,
    phibar: TensorField,
    frames: list[TensorField],
    count: int,
    seed: int,
) -> list[TensorField]:
    """Candidate endomorphisms A φ̄ A⁻¹ with A fixing ξ and the kernel.

    A = E·diag(1, M)·E⁻¹ in the adapted frame E = (ξ, F₁, …, F₂ₙ), the F
    the `kernel_frames` fields ``frames``, for a well-conditioned random
    M drawn from ``seed``.  So every candidate still squares to
    −id + ξ⊗η and maps ker η to itself — exactly the precondition the
    four battery flags need.  Candidate 0 is φ̄ itself.
    """
    rng = np.random.default_rng(seed)
    xi, k = C.reeb(), C.dim - 1

    def frame_map(m: list, label: str) -> TensorField:
        """E·diag(1, m)·E⁻¹, by one solve Eᵀ·Aᵀ = (E·diag(1, m))ᵀ."""

        def components(chart, env):
            cols = [xi.at(chart.name, env)] + [F.at(chart.name, env) for F in frames]
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
    disagree is an engine bug.  Each candidate is one point of the group
    ``candidates`` that `reduce_residuals` reduces, with the candidate's
    index as coordinates: residual 1.0 when its flags disagree, 0.0 when
    they agree.  ``details`` counts the disagreements and keeps each
    candidate's flags as a row of T and F.  The `kernel_frames` are built
    once, for the candidates and all their flags.  Every candidate runs
    under one `SampleSet` that keeps η, ξ, dη and those frames and is
    pruned after each candidate, so each chart is drawn once.  ``seed``
    draws the candidates, ``plan`` the points.
    """
    shared = SampleSet((C.eta, C.reeb(), C.d_eta()))
    plan = replace(plan, sample_set=shared)
    frames = kernel_frames(C, plan)  # draws the charts into the set
    shared.declared |= frozenset(frames)
    candidates = frame_conjugations(C, phibar, frames, count, seed)
    flag_rows = []
    for cand in candidates:
        res = pin_flag_residuals(C, cand, frames, plan)  # in the order (1)-(4)
        shared.prune()
        flag_rows.append("".join("T" if r <= _FLAG_TOL else "F" for r in res.values()))
    disagree = [len(set(row)) > 1 for row in flag_rows]
    indices = [(float(idx),) for idx in range(len(disagree))]
    red = reduce_residuals([("candidates", indices, list(map(float, disagree)))])
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


def extension_factor(atlas) -> TensorField:
    """u = 1 + 0.3·(the chart's first coordinate): `sasaki_check` rescales
    two frame fields by it into other extensions of the same kernel vectors."""
    return TensorField("u", atlas, (0, 0), lambda chart, env: 1.0 + 0.3 * env[chart.coords[0]])


def sasaki_check(L: LeviStructure, plan: SamplePlan) -> CheckReport:
    """Normality by two routes that must agree, on the sampling driver.

    Route one evaluates every component of the first structure tensor N1.
    Route two brackets kernel frame fields (torsion) and adds the Reeb
    derivative N3 of the endomorphism, which together are equivalent to
    route one.  The frame fields are the `kernel_frames` of the contact
    structure.  The four clauses are declared once, before any point is
    evaluated, as `vanishing`/`agreeing` identities of fields on every
    sampled chart:

    * ``route_full_tensor``: N1 vanishes;
    * ``route_frame_torsion``: N3 and every frame torsion vanish;
    * ``route_agreement``: each torsion T_ab equals N1(X_a, X_b), the
      field Σ_ij N1^k_ij·X_a^i·X_b^j (i outer, j inner, from 0.0);
    * ``extension_spot_check``: the torsion of the first two frames
      rescaled by the `extension_factor` u, divided by u², equals their
      torsion.

    The agreement and the spot check are records: ``details`` holds the
    worst of each.  The report fails only when both routes exceed
    tolerance (residuals between tolerance and 1e-3 are inconclusive); a
    route disagreement or extension-dependence, a NaN one included, raises
    AssertionError because it would mean the engine, not the geometry, is
    wrong.
    """
    C = L.contact
    tensors = n_tensors(L)
    N1, N3 = tensors["N1"], tensors["N3"]
    frames = kernel_frames(C, plan)
    pairs = phi_images(L.phibar, frames)
    torsions = {
        (a, b): cr_torsion_field(L.phibar, pairs[a], pairs[b])
        for a, b in itertools.combinations(range(len(pairs)), 2)
    }

    def n1_on(cs, env):
        n1, xa, xb = cs
        n = range(len(xa))
        return [nk.sum_(n1[k][i][j] * xa[i] * xb[j] for i in n for j in n) for k in n]

    u = extension_factor(C.atlas)
    scaled = [tf_combine(f"{F.name}_rescaled", (1, 0), [u, F],
                         lambda cs, env: [cs[0] * v for v in cs[1]]) for F in frames[:2]]
    spot = cr_torsion_field(L.phibar, *phi_images(L.phibar, scaled))
    spot_over_u2 = tf_combine(f"{spot.name}/u^2", (1, 0), [spot, u],
                              lambda cs, env: [v / (cs[1] * cs[1]) for v in cs[0]])
    residual = named(
        route_full_tensor=vanishing(N1),
        route_frame_torsion=vanishing(N3, *torsions.values()),
        route_agreement=agreeing(*(
            (T, tf_combine(f"{N1.name}({frames[a].name},{frames[b].name})",
                           (1, 0), [N1, frames[a], frames[b]], n1_on))
            for (a, b), T in torsions.items())),
        extension_spot_check=agreeing((spot_over_u2, torsions[(0, 1)])),
    )
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
    identity below; it vanishes precisely in the normal case either way.

    The identity is declared as one (1,2) field, ``[k][i][j]`` =
    (∇_i φ)^k_j − ½(g_ij ξ^k − η_j δ^k_i), that must vanish.  Its
    Christoffel symbols come from a linear solve against first partials
    of g, so the whole field is algebraic in one jet sweep.
    """
    C = L.contact
    g = L.metric()
    phi = L.phi_gas()
    xi = C.reeb()

    def components(chart, env):
        n = range(chart.dim)
        gv, gparts = field_jet(g, chart.name, env)
        phv, phparts = field_jet(phi, chart.name, env)
        xiv, etav = xi.at(chart.name, env), C.eta.at(chart.name, env)
        rhs = [  # column i·dim + j
            [0.5 * (gparts[i][m][j] + gparts[j][i][m] - gparts[m][i][j])
             for i in n for j in n]
            for m in n
        ]
        sol = nk.solve_linear(gv, rhs)  # sol[k][i·dim + j] = Γ^k_{ij}
        gamma = [[[sol[k][i * chart.dim + j] for j in n] for i in n] for k in n]

        def gap(k, i, j):
            nabla = phparts[i][k][j]
            for m in n:
                nabla = nabla + gamma[k][i][m] * phv[m][j]
                nabla = nabla - gamma[m][i][j] * phv[k][m]
            return nabla - 0.5 * (gv[i][j] * xiv[k] - etav[j] * (1.0 if k == i else 0.0))

        return [[[gap(k, i, j) for j in n] for i in n] for k in n]

    nabla_phi = TensorField(f"nabla_phi_gap({L.name})", L.atlas, (1, 2), components)
    return run_residual_check(
        "covariant_derivative_identity", L.atlas, vanishing(nabla_phi), plan
    )


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

    def residual(site, env):
        label, fn = parts[site.domain]
        return {label: fn(site, env)}

    return run_residual_check(
        "paired_consistency", list(parts), residual, plan,
        details=dict.fromkeys((label for label, _, _ in jobs), 0.0),  # if no overlaps
    )
