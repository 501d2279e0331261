"""Contact structures: forms, Reeb fields, kernel frames, nondegeneracy.

A contact structure is a one-form η per chart.  On a *paired* structure the
chart forms only agree up to a locally constant sign across overlaps; a
structure is paired exactly when it carries a ``transition_sign``
callback, so cross-chart checks can compare with the right sign.

The Reeb field is computed pointwise from the augmented linear system

    (dη + η⊗η)(ξ, ·) = η,

whose unique solution satisfies η(ξ)=1 and i_ξ dη = 0 whenever η is contact
(adding η⊗η to the — on ker η nondegenerate — form dη makes the matrix
invertible and forces the normalization).  Running the solve on dual
numbers makes ξ differentiable, which Lie-derivative checks use directly.

Nondegeneracy of η∧(dη)^n is decided through the bordered antisymmetric
matrix B = [[0, η], [−ηᵀ, dη]]: the top-form coefficient satisfies
|η∧(dη)^n| = n!·√det B, so no permutation sums are ever expanded.

A frame of ker η drops one coordinate index, a choice the contact
distribution does not make for us; `kernel_frames` makes it once per
chart, inside 2n frame fields that each hold on every sampled chart, so
a frame reader declares its clauses once for the atlas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

from . import numkernel as nk
from .manifold import Atlas, Chart, SamplePlan, sample_points
from .report import CheckReport, run_residual_check
from .tensor import (
    NONDEGENERACY_THRESHOLD,
    TensorField,
    agreeing,
    compose,
    exterior_derivative,
    field_jet,
    nondegenerate,
    tf_combine,
    zeros,
)


@dataclass
class ContactStructure:
    name: str
    atlas: Atlas
    eta: TensorField
    transition_sign: Optional[Callable] = None  # (transition, piece) -> ±1.0
    _reeb: Optional[TensorField] = dc_field(default=None, repr=False)
    _deta: Optional[TensorField] = dc_field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.atlas.charts[0].dim

    def d_eta(self) -> TensorField:
        if self._deta is None:
            self._deta = exterior_derivative(self.eta)
        return self._deta

    def reeb(self) -> TensorField:
        if self._reeb is None:
            self._reeb = reeb_field(self)
        return self._reeb


def darboux_contact(n: int) -> ContactStructure:
    """The flat model on [−1,1]^{2n+1}: η = dz − Σ pᵢ dxᵢ."""
    if n == 1:
        coords = ("x", "p", "z")
        table = {(0,): "-p", (2,): "1"}
    else:
        coords = tuple(
            c for i in range(1, n + 1) for c in (f"x{i}", f"p{i}")
        ) + ("z",)
        table = {(2 * n,): "1"}
        for i in range(n):
            table[(2 * i,)] = f"-p{i + 1}"
    atlas = Atlas([Chart("O", coords, ((-1.0, 1.0),) * (2 * n + 1))])
    eta = TensorField.from_exprs("eta", atlas, (0, 1), {"O": table})
    return ContactStructure(f"darboux-{n}", atlas, eta)


def reeb_field(C: ContactStructure) -> TensorField:
    def components(chart, env):
        dim = chart.dim
        ev_vals, parts = field_jet(C.eta, chart.name, env)
        # rows[j][i] = dη_{ij} + η_i η_j, so rows @ ξ = η picks the Reeb
        rows = [
            [
                parts[i][j] - parts[j][i] + ev_vals[i] * ev_vals[j]
                for i in range(dim)
            ]
            for j in range(dim)
        ]
        return nk.solve_linear(rows, list(ev_vals))

    return TensorField(
        f"reeb({C.name})", C.atlas, (1, 0), components, C.eta.chart_names()
    )


def reeb_residual_check(C: ContactStructure, plan: SamplePlan) -> CheckReport:
    """Certify i_ξη = 1 and i_ξ dη = 0 at samples (the defining equations)."""
    xi = C.reeb()
    one = TensorField("one", C.atlas, (0, 0), lambda chart, env: 1.0)
    zero = TensorField("zero", C.atlas, (0, 1), lambda chart, env: zeros(chart.dim, 1))
    equations = agreeing((compose(C.eta, xi), one), (compose(xi, C.d_eta()), zero))
    return run_residual_check("reeb_residual", C.atlas, equations, plan)


def top_coefficient(C: ContactStructure) -> TensorField:
    """The scalar field |η∧(dη)^n| against the coordinate volume: n!·√max(det
    B, 0), B = [[0, η], [−ηᵀ, dη]], NaN where an entry of B is not finite."""
    n_factorial = math.factorial((C.dim - 1) // 2)

    def coefficient(cs, env):
        ev, dv = cs
        b = [[0.0, *ev]] + [[-e, *row] for e, row in zip(ev, dv)]
        return nk.each(lambda d: n_factorial * math.sqrt(max(d, 0.0)), nk.determinant(b))

    return tf_combine(
        f"top_coefficient({C.name})", (0, 0), [C.eta, C.d_eta()], coefficient
    )


def is_contact_form(C: ContactStructure, plan: SamplePlan) -> CheckReport:
    """Pass iff the top-form coefficient stays above the threshold everywhere.

    Reported residual is the coefficient's `nondegeneracy_shortfall`: 0 on
    a contact form, about 1 where η∧(dη)^n vanishes.  The record
    ``min_coefficient`` is the smallest coefficient; a NaN sticks.
    """
    return run_residual_check(
        "is_contact_form",
        C.atlas,
        nondegenerate(top_coefficient(C), "min_coefficient"),
        plan,
        details={"threshold": NONDEGENERACY_THRESHOLD},
        records={"min_coefficient": min},
    )


def kernel_frames(C: ContactStructure, plan: SamplePlan) -> list[TensorField]:
    """The frame of C = ker η as 2n *fields*, each on every sampled chart.

    On a chart, the k-th field is F = e_a − η_a·ξ for a the chart's k-th
    kept index, named by its distinct kept indices (``frame1``, or
    ``frame0|1`` where charts differ).  The dropped index is chosen here
    and nowhere else: the largest |η_k| at the chart's first sample of
    ``plan``, ties going to the lower index.  The sample is read through
    `sample_points`, so under a sample set it is the first point of the
    group the driver reduces.  η is evaluated at an env of that point
    alone, which gives, bit for bit, its slot of the group's batch; the
    batch env itself is left to the driver, whose errstate keeps a value
    that signals out of the memo the checks read.  η(F) ≡ 0 holds
    identically, not just at that point — bracket-based checks (almost-CR
    flag, CR torsion) depend on that.
    """
    xi = C.reeb()
    kept = {}  # chart name -> its kept indices, in order
    for name, points, _ in sample_points(C.atlas, plan):
        if points:
            ev = C.eta.at(name, C.atlas.chart(name).env(points[0]))
            dropped = max(range(len(ev)), key=lambda k: (abs(nk.value_of(ev[k])), -k))
            kept[name] = [a for a in range(len(ev)) if a != dropped]

    def frame_field(k):
        def components(chart, env):
            a = kept[chart.name][k]
            ev_vals, xv = C.eta.at(chart.name, env), xi.at(chart.name, env)
            return [(1.0 if j == a else 0.0) - ev_vals[a] * x for j, x in enumerate(xv)]

        label = "|".join(dict.fromkeys(str(indices[k]) for indices in kept.values()))
        return TensorField(f"frame{label}", C.atlas, (1, 0), components, kept)

    return [frame_field(k) for k in range(C.dim - 1)]
