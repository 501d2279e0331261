"""Gallery of built-in worked structures, keyed by name.

An entry is its definition document plus its structure and checks.  The
document (`EntryDoc`: atlases, `EntryField`s and `EntryMap`s) is what the
plain-text definition files state (grammar in ``docs/corpus-format.md``),
so external tools can consume the same charts, transition formulas and
component expressions; `emit_example` renders it and `parse_example_text`
reads it back into the same records.  Only hand-entered inputs carry
expressions; everything derived (solved complex structures, pulled back
forms, assembled products) appears as a ``builtin`` marker with a
one-line note.

A built entry (`Example`) adds the structure the rest of the library
consumes and a *declared* list of checks, each carrying the verdict it is
expected to produce.  Expected failures are data here, not test-suite
special cases: an entry whose construction is known to obstruct some
property declares that check with ``expect="fail"`` and a verification
run counts the failure as a match.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable

from . import exprlang
from . import numkernel as nk
from .bundle import (
    FIBER,
    cone_over,
    homogeneity_check,
    loop_sign,
    symplectic_check,
)
from .contact import (
    ContactStructure,
    is_contact_form,
    reeb_field,
    reeb_residual_check,
)
from .kahler import (
    almost_complex_check,
    compatibility_check,
    kahler_integrability_check,
    kahlerianization,
    reconstruct_main1,
    vertical_slope,
)
from .manifold import (
    Atlas,
    Chart,
    Point,
    SamplePlan,
    TransitionMap,
    TransitionPiece,
    apply_transition,
    atlas_consistency_check,
)
from .product import (
    invariant_slope_form,
    product_kahler_lift,
    product_routes_check,
    sasakian_product,
)
from .report import (
    FAIL,
    PASS,
    CheckReport,
    Reduction,
    check_report,
    run_residual_check,
)
from .sasaki import (
    LeviStructure,
    contact_metric_check,
    killing_check,
    n_tensors,
    paired_consistency_check,
    sasaki_check,
    standard_darboux_levi,
    theorem54_check,
)
from .tensor import (
    SmoothMap,
    TensorField,
    agreeing,
    cross_chart_consistency,
    exterior_derivative,
    lie_bracket,
    lie_derivative,
    max_abs,
    pullback,
    tf_add,
    tf_scale,
    vanishing,
    zeros,
)


class UnknownKey(KeyError):
    """Raised when a gallery key (or a parameter for it) is not recognised."""


# Plan used by builders that must gate their own inputs (products refuse
# non-normal factors); small and fixed so construction stays fast and
# deterministic no matter what plan the caller verifies with afterwards.
_GATE_PLAN = SamplePlan(seed=42, points_per_chart=6, tolerance=1e-7)

_PI = repr(math.pi)


# -- declared checks ---------------------------------------------------


@dataclass(frozen=True)
class CheckJob:
    """One declared verification: a named runner plus its expected verdict.

    ``run(plan, tol)`` executes the check under the given sample plan; a
    ``tol`` of None means the declared ``tolerance``.  ``expect`` is the
    verdict ("pass" or "fail") that counts as a match for this entry.
    """

    name: str
    expect: str
    tolerance: float
    run: Callable = dc_field(repr=False, compare=False)


@dataclass(frozen=True)
class _Jobs:
    """Declares the checks of the gallery entry ``key``.

    A check is a function of one `SamplePlan`.  Its job's ``run(plan, tol)``
    resolves the declared tolerance against ``tol`` once, into the plan the
    check reads, and stamps ``key`` on the report; nothing else does either.
    """

    key: str

    def __call__(
        self, name: str, tolerance: float, check: Callable, expect: str = PASS
    ) -> CheckJob:
        def run(plan: SamplePlan, tol: float | None = None) -> CheckReport:
            t = tolerance if tol is None else tol
            rep = check(dataclasses.replace(plan, tolerance=t))
            rep.example = self.key
            return rep

        return CheckJob(name, expect, tolerance, run)

    def atlas(self, name: str, atlas: Atlas) -> CheckJob:
        return self(name, 1e-10, lambda plan: atlas_consistency_check(atlas, plan))

    def sampled(
        self, name: str, tolerance: float, atlas: Atlas, residual: Callable
    ) -> CheckJob:
        """A job evaluating a pointwise residual over chart samples."""
        return self(
            name,
            tolerance,
            lambda plan: run_residual_check(name, atlas, residual, plan),
        )


# -- gallery entries ---------------------------------------------------


@dataclass
class EntryField:
    """A named tensor on one of an entry's atlases, as a definition file says.

    A "dsl" field was entered as component expressions, ``comps`` (chart ->
    index -> Expr), and is emitted verbatim; a "builtin" field is computed
    by library code and only its ``note`` is emitted.  ``field`` is the
    built `TensorField`, None when parsed.
    """

    name: str
    atlas_key: str
    valence: tuple[int, int]
    source: str
    comps: dict[str, dict[tuple, object]]
    note: str = ""
    field: TensorField | None = None

    @classmethod
    def of(cls, name: str, atlas_key: str, field: TensorField, note: str = ""):
        """The entry for a built field: "dsl" exactly when it has expressions."""
        source = "dsl" if field.exprs else "builtin"
        return cls(
            name, atlas_key, field.valence, source, field.exprs or {}, note, field
        )


@dataclass
class EntryMap:
    """A named chart-wise map between two of an entry's atlases.

    ``pieces`` is source chart -> (target chart, expressions); ``map`` is
    the built `SmoothMap`, None when parsed.
    """

    name: str
    src_key: str
    dst_key: str
    pieces: dict[str, tuple[str, tuple]]
    map: SmoothMap | None = None

    @classmethod
    def of(cls, name: str, src_key: str, dst_key: str, smooth: SmoothMap):
        return cls(name, src_key, dst_key, smooth.pieces, smooth)


@dataclass
class EntryDoc:
    """What an entry's definition file says: its atlases, fields and maps."""

    key: str
    summary: str
    params: dict[str, str]
    atlases: dict[str, Atlas]  # "main" first; insertion order is emitted order
    fields: list[EntryField]
    maps: list[EntryMap]


@dataclass
class Example(EntryDoc):
    """A built entry: its definition plus the structure and declared checks."""

    structure: object
    checks: tuple[CheckJob, ...]

    @property
    def atlas(self) -> Atlas:
        return self.atlases["main"]

    def check(self, name: str) -> CheckJob:
        for job in self.checks:
            if job.name == name:
                return job
        raise UnknownKey(f"{self.key}: no declared check named {name!r}")


# -- twisted-wrap atlases (the two-chart circle gluings) ----------------


def _wrap_atlas(extra: tuple[tuple[str, tuple[float, float]], ...]) -> Atlas:
    """Two charts over a circle glued with a half-shifted second chart.

    The loop coordinate x runs over ]0,1[ and ]1/2,3/2[; the two overlap
    components are the identity and the shift x+1 combined with a sign
    flip of every extra coordinate.  This is the smallest atlas on which
    an orientation-reversing gluing can be written with interval boxes.
    """
    coords = ("x",) + tuple(c for c, _ in extra)
    boxes = tuple(b for _, b in extra)
    chart_o = Chart("O", coords, ((0.0, 1.0),) + boxes)
    chart_u = Chart("U", coords, ((0.5, 1.5),) + boxes)

    def ident():
        return tuple(exprlang.parse(c) for c in coords)

    def flipped(x_expr: str):
        out = [exprlang.parse(x_expr)]
        out += [exprlang.parse(f"-{c}") for c, _ in extra]
        return tuple(out)

    def pieces(shared_x, wrap_x, fwd_x, inv_x):
        shared = TransitionPiece((shared_x,) + boxes, ident(), ident())
        wrap = TransitionPiece((wrap_x,) + boxes, flipped(fwd_x), flipped(inv_x))
        return (shared, wrap)

    t_ou = TransitionMap("O", "U", pieces((0.5, 1.0), (0.0, 0.5), "x + 1", "x - 1"))
    t_uo = TransitionMap("U", "O", pieces((0.5, 1.0), (1.0, 1.5), "x - 1", "x + 1"))
    return Atlas([chart_o, chart_u], [t_ou, t_uo])


def _wrap_sign(t: TransitionMap, piece: TransitionPiece) -> float:
    """-1 on the shifted overlap component, +1 on the shared one."""
    lo, hi = piece.box[0]
    mid = 0.5 * (lo + hi)
    moved = exprlang.eval_expr(piece.forward[0], {"x": mid})
    return -1.0 if abs(moved - mid) > 0.25 else 1.0


# Going once around the loop: through the shared overlap, then back
# through the shifted one.  Piece 0 is shared, piece 1 is the wrap.
_LOOP_PATH = (("O", "U", 0), ("U", "O", 1))

_CIRCLE = _wrap_atlas(())
_JET_EXTRA = (("p", (-3.5, 3.5)), ("z", (-3.5, 3.5)))

# dz - p dx on each chart; the wrap flips it, so the structure is paired.
_JET_ETA_TABLE = {(0,): "-p", (2,): "1"}
# The quarter turn of the kernel frame: the x-direction goes to the
# p-direction, the p-direction to minus the horizontal lift of x.
_JET_ENDO_TABLE = {(1, 0): "1", (0, 1): "-1", (2, 1): "-p"}


def _jet_base_structure() -> LeviStructure:
    atlas = _wrap_atlas(_JET_EXTRA)
    eta = TensorField.from_exprs(
        "kernel_form",
        atlas,
        (0, 1),
        {"O": dict(_JET_ETA_TABLE), "U": dict(_JET_ETA_TABLE)},
    )
    contact = ContactStructure(
        "twisted_jet_contact",
        atlas,
        eta,
        paired=True,
        transition_sign=_wrap_sign,
    )
    endo = TensorField.from_exprs(
        "kernel_rotation",
        atlas,
        (1, 1),
        {"O": dict(_JET_ENDO_TABLE), "U": dict(_JET_ENDO_TABLE)},
    )
    return LeviStructure("twisted_jet", contact, endo)


# -- mobius-band -------------------------------------------------------


def _build_mobius_band(params: dict) -> Example:
    key = "mobius-band"
    _reject_params(key, params)
    bundle = cone_over(_CIRCLE, "Rx", _wrap_sign, name="twisted_line_bundle")

    job = _Jobs(key)
    checks = (
        job.atlas("atlas_consistency", bundle.total),
        job.atlas("base_atlas_consistency", bundle.base),
        job("loop_sign", 0.0, _loop_check(bundle.total, bundle.transition_sign)),
    )
    return Example(
        key=key,
        summary="twisted real line bundle over the circle; its gluing-sign "
        "loop product is -1, so no global nonvanishing section exists",
        atlases={"main": bundle.total, "circle": bundle.base},
        fields=[],
        maps=[],
        structure=bundle,
        checks=checks,
        params={},
    )


def _scalar_report(
    name: str, plan: SamplePlan, residual: float, details: dict | None = None
) -> CheckReport:
    """Report for a single derived number (no pointwise sampling)."""
    return check_report(
        name, Reduction(residual, {}, ("-", (), residual), 1), plan,
        details=details,
    )


def _loop_check(atlas: Atlas, sign_fn: Callable) -> Callable:
    """The loop_sign check: `sign_fn` multiplies to −1 around `_LOOP_PATH`."""

    def check(plan: SamplePlan) -> CheckReport:
        sign = loop_sign(atlas, sign_fn, _LOOP_PATH)
        return _scalar_report(
            "loop_sign", plan, abs(sign - (-1.0)),
            details={"path": [list(step) for step in _LOOP_PATH], "sign": sign},
        )

    return check


# -- darboux -----------------------------------------------------------


def _build_darboux(n: int, params: dict) -> Example:
    key = f"darboux-{n}"
    _reject_params(key, params)
    struct = standard_darboux_levi(n)
    contact = struct.contact
    atlas = contact.atlas

    n_fields = n_tensors(struct)

    job = _Jobs(key)
    checks = (
        job.atlas("atlas_consistency", atlas),
        job("contact_form", 0.0, lambda plan: is_contact_form(contact, plan)),
        job("reeb_residual", 1e-9, lambda plan: reeb_residual_check(contact, plan)),
        job("structure_axioms", 1e-8, struct.validate),
        job("contact_metric", 1e-7, lambda plan: contact_metric_check(struct, plan)),
        job("sasaki", 1e-7, lambda plan: sasaki_check(struct, plan)),
        job("killing", 1e-8, lambda plan: killing_check(struct, plan)),
        job(
            "second_order_identity", 1e-7, lambda plan: theorem54_check(struct, plan)
        ),
        job.sampled(
            "torsion_tensors_vanish", 1e-7, atlas, vanishing(*n_fields.values())
        ),
    )
    fields = [
        EntryField.of("eta", "main", contact.eta),
        EntryField.of("endo", "main", struct.phibar),
        EntryField.of(
            "metric", "main", struct.metric(),
            "eta squared plus the transverse pairing of eta's differential "
            "with the endomorphism",
        ),
        EntryField.of(
            "reeb", "main", contact.reeb(),
            "unique field pairing to 1 with eta and to 0 with its differential",
        ),
    ]
    return Example(
        key=key,
        summary=f"flat {2 * n + 1}-dimensional normal contact metric structure "
        "in a single global chart",
        atlases={"main": atlas},
        fields=fields,
        maps=[],
        structure=struct,
        checks=checks,
        params={},
    )


# -- mobius-cotangent --------------------------------------------------


def _twisted_kahler_data():
    """Shared construction: the cone pair over the twisted jet structure."""
    struct = _jet_base_structure()
    pair = kahlerianization(struct, slope=0.0)
    return struct, pair


def _cot_complex_structure(atlas: Atlas) -> TensorField:
    """Closed-form half-invariant complex structure on the twisted cone.

    In each chart, with kernel frame (horizontal lift X = d/dx + p d/dz,
    d/dp), scaling field s d/ds and kernel form dz - p dx:  the scaling
    direction rotates into the kernel-form direction and X into d/dp, all
    graded by the sign of the fiber.  Entered by hand (it is not a DSL
    expression: the fiber sign has a kink at s = 0, which the excluded
    band keeps away from samples).
    """

    def components(chart, env):
        si = chart.index(FIBER)
        xi_, pi_, zi_ = (chart.index(c) for c in ("x", "p", "z"))
        p, s = env["p"], env[FIBER]
        sg = nk.signum(s)
        m = zeros(chart.dim, 2)
        m[pi_][xi_] = sg
        m[si][xi_] = sg * p * s
        m[xi_][pi_] = -sg
        m[zi_][pi_] = -sg * p
        m[si][zi_] = -sg * s
        m[zi_][si] = sg / s
        return m

    return TensorField(
        "half_invariant_complex_structure", atlas, (1, 1), components
    )


def _cot_eigenframe(atlas: Atlas):
    """The four complex frame fields of the twisted cone, as (re, im) pairs.

    Complex vectors are represented by pairs of real fields so that all
    bracket arithmetic stays real: [Z, W] splits into the four real
    brackets of the parts.
    """

    def frame_field(name, comp_fn):
        return TensorField(name, atlas, (1, 0), comp_fn)

    def along(chart, coord, value):
        out = [0.0] * chart.dim
        out[chart.index(coord)] = value
        return out

    def x_lift(chart, env):
        out = [0.0] * chart.dim
        out[chart.index("x")] = 1.0
        out[chart.index("z")] = env["p"]
        return out

    scaling = frame_field("scaling", lambda c, e: along(c, FIBER, e[FIBER]))
    sgn_dz = frame_field("sgn_dz", lambda c, e: along(c, "z", nk.signum(e[FIBER])))
    sgn_dp = frame_field("sgn_dp", lambda c, e: along(c, "p", nk.signum(e[FIBER])))
    horizontal = frame_field("x_lift", x_lift)

    # eigenvalue +i: (sgn dz, scaling), (sgn dp, X);  eigenvalue -i:
    # (scaling, sgn dz), (X, sgn dp) -- real part first, then imaginary.
    a1 = (sgn_dz, scaling)
    a2 = (sgn_dp, horizontal)
    b1 = (scaling, sgn_dz)
    b2 = (horizontal, sgn_dp)
    return a1, a2, b1, b2


def complex_pair_bracket(z1, z2):
    """[Z1, Z2] for complex fields given as (re, im) pairs of real fields."""
    u1, v1 = z1
    u2, v2 = z2
    re = tf_add(
        lie_bracket(u1, u2), tf_scale(lie_bracket(v1, v2), -1.0), name="re_bracket"
    )
    im = tf_add(lie_bracket(u1, v2), lie_bracket(v1, u2), name="im_bracket")
    return re, im


def _build_mobius_cotangent(params: dict) -> Example:
    key = "mobius-cotangent"
    _reject_params(key, params)
    struct, pair = _twisted_kahler_data()
    total = pair.bundle.total
    jmat = _cot_complex_structure(total)
    a1, a2, b1, b2 = _cot_eigenframe(total)

    # [A2, B2] is the one bracket that does *not* vanish: it equals
    # A1 - i B1, twice the sign-graded kernel-form direction.  The three
    # other mixed pairs and both eigenbundle pairs commute.
    re_ab, im_ab = complex_pair_bracket(a2, b2)
    re_want = tf_add(a1[0], b1[1], name="re_mixed")  # re(A1 - iB1) = reA1 + imB1
    im_want = tf_add(a1[1], tf_scale(b1[0], -1.0), name="im_mixed")

    eigen_brackets = [
        f for pair_ in (complex_pair_bracket(a1, a2), complex_pair_bracket(b1, b2))
        for f in pair_
    ]
    cross_brackets = [
        f
        for pair_ in (
            complex_pair_bracket(a1, b1),
            complex_pair_bracket(a1, b2),
            complex_pair_bracket(a2, b1),
        )
        for f in pair_
    ]

    def hom(field, weight, mode):
        return lambda plan: homogeneity_check(field, weight, mode, plan, pair.bundle)

    def crosscheck(field, label):
        return lambda plan: cross_chart_consistency(
            field, plan, check_name=f"single_valued({label})"
        )

    job = _Jobs(key)
    checks = (
        job.atlas("atlas_consistency", total),
        job.atlas("base_atlas_consistency", struct.atlas),
        job("symplectic_form", 1e-8, lambda plan: symplectic_check(pair.omega, plan)),
        job("single_valued_two_form", 1e-9, crosscheck(pair.omega, "two_form")),
        job("single_valued_metric", 1e-9, crosscheck(pair.g, "metric")),
        job("single_valued_complex", 1e-9, crosscheck(jmat, "complex")),
        job("homogeneous_two_form", 1e-8, hom(pair.omega, 1, "plain")),
        job("homogeneous_metric", 1e-8, hom(pair.g, 1, "positive")),
        job("homogeneous_complex", 1e-8, hom(jmat, 0, "half")),
        job("almost_complex", 1e-8, lambda plan: almost_complex_check(jmat, plan)),
        job(
            "integrability", 1e-8, lambda plan: kahler_integrability_check(jmat, plan)
        ),
        job(
            "compatibility", 1e-8,
            lambda plan: compatibility_check(pair.omega, pair.g, jmat, plan),
        ),
        job.sampled(
            "complex_structure_solves_pair", 1e-9, total, agreeing((jmat, pair.J))
        ),
        job.sampled("eigenframe_commutators", 1e-9, total, vanishing(*eigen_brackets)),
        job.sampled("cross_frame_commutators", 1e-9, total, vanishing(*cross_brackets)),
        job.sampled(
            "mixed_commutator_identity", 1e-9, total,
            agreeing((re_ab, re_want), (im_ab, im_want)),
        ),
    )
    fields = [
        EntryField.of("eta", "base", struct.contact.eta),
        EntryField.of("endo", "base", struct.phibar),
        EntryField.of(
            "two_form", "main", pair.omega,
            "homogeneous two-form of the fiberwise scaling bundle",
        ),
        EntryField.of(
            "metric", "main", pair.g,
            "degree-1 cone metric calibrated by the absolute fiber",
        ),
        EntryField.of(
            "complex_structure", "main", jmat,
            "half-invariant rotation exchanging the scaling direction with "
            "the kernel-form direction; certified equal to the solved "
            "compatibility tensor",
        ),
        EntryField.of(
            "frame_scaling", "main", a1[1],
            "scaling field s d/ds; imaginary part of the first "
            "plus-eigenvalue frame",
        ),
        EntryField.of(
            "frame_sgn_dz", "main", a1[0],
            "sign-graded kernel-form direction; real part of the first "
            "plus-eigenvalue frame",
        ),
        EntryField.of(
            "frame_sgn_dp", "main", a2[0],
            "sign-graded fiber-slope direction; real part of the second "
            "plus-eigenvalue frame",
        ),
        EntryField.of(
            "frame_x_lift", "main", a2[1],
            "horizontal lift of the loop direction; imaginary part of the "
            "second plus-eigenvalue frame",
        ),
    ]
    return Example(
        key=key,
        summary="non-trivializable two-sided cone over the twisted jet "
        "structure, carrying a single-valued homogeneous symplectic/metric "
        "pair whose compatibility tensor is an integrable half-invariant "
        "complex structure",
        atlases={"main": total, "base": struct.atlas},
        fields=fields,
        maps=[],
        structure=pair,
        checks=checks,
        params={},
    )


# -- mobius-jet --------------------------------------------------------


def _section_map(name: str, p_expr: str, z_expr: str, base: Atlas) -> SmoothMap:
    table = {}
    for chart in ("O", "U"):
        table[chart] = (chart, ("x", p_expr, z_expr))
    return SmoothMap.from_exprs(name, _CIRCLE, base, table)


def _build_mobius_jet(params: dict) -> Example:
    key = "mobius-jet"
    _reject_params(key, params)
    struct, pair = _twisted_kahler_data()
    contact = struct.contact
    base = struct.atlas
    total = pair.bundle.total
    jmat = pair.J

    base_idx = {c.name: [c.coords.index(x) for x in ("x", "p", "z")] for c in base.charts}

    def projected_eta(chart, env, s=1.0):
        total_chart = total.chart(chart)
        si = total_chart.index(FIBER)
        om = pair.omega.at(chart, pair.bundle.lift_env(env, s))
        # contraction of the two-form with the scaling field, divided by
        # the fiber: (i_{s d/ds} omega)_j / s = omega_{sj}
        return [om[si][j] for j in base_idx[chart]]

    def projected_endo(chart, env, s=1.0):
        jm = jmat.at(chart, pair.bundle.lift_env(env, s))
        return [[jm[i][j] for j in base_idx[chart]] for i in base_idx[chart]]

    def projected_metric(chart, env, s=1.0):
        gm = pair.g.at(chart, pair.bundle.lift_env(env, s))
        return [[gm[i][j] for j in base_idx[chart]] for i in base_idx[chart]]

    eta_proj = TensorField(
        "projected_kernel_form", base, (0, 1),
        lambda chart, env: projected_eta(chart.name, env),
    )
    endo_proj = TensorField(
        "projected_rotation", base, (1, 1),
        lambda chart, env: projected_endo(chart.name, env),
    )
    metric_proj = TensorField(
        "projected_metric", base, (0, 2),
        lambda chart, env: projected_metric(chart.name, env),
    )

    _PROBES = (1.0, 1.7, -1.3)

    def projectable_residual(chart, coords, env):
        """The cone data descends: the projected form is fiber-independent,
        the projected rotation is graded by the fiber sign, the projected
        metric block scales with the absolute fiber."""
        comps = []
        e1 = projected_eta(chart, env, 1.0)
        f1 = projected_endo(chart, env, 1.0)
        g1 = projected_metric(chart, env, 1.0)
        for s in _PROBES[1:]:
            es = projected_eta(chart, env, s)
            comps.append([a - b for a, b in zip(es, e1)])
            sg = 1.0 if s > 0 else -1.0
            fs = projected_endo(chart, env, s)
            comps.append([
                fs[i][j] - sg * f1[i][j] for i in range(3) for j in range(3)
            ])
            gs = projected_metric(chart, env, s)
            comps.append([
                gs[i][j] - abs(s) * g1[i][j] for i in range(3) for j in range(3)
            ])
        return max_abs(comps)

    metric_here = struct.metric()

    sine = _section_map("section_sine", f"{_PI} * cos({_PI} * x)", f"sin({_PI} * x)", base)
    cosine = _section_map(
        "section_cosine", f"-{_PI} * sin({_PI} * x)", f"cos({_PI} * x)", base
    )

    def section_values(sm: SmoothMap, chart: str, x: float):
        return sm.apply(chart, {"x": x})

    def sections_global_residual(chart, coords, env):
        """A section formula is one tensorial object: pushing its value
        through the overlap gluing lands on the other chart's formula."""
        other = "U" if chart == "O" else "O"
        comps = []
        for sm in (sine, cosine):
            vals = [nk.value_of(v) for v in section_values(sm, chart, env["x"])]
            moved = apply_transition(base, Point(chart, tuple(vals)), other)
            want = section_values(sm, other, moved.coords[0])
            comps += [a - nk.value_of(b) for a, b in zip(moved.coords, want)]
        return max_abs(comps)

    def sections_independent_residual(chart, coords, env):
        p1, z1 = (nk.value_of(v) for v in section_values(sine, chart, env["x"])[1:])
        p2, z2 = (nk.value_of(v) for v in section_values(cosine, chart, env["x"])[1:])
        return abs((p1 * z2 - z1 * p2) - math.pi)

    job = _Jobs(key)
    checks = (
        job.atlas("atlas_consistency", base),
        job("contact_form", 0.0, lambda plan: is_contact_form(contact, plan)),
        job("reeb_residual", 1e-9, lambda plan: reeb_residual_check(contact, plan)),
        job.sampled("projectable", 1e-9, base, projectable_residual),
        job.sampled(
            "projection_reference", 1e-9, base,
            agreeing(
                (eta_proj, contact.eta),
                (endo_proj, struct.phibar),
                (metric_proj, metric_here),
            ),
        ),
        job(
            "paired_consistency", 1e-8,
            lambda plan: paired_consistency_check(struct, plan),
        ),
        job("sasaki", 1e-8, lambda plan: sasaki_check(struct, plan)),
        job("loop_sign", 0.0, _loop_check(base, contact.transition_sign)),
        job.sampled("sections_global", 1e-9, _CIRCLE, sections_global_residual),
        job.sampled(
            "sections_independent", 1e-9, _CIRCLE, sections_independent_residual
        ),
    )
    fields = [
        EntryField.of("eta", "main", contact.eta),
        EntryField.of("endo", "main", struct.phibar),
        EntryField.of(
            "metric", "main", metric_here,
            "eta squared plus the transverse pairing; single-valued even "
            "though eta is only paired",
        ),
        EntryField.of(
            "eta_projected", "main", eta_proj,
            "two-form of the cone contracted with the scaling field, over "
            "the fiber, restricted to the unit branch",
        ),
        EntryField.of(
            "endo_projected", "main", endo_proj,
            "base block of the cone complex structure on the unit branch",
        ),
        EntryField.of(
            "metric_projected", "main", metric_proj,
            "base block of the cone metric on the unit branch",
        ),
    ]
    maps = [
        EntryMap.of("section_sine", "circle", "main", sine),
        EntryMap.of("section_cosine", "circle", "main", cosine),
        EntryMap.of(
            "base_projection", "cone", "main",
            SmoothMap.from_exprs(
                "base_projection", total, base,
                {c.name: (c.name, ("x", "p", "z")) for c in total.charts},
            ),
        ),
    ]
    return Example(
        key=key,
        summary="paired (sign-glued) contact metric structure on the twisted "
        "jet bundle, obtained by projecting the cone data to the unit "
        "branch; globally trivializable as a vector bundle via two explicit "
        "independent sections",
        atlases={"main": base, "circle": _CIRCLE, "cone": total},
        fields=fields,
        maps=maps,
        structure=struct,
        checks=checks,
        params={},
    )


# -- spheres -----------------------------------------------------------


def _sphere_atlas(dimb: int) -> Atlas:
    coords = tuple(f"u{i}" for i in range(1, dimb + 1))
    box = ((-3.0, 3.0),) * dimb
    # keep |u| away from the inversion center so overlap images stay tame
    excl = (("u1", -0.2, 0.2),)
    north = Chart("N", coords, box, excluded=excl)
    south = Chart("S", coords, box, excluded=excl)
    norm2 = " + ".join(f"{c}^2" for c in coords)
    inv = tuple(exprlang.parse(f"4 * {c} / ({norm2})") for c in coords)
    piece = TransitionPiece(((-25.0, 25.0),) * dimb, inv, inv)
    return Atlas(
        [north, south],
        [TransitionMap("N", "S", (piece,)), TransitionMap("S", "N", (piece,))],
    )


def _ambient_atlas(n: int) -> Atlas:
    coords = []
    for k in range(1, n + 2):
        coords += [f"p{k}", f"q{k}"]
    return Atlas([Chart("ambient", tuple(coords), ((-2.5, 2.5),) * len(coords))])


def _ambient_rotation_form(ambient: Atlas, n: int) -> TensorField:
    table = {}
    for k in range(n + 1):
        table[(2 * k,)] = f"0.5 * q{k + 1}"
        table[(2 * k + 1,)] = f"-0.5 * p{k + 1}"
    return TensorField.from_exprs(
        "ambient_rotation_form", ambient, (0, 1), {"ambient": table}
    )


def _ambient_flat_metric(ambient: Atlas) -> TensorField:
    dim = ambient.charts[0].dim
    return TensorField.from_exprs(
        "ambient_flat_metric", ambient, (0, 2),
        {"ambient": {(i, i): "1" for i in range(dim)}},
    )


def _sphere_embedding(dimb: int, sphere: Atlas, ambient: Atlas) -> SmoothMap:
    coords = sphere.charts[0].coords
    norm2 = " + ".join(f"{c}^2" for c in coords)
    d_expr = f"({norm2} + 4)"
    body = tuple(f"8 * {c} / {d_expr}" for c in coords)
    north = body + (f"2 * (({norm2}) - 4) / {d_expr}",)
    south = body + (f"2 * (4 - ({norm2})) / {d_expr}",)
    return SmoothMap.from_exprs(
        "sphere_embedding", sphere, ambient,
        {"N": ("ambient", north), "S": ("ambient", south)},
    )


def _sphere_frame(env: dict, coords: tuple, last_sign: float):
    """Embedding value y and Jacobian M in closed form.

    For the stereographic parametrisation y_i = 8 u_i / D, y_last =
    ±2(|u|² - 4)/D with D = |u|² + 4:  dy_i/du_j = (8 δ_ij - 16 u_i u_j / D)/D
    and dy_last/du_j = ±32 u_j / D².  The chart Gram matrix M^T M equals
    (64/D²)·Id (the parametrisation is conformal), |y|² = 4, and M^T y = 0;
    all three are certified by the embedding_frame check.
    """
    u = [env[c] for c in coords]
    dimb = len(u)
    nrm2 = nk.sum_(x * x for x in u)
    d = nrm2 + 4.0
    y = [8.0 * x / d for x in u] + [last_sign * 2.0 * (nrm2 - 4.0) / d]
    m = []
    for a in range(dimb):
        m.append([(8.0 * (1.0 if a == j else 0.0) - 16.0 * u[a] * u[j] / d) / d for j in range(dimb)])
    m.append([last_sign * 32.0 * u[j] / (d * d) for j in range(dimb)])
    return y, m, d


def _quarter_turn(v: list) -> list:
    """(p, q) -> (q, -p) in each consecutive coordinate pair."""
    out = [0.0] * len(v)
    for k in range(0, len(v), 2):
        out[k] = v[k + 1]
        out[k + 1] = -v[k]
    return out


_LAST_SIGN = {"N": 1.0, "S": -1.0}


def _sphere_fields(atlas: Atlas):
    """Kernel form, its endomorphism and the rotation field, closed form.

    Everything reduces to the conformal frame identity: for a tangent
    vector with ambient image w, the chart components are (D²/64)·Mᵀw.
    """
    coords = atlas.charts[0].coords
    dimb = len(coords)

    def tangent_components(m, d, w):
        return [
            (d * d / 64.0) * nk.sum_(m[a][i] * w[a] for a in range(dimb + 1))
            for i in range(dimb)
        ]

    def eta_ev(chart, env):
        y, m, d = _sphere_frame(env, coords, _LAST_SIGN[chart.name])
        half_turn = _quarter_turn(y)
        # eta(v) = <J0 y, M v>/2: covector entries (Mᵀ J0 y)_i / 2
        return [
            0.5 * nk.sum_(m[a][i] * half_turn[a] for a in range(dimb + 1))
            for i in range(dimb)
        ]

    def reeb_ev(chart, env):
        y, m, d = _sphere_frame(env, coords, _LAST_SIGN[chart.name])
        return tangent_components(m, d, [0.5 * w for w in _quarter_turn(y)])

    def endo_ev(chart, env):
        y, m, d = _sphere_frame(env, coords, _LAST_SIGN[chart.name])
        cols = []
        for j in range(dimb):
            img = [m[a][j] for a in range(dimb + 1)]
            turned = _quarter_turn(img)
            dot = nk.sum_(turned[a] * y[a] for a in range(dimb + 1))
            tangential = [turned[a] - 0.25 * dot * y[a] for a in range(dimb + 1)]
            cols.append(tangent_components(m, d, tangential))
        return [[cols[j][i] for j in range(dimb)] for i in range(dimb)]

    eta = TensorField("sphere_kernel_form", atlas, (0, 1), eta_ev)
    reeb = TensorField("sphere_rotation_field", atlas, (1, 0), reeb_ev)
    endo = TensorField("sphere_endo", atlas, (1, 1), endo_ev)
    return eta, reeb, endo


def _build_sphere(n: int, params: dict) -> Example:
    key = f"sphere-{2 * n + 1}"
    _reject_params(key, params)
    dimb = 2 * n + 1
    atlas = _sphere_atlas(dimb)
    ambient = _ambient_atlas(n)
    embed = _sphere_embedding(dimb, atlas, ambient)
    theta = _ambient_rotation_form(ambient, n)
    flat = _ambient_flat_metric(ambient)
    eta, reeb, endo = _sphere_fields(atlas)
    coords = atlas.charts[0].coords

    contact = ContactStructure(f"sphere{dimb}_contact", atlas, eta, _reeb=reeb)
    struct = LeviStructure(f"sphere{dimb}", contact, endo)

    def frame_residual(chart, coords_, env):
        y, m, d = _sphere_frame(env, coords, _LAST_SIGN[chart])
        vals, jac = embed.jet(chart, env)
        comps = [nk.sum_(w * w for w in y) - 4.0]
        for a in range(dimb + 1):
            comps.append(vals[a] - y[a])
            comps += [jac[a][j] - m[a][j] for j in range(dimb)]
        scale = 64.0 / nk.value_of(d * d)
        for i in range(dimb):
            comps.append(nk.sum_(m[a][i] * y[a] for a in range(dimb + 1)))
            for j in range(dimb):
                gram = nk.sum_(m[a][i] * m[a][j] for a in range(dimb + 1))
                want = scale if i == j else 0.0
                comps.append(nk.value_of(gram) - want)
        return max_abs(comps)

    eta_pulled = pullback(embed, theta, name="pulled_rotation_form")
    metric_pulled = pullback(embed, flat, name="pulled_flat_metric")
    metric_here = struct.metric()

    bare = ContactStructure(f"{contact.name}_resolved", atlas, eta)
    solved_reeb = reeb_field(bare)

    job = _Jobs(key)
    checks = (
        job.atlas("atlas_consistency", atlas),
        job.sampled("embedding_frame", 1e-10, atlas, frame_residual),
        job.sampled("contact_form_reference", 1e-9, atlas, agreeing((eta_pulled, eta))),
        job.sampled(
            "round_metric", 1e-9, atlas, agreeing((metric_here, metric_pulled))
        ),
        job.sampled("reeb_reference", 1e-9, atlas, agreeing((solved_reeb, reeb))),
        job("contact_form", 0.0, lambda plan: is_contact_form(contact, plan)),
        job("reeb_residual", 1e-9, lambda plan: reeb_residual_check(contact, plan)),
        job(
            "single_valued_eta", 1e-8,
            lambda plan: cross_chart_consistency(
                contact.eta, plan, check_name="single_valued(eta)"
            ),
        ),
        job("structure_axioms", 1e-8, struct.validate),
        job("contact_metric", 1e-7, lambda plan: contact_metric_check(struct, plan)),
        job("sasaki", 1e-7, lambda plan: sasaki_check(struct, plan)),
    )
    fields = [
        EntryField.of("ambient_rotation_form", "ambient", theta),
        EntryField.of("ambient_flat_metric", "ambient", flat),
        EntryField.of(
            "eta", "main", eta,
            "restriction of the ambient rotation form along the embedding "
            "(closed form; certified against the pullback)",
        ),
        EntryField.of(
            "reeb", "main", reeb,
            "half the quarter-turn of the position vector, in chart components",
        ),
        EntryField.of(
            "endo", "main", endo,
            "tangential part of the ambient quarter-turn",
        ),
        EntryField.of(
            "metric", "main", metric_here,
            "associated metric; coincides with the restriction of the "
            "ambient flat metric (round_metric check)",
        ),
    ]
    return Example(
        key=key,
        summary=f"round {dimb}-sphere of radius 2 in two stereographic "
        "charts; the restricted ambient rotation form is a contact form "
        "whose associated structure is normal",
        atlases={"main": atlas, "ambient": ambient},
        fields=fields,
        maps=[EntryMap.of("embedding", "main", "ambient", embed)],
        structure=struct,
        checks=checks,
        params={},
    )


# -- sasakian product --------------------------------------------------


def _build_product(params: dict) -> Example:
    key = "product-darboux"
    _reject_params(key, params)
    left = standard_darboux_levi(1)
    right = standard_darboux_levi(1)
    struct = sasakian_product(left, right, _GATE_PLAN)
    contact = struct.contact
    atlas = contact.atlas
    pair = product_kahler_lift(left, right, _GATE_PLAN)
    beta = invariant_slope_form(pair.bundle)
    dbeta = exterior_derivative(beta)
    diag = pair.bundle.liouville()
    l_diag_beta = lie_derivative(beta, diag)
    reeb = contact.reeb()
    dim = atlas.charts[0].dim
    zi1 = atlas.charts[0].coords.index("z1")
    zi2 = atlas.charts[0].coords.index("z2")

    def reeb_sum_residual(chart, coords, env):
        want = [0.0] * dim
        want[zi1] = 1.0
        want[zi2] = 1.0
        return max_abs([a - b for a, b in zip(reeb.at(chart, env), want)])

    def beta_invariance_residual(chart, coords, env):
        bv = beta.at(chart, env)
        dv = diag.at(chart, env)
        pairing = nk.sum_(b * d for b, d in zip(bv, dv))
        return max_abs([pairing, l_diag_beta.at(chart, env)])

    cone_total = pair.bundle.total

    job = _Jobs(key)
    checks = (
        job.atlas("atlas_consistency", atlas),
        job("contact_form", 0.0, lambda plan: is_contact_form(contact, plan)),
        job("reeb_residual", 1e-9, lambda plan: reeb_residual_check(contact, plan)),
        job.sampled("reeb_is_sum", 1e-9, atlas, reeb_sum_residual),
        job("structure_axioms", 1e-8, struct.validate),
        job("contact_metric", 1e-7, lambda plan: contact_metric_check(struct, plan)),
        job("sasaki", 1e-7, lambda plan: sasaki_check(struct, plan)),
        job(
            "reparametrization_routes", 1e-7,
            lambda plan: product_routes_check(struct, pair, plan),
        ),
        job.sampled(
            "slope_form_invariant", 1e-9, cone_total, beta_invariance_residual
        ),
        job.sampled("slope_form_closed", 1e-9, cone_total, vanishing(dbeta)),
        job(
            "slope_form_homogeneous", 1e-9,
            lambda plan: homogeneity_check(beta, 0, "plain", plan, pair.bundle),
        ),
    )
    fields = [
        EntryField.of(
            "eta", "main", contact.eta,
            "normalized mix of the factor kernel forms along the mixing "
            "coordinate t",
        ),
        EntryField.of(
            "endo", "main", struct.phibar,
            "block sum of the factor endomorphisms extended to the mixing "
            "plane",
        ),
        EntryField.of(
            "metric", "main", struct.metric(),
            "associated metric of the normalized product",
        ),
        EntryField.of(
            "slope_form", "cone", beta,
            "degree-0 one-form measuring the fiber ratio of the product cone",
        ),
    ]
    return Example(
        key=key,
        summary="normalized product of two flat 3-dimensional normal "
        "structures: a 7-dimensional normal contact metric structure whose "
        "Reeb field is the sum of the factor Reeb fields",
        atlases={"main": atlas, "cone": cone_total},
        fields=fields,
        maps=[],
        structure=struct,
        checks=checks,
        params={},
    )


# -- main1 family ------------------------------------------------------


def _build_main1(params: dict) -> Example:
    key = "main1-family"
    raw = dict(params)
    slope_raw = raw.pop("a", "0.7")
    if raw:
        raise UnknownKey(f"{key}: unknown parameters {sorted(raw)}")
    slope_expr = exprlang.parse(str(slope_raw))
    slope_src = exprlang.pretty(slope_expr)
    constant = not exprlang.free_vars(slope_expr)

    base = standard_darboux_levi(1)
    contact = base.contact
    pair = kahlerianization(base, slope=slope_src)
    bundle = pair.bundle
    total = bundle.total
    chart = total.charts[0]
    si = chart.index(FIBER)
    zi = chart.index("z")

    def hom(field, weight, mode):
        return lambda plan: homogeneity_check(field, weight, mode, plan, bundle)

    slope = vertical_slope(contact, bundle, pair.g)

    def recovery_residual(chart_name, coords, env):
        base_env = bundle.base_env(env)
        a_here = exprlang.eval_expr(slope_expr, base_env)
        got_a = slope.at(chart_name, env)
        r = abs(nk.value_of(got_a - a_here))

        jm = pair.J.at(chart_name, env)
        dim = chart.dim
        s = env[FIBER]
        # the scaling field and the lifted Reeb field span the vertical
        # plane; on it J acts by [[a, 1], [-(1+a²), -a]] in that order:
        # J(scaling) = xi - a·scaling, J(xi) = a·xi - (1+a²)·scaling
        nabla = [0.0] * dim
        nabla[si] = s
        xi_lift = [0.0] * dim
        xi_lift[zi] = 1.0
        img_nabla = [nk.sum_(jm[i][j] * nabla[j] for j in range(dim)) for i in range(dim)]
        img_xi = [nk.sum_(jm[i][j] * xi_lift[j] for j in range(dim)) for i in range(dim)]
        want_nabla = [xi_lift[i] - a_here * nabla[i] for i in range(dim)]
        want_xi = [
            a_here * xi_lift[i] - (1.0 + a_here * a_here) * nabla[i]
            for i in range(dim)
        ]
        return max_abs([
            r,
            [a - b for a, b in zip(img_nabla, want_nabla)],
            [a - b for a, b in zip(img_xi, want_xi)],
        ])

    job = _Jobs(key)
    checks = (
        job.atlas("atlas_consistency", total),
        job("symplectic_form", 1e-8, lambda plan: symplectic_check(pair.omega, plan)),
        job("homogeneous_two_form", 1e-8, hom(pair.omega, 1, "plain")),
        job("homogeneous_metric", 1e-8, hom(pair.g, 1, "positive")),
        job("almost_complex", 1e-8, lambda plan: almost_complex_check(pair.J, plan)),
        job(
            "compatibility", 1e-8,
            lambda plan: compatibility_check(pair.omega, pair.g, pair.J, plan),
        ),
        job(
            "integrability", 1e-8,
            lambda plan: kahler_integrability_check(pair.J, plan),
            expect=PASS if constant else FAIL,
        ),
        job(
            "reconstruction", 1e-6,
            lambda plan: reconstruct_main1(
                contact, bundle, pair.g, pair.J, plan
            ).report,
        ),
        job.sampled("slope_recovery", 1e-8, total, recovery_residual),
    )
    fields = [
        EntryField.of("eta", "base", contact.eta),
        EntryField.of("endo", "base", base.phibar),
        EntryField.of(
            "two_form", "main", pair.omega,
            "homogeneous two-form of the scaling bundle",
        ),
        EntryField.of(
            "metric", "main", pair.g,
            f"degree-1 cone metric sheared by the slope a = {slope_src}",
        ),
        EntryField.of(
            "complex_structure", "main", pair.J,
            "compatibility tensor solved from the pair",
        ),
    ]
    return Example(
        key=key,
        summary="one-parameter family of homogeneous metrics on the cone "
        "over the flat 3-dimensional structure, sheared by a slope "
        "function; compatible for every slope, integrable exactly when "
        "the slope is constant",
        atlases={"main": total, "base": contact.atlas},
        fields=fields,
        maps=[],
        structure=pair,
        checks=checks,
        params={"a": slope_src},
    )


# -- registry ----------------------------------------------------------


def _reject_params(key: str, params: dict) -> None:
    if params:
        raise UnknownKey(f"{key}: takes no parameters, got {sorted(params)}")


_BUILDERS: dict[str, Callable[[dict], Example]] = {
    "darboux-1": lambda p: _build_darboux(1, p),
    "darboux-2": lambda p: _build_darboux(2, p),
    "mobius-band": _build_mobius_band,
    "mobius-jet": _build_mobius_jet,
    "mobius-cotangent": _build_mobius_cotangent,
    "sphere-3": lambda p: _build_sphere(1, p),
    "sphere-5": lambda p: _build_sphere(2, p),
    "product-darboux": _build_product,
    "main1-family": _build_main1,
}

EXAMPLE_KEYS: tuple[str, ...] = tuple(_BUILDERS)


def build_example(key: str, **params) -> Example:
    """Construct a gallery entry by key; parameters only where declared."""
    try:
        builder = _BUILDERS[key]
    except KeyError:
        known = ", ".join(EXAMPLE_KEYS)
        raise UnknownKey(f"unknown example {key!r}; known keys: {known}") from None
    return builder(params)


# -- definition-file emission (see docs/corpus-format.md) ---------------


def _fmt(v: float) -> str:
    return repr(float(v))


def _emit_atlas(lines: list, akey: str, atlas: Atlas) -> None:
    lines.append(f"atlas {akey}")
    for chart in atlas.charts:
        lines.append(f"chart {chart.name}")
        lines.append("coords: " + " ".join(chart.coords))
        for c, (lo, hi) in zip(chart.coords, chart.box):
            lines.append(f"box {c}: {_fmt(lo)} {_fmt(hi)}")
        for c, lo, hi in chart.excluded:
            lines.append(f"exclude {c}: {_fmt(lo)} {_fmt(hi)}")
        lines.append(f"margin: {_fmt(chart.margin)}")
        lines.append("endchart")
    for t in atlas.transitions:
        lines.append(f"transition {t.source} -> {t.target}")
        for piece in t.pieces:
            lines.append("piece")
            lines.append(
                "box: "
                + " | ".join(f"{_fmt(lo)} {_fmt(hi)}" for lo, hi in piece.box)
            )
            lines.append(
                "to: " + " | ".join(exprlang.pretty(e) for e in piece.forward)
            )
            lines.append(
                "from: " + " | ".join(exprlang.pretty(e) for e in piece.inverse)
            )
            lines.append("endpiece")
        lines.append("endtransition")
    lines.append("endatlas")


def emit_example(doc: EntryDoc) -> str:
    """Render an entry as a definition file (deterministic bytes).

    DSL fields contribute their component expressions, built-in fields
    their note, maps their pieces; parse-then-emit is byte-stable.
    """
    out: list[str] = ["corpus-example v1", f"key: {doc.key}"]
    out.append(f"summary: {doc.summary}")
    for pname in sorted(doc.params):
        out.append(f"param {pname}: {doc.params[pname]}")
    for akey, atlas in doc.atlases.items():
        out.append("")
        _emit_atlas(out, akey, atlas)
    for f in doc.fields:
        out.append("")
        head = (
            f"field {f.name} on {f.atlas_key} valence "
            f"({f.valence[0]},{f.valence[1]}) from {f.source}"
        )
        out.append(head)
        if f.source == "dsl":
            for chart_name in sorted(f.comps):
                table = f.comps[chart_name]
                for idx in sorted(table):
                    idx_txt = ",".join(str(i) for i in idx)
                    out.append(
                        f"{chart_name} [{idx_txt}] = {exprlang.pretty(table[idx])}"
                    )
        else:
            out.append(f"note: {f.note}")
        out.append("endfield")
    for m in doc.maps:
        out.append("")
        out.append(f"map {m.name} from {m.src_key} to {m.dst_key}")
        for src_chart in sorted(m.pieces):
            tgt_chart, exprs = m.pieces[src_chart]
            joined = " | ".join(exprlang.pretty(e) for e in exprs)
            out.append(f"{src_chart} -> {tgt_chart}: {joined}")
        out.append("endmap")
    out.append("")
    return "\n".join(out)


# -- definition-file parsing -------------------------------------------


class CorpusFormatError(ValueError):
    pass


def _block(it, end: str):
    """The lines of a block up to its `end` line, which must come."""
    for line in it:
        if line == end:
            return
        yield line
    raise CorpusFormatError(f"missing {end!r}")


def _unexpected(line: str, block: str) -> CorpusFormatError:
    return CorpusFormatError(f"unexpected line in {block}: {line!r}")


def _parse_atlas(it) -> Atlas:
    charts: list[Chart] = []
    transitions: list[TransitionMap] = []
    for line in _block(it, "endatlas"):
        if line.startswith("chart "):
            name = line.split(" ", 1)[1]
            coords: tuple = ()
            box: list = []
            excl: list = []
            margin = 0.05
            for sub in _block(it, "endchart"):
                if sub.startswith("coords: "):
                    coords = tuple(sub[len("coords: "):].split())
                elif sub.startswith("box "):
                    head, rest = sub[4:].split(": ")
                    lo, hi = rest.split()
                    box.append((float(lo), float(hi)))
                elif sub.startswith("exclude "):
                    head, rest = sub[len("exclude "):].split(": ")
                    lo, hi = rest.split()
                    excl.append((head, float(lo), float(hi)))
                elif sub.startswith("margin: "):
                    margin = float(sub[len("margin: "):])
                else:
                    raise _unexpected(sub, line)
            charts.append(Chart(name, coords, tuple(box), tuple(excl), margin))
        elif line.startswith("transition "):
            head = line[len("transition "):]
            src, _, tgt = head.partition(" -> ")
            pieces = []
            for sub in _block(it, "endtransition"):
                if sub != "piece":
                    raise _unexpected(sub, line)
                parts = {"box": [], "to": [], "from": []}  # " | "-separated
                for inner in _block(it, "endpiece"):
                    head, _, rest = inner.partition(": ")
                    if head not in parts:
                        raise _unexpected(inner, "piece")
                    parts[head] = rest.split(" | ")
                pbox = tuple(
                    (float(a), float(b)) for a, b in (p.split() for p in parts["box"])
                )
                fwd, inv = (
                    tuple(exprlang.parse(e) for e in parts[k]) for k in ("to", "from")
                )
                pieces.append(TransitionPiece(pbox, fwd, inv))
            transitions.append(TransitionMap(src, tgt, tuple(pieces)))
        else:
            raise _unexpected(line, "atlas")
    return Atlas(charts, transitions)


def parse_example_text(text: str) -> EntryDoc:
    """Parse a definition file back into charts, expressions and markers.

    Every block accepts only the lines of its grammar
    (docs/corpus-format.md); any other line raises `CorpusFormatError`.
    """
    lines = [ln.rstrip() for ln in text.splitlines()]
    it = iter(ln for ln in lines if ln != "")
    first = next(it, None)
    if first != "corpus-example v1":
        raise CorpusFormatError(f"bad header {first!r}")
    key = summary = None
    params: dict[str, str] = {}
    atlases: dict[str, Atlas] = {}
    fields: list[EntryField] = []
    maps: list[EntryMap] = []
    for line in it:
        if line.startswith("key: "):
            key = line[len("key: "):]
        elif line.startswith("summary: "):
            summary = line[len("summary: "):]
        elif line.startswith("param "):
            head, rest = line[len("param "):].split(": ", 1)
            params[head] = rest
        elif line.startswith("atlas "):
            atlases[line.split(" ", 1)[1]] = _parse_atlas(it)
        elif line.startswith("field "):
            head = line[len("field "):]
            name, _, rest = head.partition(" on ")
            akey, _, rest = rest.partition(" valence ")
            val_txt, _, src = rest.partition(" from ")
            if src not in ("dsl", "builtin"):
                raise CorpusFormatError(f"source is not dsl or builtin: {line!r}")
            p, q = val_txt.strip("()").split(",")
            comps: dict[str, dict[tuple, object]] = {}
            note = ""
            for sub in _block(it, "endfield"):
                if sub.startswith("note: "):
                    note = sub[len("note: "):]
                    continue
                chart_name, bracket, assign = sub.partition(" [")
                idx_txt, equals, expr_txt = assign.partition("] = ")
                if not (bracket and equals):
                    raise _unexpected(sub, line)
                idx = tuple(int(x) for x in idx_txt.split(",")) if idx_txt else ()
                if len(idx) != int(p) + int(q):
                    raise CorpusFormatError(f"not a ({p},{q}) index: {sub!r}")
                comps.setdefault(chart_name, {})[idx] = exprlang.parse(expr_txt)
            fields.append(
                EntryField(name, akey, (int(p), int(q)), src, comps, note)
            )
        elif line.startswith("map "):
            head = line[len("map "):]
            name, _, rest = head.partition(" from ")
            src_key, _, dst_key = rest.partition(" to ")
            pieces: dict[str, tuple[str, tuple]] = {}
            for sub in _block(it, "endmap"):
                chart_pair, colon, exprs_txt = sub.partition(": ")
                src_chart, arrow, tgt_chart = chart_pair.partition(" -> ")
                if not (colon and arrow):
                    raise _unexpected(sub, line)
                exprs = tuple(
                    exprlang.parse(p) for p in exprs_txt.split(" | ")
                )
                pieces[src_chart] = (tgt_chart, exprs)
            maps.append(EntryMap(name, src_key, dst_key, pieces))
        else:
            raise _unexpected(line, "the file")
    if key is None:
        raise CorpusFormatError("missing key line")
    return EntryDoc(key, summary or "", params, atlases, fields, maps)


def write_golden_files(target: Path | None = None) -> list[Path]:
    """Write every entry's definition file; returns the paths written.

    The default target is the ``golden/`` directory of the source checkout.
    """
    if target is None:
        target = Path(__file__).resolve().parents[2] / "golden"
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for key in EXAMPLE_KEYS:
        path = target / f"{key}.corpus"
        path.write_text(emit_example(build_example(key)))
        written.append(path)
    return written
