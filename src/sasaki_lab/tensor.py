"""Tensor fields as chart-aware component functions, and their calculus.

A :class:`TensorField` holds one function ``components(chart, env)`` for all
of its charts: given a :class:`~sasaki_lab.manifold.Chart` and an ``env``
(a :class:`~sasaki_lab.manifold.PointEnv`: the coordinate values of one
point, or the arrays of a sample group, with its memo), it returns the
components on that chart as
nested lists or tuples, contravariant indices first.  Because every component
function is generic over the scalar type, derivatives never need dedicated
code: `field_jet` seeds dual numbers for the chart coordinates, evaluates once,
and unpacks values and first partials.  Seeding twice (a jet inside a jet)
yields the second derivatives used by exterior-derivative-of-derived-forms
checks and Christoffel symbols.

Evaluation is memoized per env.  An env
(:class:`~sasaki_lab.manifold.PointEnv`) carries a memo, and there

* `TensorField.at` evaluates each (field, chart) once and keeps the result,
  frozen into nested tuples, and hands out the kept object (a write into
  it raises ``TypeError``), and `SmoothMap.jet` keeps each (map, chart)
  jet the same way; `field_jet` builds its values and partials anew;
* `field_jet` seeds one dual env per set of chart coordinates and evaluates
  through `at` on it, so the jet's components are kept in that dual env's
  own memo, and a jet inside a jet reuses the second level the same way;
* everything kept lives exactly as long as the env, and two envs never
  share an entry, not even at equal coordinates.

A sampled env is a sample group's batch env, whose coordinates are float64
arrays, one slot per point (see `numkernel` for the array leaves): a field
is evaluated there once for all the group's points, and each slot is, bit
for bit, what a lone evaluation at that point gives.  The batch env lives
until the check that drew it returns, or, drawn through a plan's
`SampleSet`, until its entry's last check; then only the memo entries of
the entry's declared fields outlive a check.  `bundle`'s derived envs
(base points, lifts) are kept in the memo of the env they derive from,
one per group.  The driver evaluates at the batch under
``np.errstate(all="raise")``; where the batch raises -- a zero divisor, a
kink, a singular pivot, an overflow or invalid step at any point, a split
that cannot be merged, a pullback term that is a plain zero at some
points only -- it evaluates each point of that group at an env of its
own, which gives each point its value, or raises its exception (see
`report.evaluate_group`).  A test's plain dict is wrapped in a fresh
PointEnv and evaluated on its own.

The pointwise algebra is stated once, as fields: ``compose(A, B)``
contracts A's last slot with B's first (φ∘ψ, g(·, ξ), η∘φ, η(ξ), ...),
``congruence(b, J)`` is b(J·, J·), and `identity`, `tf_add`, `tf_scale`
and `tf_combine` build the rest, a determinant or an eigenvalue included.
A check declares what it certifies: ``vanishing(*fields)``,
``agreeing(*pairs)`` (pairs (T, S) or (T, S, c) for T = c·S),
``single_valued(T, sign)`` (T's agreement across the transition pieces
of ``field_overlaps(T)``), ``nondegenerate(c)`` (the scalar field c
stays above `NONDEGENERACY_THRESHOLD`), ``every(*residuals)`` (all of
them) and ``named(**clauses)`` (each clause reduced on its own) build the
residual (where, env) that `report.run_residual_check` evaluates once
per sample group it draws.  A declaration reads its fields on whichever
chart it is sampled, so a check declares its clauses once for the atlas.
A map's identities read the map as a field (`map_values`, `map_jet`),
and `manifold.atlas_consistency_check` declares its round trips the
same way, so every sampled gallery check is declared.

At a batch a declared residual is one reduction of the group's arrays.
The array leaves go through the IEEE operations a point's floats go
through (``abs``, ``-``, ``*``, `report.max_or_nan`'s ``np.maximum``,
which keeps a NaN, and numpy's stacked ``det`` and ``eigvalsh``, the same
LAPACK routine per matrix), so `report.reduce_residuals` sees each point's
residual bit for bit.

Conventions fixed here and relied on everywhere else:

* components index order: contravariant slots before covariant slots, e.g.
  an endomorphism J has ``J[k][j]`` = row/output k, column/input j;
* ``compose(b, X)`` of a (0,2) field b and a vector field X contracts X
  into the SECOND slot of b, i.e. the result is ``b(·, X)`` — for 2-forms
  the order matters and this is the documented choice (regression tests
  freeze it, on the plane and on the cone);
* Lie brackets/derivatives and the Nijenhuis torsion follow the classical
  component formulas with no extra normalization factors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Callable, Iterable

import numpy as np

from . import exprlang, manifold, numkernel as nk
from .exprlang import Expr
from .manifold import Atlas, Chart, Overlaps, PointEnv, SamplePlan
from .report import max_or_nan


# A component structure nests lists (as built) or tuples (as kept).
_NESTED = (list, tuple)


def map_structure(fn, s):
    if isinstance(s, _NESTED):
        return [map_structure(fn, x) for x in s]
    return fn(s)


def _frozen(s):
    """`s` as nested tuples around the same leaves."""
    if isinstance(s, _NESTED):
        return tuple([_frozen(x) for x in s])
    return s


def max_abs(s) -> float:
    """Largest |value| in a nested component structure; NaN if any is NaN.
    Over batch array leaves, the same per slot."""
    if isinstance(s, _NESTED):
        return max_or_nan([
            max_abs(x) if isinstance(x, _NESTED) else abs(nk.value_of(x)) for x in s
        ])
    return abs(nk.value_of(s))


def max_diff(a, b, scale=1.0) -> float:
    """Largest |a - scale*b| over a pair of nested component structures."""
    if isinstance(a, _NESTED):
        return max_or_nan([
            max_diff(x, y, scale) if isinstance(x, _NESTED)
            else abs(nk.value_of(x) - scale * nk.value_of(y))
            for x, y in zip(a, b)
        ])
    return abs(nk.value_of(a) - scale * nk.value_of(b))


def vanishing(*fields: TensorField) -> Callable:
    """Residual of the identity "every field is 0": the largest |component|."""
    return lambda chart, env: max_abs([f.at(chart, env) for f in fields])


def agreeing(*pairs: tuple) -> Callable:
    """Residual of the identities T = c·S over the (T, S) or (T, S, c)
    pairs, c 1 by default: the largest |T - c·S| component."""
    return lambda chart, env: max_or_nan([
        max_diff(T.at(chart, env), S.at(chart, env), *c) for T, S, *c in pairs
    ])


def zeros(dim: int, rank: int):
    """`rank` nested levels of `dim` lists of 0.0 (0.0 at rank 0), every
    row its own list."""
    if rank == 0:
        return 0.0
    return [zeros(dim, rank - 1) for _ in range(dim)]


NONDEGENERACY_THRESHOLD = 1e-8


def nondegeneracy_shortfall(value: float) -> float:
    """max(0, 1 − value / `NONDEGENERACY_THRESHOLD`): 0 above the
    threshold, about 1 where the value vanishes, NaN on NaN."""
    return max_or_nan([0.0, 1.0 - value / NONDEGENERACY_THRESHOLD])


def nondegenerate(c: TensorField, record: str | None = None) -> Callable:
    """Residual of "the scalar field c stays above the threshold": c's
    `nondegeneracy_shortfall`, ``{None: shortfall, record: c}`` with a record."""

    def residual(chart, env):
        value = c.at(chart, env)
        shortfall = nondegeneracy_shortfall(value)
        return shortfall if record is None else {None: shortfall, record: value}

    return residual


def every(*residuals: Callable) -> Callable:
    """Residual of declared residuals taken together: their `max_or_nan`."""
    return lambda where, env: max_or_nan([r(where, env) for r in residuals])


def named(**clauses: Callable) -> Callable:
    """Residual of named clauses, ``{name: clause(where, env)}`` in the
    order given: each is reduced on its own into a report's ``details``
    (a record when the check declares it one)."""
    return lambda where, env: {name: clause(where, env) for name, clause in clauses.items()}


class TensorField:
    """A (p, q)-tensor field: one component function for all of its charts.

    ``components(chart, env)`` gets the :class:`Chart` object; ``charts``
    names the charts the field has data on (every chart of the atlas by
    default).
    """

    def __init__(
        self,
        name: str,
        atlas: Atlas,
        valence: tuple[int, int],
        components: Callable[[Chart, PointEnv], object],
        charts: Iterable[str] | None = None,
        exprs: dict[str, dict[tuple, Expr]] | None = None,
    ):
        self.name = name
        self.atlas = atlas
        self.valence = valence
        self.components = components
        if charts is None:
            charts = [c.name for c in atlas.charts]
        self._charts = {c: atlas.chart(c) for c in charts}
        self.exprs = exprs  # populated only for DSL-defined fields

    @classmethod
    def from_exprs(
        cls,
        name: str,
        atlas: Atlas,
        valence: tuple[int, int],
        comps: dict[str, dict[tuple, Expr | str]],
        symmetry: str = "none",
    ) -> "TensorField":
        """Build from sparse {chart: {index-tuple: expression}} tables.

        symmetry 'sym'/'anti' mirrors rank-2 entries so tables only need
        one triangle; 'none' stores exactly what was given.
        """
        rank = valence[0] + valence[1]
        parsed: dict[str, dict[tuple, Expr]] = {}
        for chart_name, table in comps.items():
            chart = atlas.chart(chart_name)
            dense: dict[tuple, Expr] = {}
            for idx, e in table.items():
                idx = tuple(idx)
                if len(idx) != rank:
                    raise ValueError(f"{name}: index {idx} has wrong rank")
                if any(i < 0 or i >= chart.dim for i in idx):
                    raise ValueError(f"{name}: index {idx} out of range")
                dense[idx] = exprlang.parse(e) if isinstance(e, str) else e
            if symmetry in ("sym", "anti") and rank == 2:
                for (i, j), e in list(dense.items()):
                    if i != j and (j, i) not in dense:
                        dense[(j, i)] = e if symmetry == "sym" else exprlang.Neg(e)
            parsed[chart_name] = dense

        def components(chart, env):
            dense = parsed[chart.name]
            if rank == 0:
                e = dense.get(())
                return exprlang.eval_expr(e, env) if e is not None else 0.0
            out = zeros(chart.dim, rank)
            for idx, e in dense.items():
                _set(out, idx, exprlang.eval_expr(e, env))
            return out

        return cls(name, atlas, valence, components, charts=parsed, exprs=parsed)

    def chart_names(self) -> list[str]:
        return sorted(self._charts)

    def _chart(self, name: str) -> Chart:
        try:
            return self._charts[name]
        except KeyError:
            raise KeyError(f"field {self.name!r} has no data on chart {name!r}")

    def at(self, chart: str, env: dict):
        """Components on `chart` at `env`, contravariant indices first.

        The result is computed once, frozen into nested tuples and kept in
        the env's memo for as long as the env lives; every call returns
        that kept object.  Any other mapping is first wrapped in a fresh
        :class:`PointEnv`, whose memo lives for this call.
        """
        if not isinstance(env, PointEnv):
            env = PointEnv(env)
        key = (self, chart)
        memo = env.memo
        if key not in memo:
            memo[key] = _frozen(self.components(self._chart(chart), env))
        return memo[key]


def _set(structure, idx, value):
    for i in idx[:-1]:
        structure = structure[i]
    structure[idx[-1]] = value


def get_at(structure, idx):
    for i in idx:
        structure = structure[i]
    return structure


def _seeded(chart: Chart, env: dict):
    """(tag, PointEnv with the chart coordinates seeded as duals of that level).

    An env keeps one seeded env per coordinate tuple in its memo, so all
    jets at an env share one dual level and one memo.  Any other mapping
    is first wrapped in a fresh :class:`PointEnv`, whose memo lives for
    this call.
    """
    if not isinstance(env, PointEnv):
        env = PointEnv(env)
    key = ("seeded", chart.coords)
    if key not in env.memo:
        tag, duals = nk.seed([env[c] for c in chart.coords])
        env.memo[key] = (tag, PointEnv({**env, **dict(zip(chart.coords, duals))}))
    return env.memo[key]


class SampleSet:
    """The chart samples one entry's checks share, and what their memos keep.

    `points` draws a chart's sample group with `manifold.sample_group` on
    the first request for a (chart, seed, points per chart) and hands out
    the same points and batch env after that, so the entry's checks reuse
    what is memoized there.  `prune`, after each check, keeps only the
    memo entries of the ``declared`` fields and the jets of the
    ``declared`` maps, at every dual level, in the batch envs' memos;
    derived one-shot fields, other jets and derived envs go.  The envs go
    with the set.
    """

    def __init__(self, declared: Iterable[TensorField | SmoothMap]):
        self.declared = frozenset(declared)
        self._charts = {}  # (id(chart), seed, points) -> (chart, points, env)

    def points(self, chart: Chart, plan: SamplePlan) -> tuple[list, PointEnv]:
        key = (id(chart), plan.seed, plan.points_per_chart)
        if key not in self._charts:
            self._charts[key] = (chart, *manifold.sample_group(chart, plan))
        return self._charts[key][1:]

    def envs(self) -> list[PointEnv]:
        """The batch envs of the groups drawn so far."""
        return [env for _, _, env in self._charts.values()]

    def prune(self) -> None:
        for env in self.envs():
            _keep_declared(env.memo, self.declared)


def _keep_declared(memo: dict, declared: frozenset) -> None:
    """Drop the memo's field and map entries outside `declared`, at every
    dual level."""
    for key in list(memo):
        if key[0] == "seeded":
            _keep_declared(memo[key][1].memo, declared)
        elif key[0] not in declared:
            del memo[key]


def field_jet(T: TensorField, chart_name: str, env: dict):
    """Values and first partials of T at env, from one dual evaluation.

    Returns (vals, parts) with parts[i] = ∂_i of the components.  The dual
    evaluation goes through `TensorField.at` on the seeded env, so it
    happens once per (field, chart, env); vals and parts are freshly built
    lists, read off the kept structure without copying it.
    """
    chart = T.atlas.chart(chart_name)
    tag, dual_env = _seeded(chart, env)
    out = T.at(chart_name, dual_env)
    if isinstance(out, tuple):
        return _split_jet(out, tag, chart.dim)
    return (
        nk.value_at(out, tag),
        [nk.tangent_at(out, tag, i) for i in range(chart.dim)],
    )


def _split_jet(s: tuple, tag: int, dim: int):
    """(values, partials) of a kept component structure at level `tag`, in one walk.

    Leaf for leaf the same as mapping `value_at` and `tangent_at` over `s`:
    a leaf of that level gives its value and tangents, any other leaf is
    constant there (itself and 0.0).
    """
    constant = (0.0,) * dim
    vals, tgs = [], []
    for x in s:
        if isinstance(x, tuple):
            v, tg = _split_jet(x, tag, dim)
        elif type(x) is nk.DScalar and x.tag == tag:
            v, tg = x.val, x.tg
        else:
            v, tg = x, constant
        vals.append(v)
        tgs.append(tg)
    return vals, [[tg[i] for tg in tgs] for i in range(dim)]


# -- smooth maps -------------------------------------------------------


@dataclass(eq=False)
class SmoothMap:
    """Chart-wise coordinate map; target may be another atlas or plain ℝ^m.

    A map is its own identity (``eq=False``), so it keys a batch's memo.
    """

    name: str
    source: Atlas
    target: Atlas | None
    pieces: dict[str, tuple[str | None, tuple[Expr, ...]]]

    @classmethod
    def from_exprs(cls, name, source, target, table) -> "SmoothMap":
        pieces = {}
        for src_chart, (tgt_chart, exprs) in table.items():
            parsed = tuple(
                exprlang.parse(e) if isinstance(e, str) else e for e in exprs
            )
            pieces[src_chart] = (tgt_chart, parsed)
        return cls(name, source, target, pieces)

    def apply(self, chart: str, env: dict) -> list:
        _, exprs = self.pieces[chart]
        return [exprlang.eval_expr(e, env) for e in exprs]

    def jet(self, chart: str, env: dict):
        """(values, jacobian) with jacobian[j][i] = d target_j / d source_i.

        Like `TensorField.at`, computed once per (map, chart) at an env,
        kept frozen in its memo and handed out after that.
        """
        if not isinstance(env, PointEnv):
            env = PointEnv(env)
        key = (self, chart)
        if key not in env.memo:
            src = self.source.chart(chart)
            tag, dual_env = _seeded(src, env)
            img = self.apply(chart, dual_env)
            vals = [nk.value_at(v, tag) for v in img]
            jac = [[nk.tangent_at(v, tag, i) for i in range(src.dim)] for v in img]
            env.memo[key] = _frozen((vals, jac))
        return env.memo[key]


def map_values(F: SmoothMap) -> TensorField:
    """F's target coordinates as a field on its source charts (a list of
    components, not a tensor)."""
    return TensorField(
        f"{F.name}(·)", F.source, (0, 0),
        lambda chart, env: F.apply(chart.name, env), F.pieces,
    )


def map_jet(F: SmoothMap) -> TensorField:
    """``[values, jacobian]`` of `SmoothMap.jet` as a field on F's source
    charts (component lists, not a tensor), so that an identity of F's
    jet is declared and reduced at its batch."""
    return TensorField(
        f"j({F.name})", F.source, (0, 0),
        lambda chart, env: list(F.jet(chart.name, env)), F.pieces,
    )


# -- derivative operators ---------------------------------------------


def _common_charts(*fields: TensorField) -> set[str]:
    charts = set(fields[0].chart_names())
    for f in fields[1:]:
        charts &= set(f.chart_names())
    return charts


def exterior_derivative(alpha: TensorField) -> TensorField:
    """d of an antisymmetric (0,k) field, giving (0,k+1).

    (dα)_{i_0..i_k} = Σ_m (−1)^m ∂_{i_m} α_{i_0.. î_m ..i_k}; for k=0 this
    is the differential of a scalar.
    """
    p, q = alpha.valence
    if p != 0:
        raise ValueError("exterior_derivative expects a covariant form")

    def components(chart, env):
        dim = chart.dim
        _, parts = field_jet(alpha, chart.name, env)
        out = zeros(dim, q + 1)
        for idx in itertools.product(range(dim), repeat=q + 1):
            acc = 0.0
            for m in range(q + 1):
                rest = idx[:m] + idx[m + 1:]
                term = get_at(parts[idx[m]], rest) if q else parts[idx[m]]
                acc = acc + term if m % 2 == 0 else acc - term
            _set(out, idx, acc)
        return out

    return TensorField(
        f"d({alpha.name})", alpha.atlas, (0, q + 1), components, alpha.chart_names()
    )


def lie_bracket(X: TensorField, Y: TensorField) -> TensorField:
    """[X, Y]^k = X^m ∂_m Y^k − Y^m ∂_m X^k."""

    def components(chart, env):
        dim = chart.dim
        xv, xp = field_jet(X, chart.name, env)
        yv, yp = field_jet(Y, chart.name, env)
        return [
            nk.sum_(xv[m] * yp[m][k] - yv[m] * xp[m][k] for m in range(dim))
            for k in range(dim)
        ]

    return TensorField(
        f"[{X.name},{Y.name}]", X.atlas, (1, 0), components, _common_charts(X, Y)
    )


def lie_derivative(T: TensorField, X: TensorField) -> TensorField:
    """Classical component formula, any small valence.

    (L_X T)^A_B = X^m ∂_m T^A_B − Σ_r ∂_m X^{a_r} T^{A[r→m]}_B
                + Σ_r ∂_{b_r} X^m T^A_{B[r→m]}.
    """
    p, q = T.valence

    def components(chart, env):
        dim = chart.dim
        tv, tp = field_jet(T, chart.name, env)
        xv, xp = field_jet(X, chart.name, env)
        out = zeros(dim, p + q)
        for idx in itertools.product(range(dim), repeat=p + q):
            up, down = idx[:p], idx[p:]
            acc = nk.sum_(xv[m] * get_at(tp[m], idx) for m in range(dim))
            for r in range(p):
                for m in range(dim):
                    swapped = up[:r] + (m,) + up[r + 1:] + down
                    acc = acc - xp[m][up[r]] * get_at(tv, swapped)
            for r in range(q):
                for m in range(dim):
                    swapped = up + down[:r] + (m,) + down[r + 1:]
                    acc = acc + xp[down[r]][m] * get_at(tv, swapped)
            _set(out, idx, acc)
        return out

    return TensorField(
        f"L_{X.name}({T.name})", T.atlas, (p, q), components, _common_charts(T, X)
    )


def nijenhuis(J: TensorField) -> TensorField:
    """Torsion of an endomorphism field as a (1,2) tensor.

    N^k_{ab} = Σ_m ( J^m_a ∂_m J^k_b − J^m_b ∂_m J^k_a
                     − J^k_m (∂_a J^m_b − ∂_b J^m_a) ).

    This is tensorial for arbitrary J; the CR-flavored variant on a
    distribution (which subtracts [X,Y] instead of J²[X,Y]) is evaluated on
    explicit distribution-valued fields by `sasaki.cr_torsion`, where the
    extension question actually matters.
    """

    def components(chart, env):
        dim = chart.dim
        jv, jp = field_jet(J, chart.name, env)
        out = zeros(dim, 3)
        for a in range(dim):
            for b in range(dim):
                # ∂_a J^m_b − ∂_b J^m_a, the same for every k
                curl = [jp[a][m][b] - jp[b][m][a] for m in range(dim)]
                for k in range(dim):
                    acc = 0.0
                    for m in range(dim):
                        acc = acc + (
                            jv[m][a] * jp[m][k][b]
                            - jv[m][b] * jp[m][k][a]
                            - jv[k][m] * curl[m]
                        )
                    out[k][a][b] = acc
        return out

    return TensorField(
        f"N({J.name})", J.atlas, (1, 2), components, J.chart_names()
    )


def pullback(F: SmoothMap, T: TensorField, name: str | None = None) -> TensorField:
    """Pullback of a (p, q)-tensor along F.

    (F*T)^{a..}_{i..}(x) = T^{b..}_{j..}(F x) (∂F⁻¹)^a_b ⋯ ∂F^j/∂x^i ⋯ :
    covariant slots contract with the Jacobian, which needs no
    invertibility.  Contravariant slots (p > 0) contract with the inverse
    Jacobian, obtained by a linear solve (dual-friendly), so there F must
    be a local diffeomorphism, and a piece of F whose target has another
    dimension than its source is a ``ValueError`` here; the result still
    works inside derivative checks.

    The order of evaluation is part of the contract, since residuals are
    compared bit for bit.  T's components are read once per evaluation, in
    lexicographic order of their index ``jdx``, and a plain zero (``0.0``
    or ``-0.0``, not a dual) is skipped; NaN, inf and every `DScalar` stay.
    A kept term t is multiplied by its factors slot by slot from the left,
    ((t·f₀[i₀][j₀])·f₁[i₁][j₁])⋯, and the product of its first r factors
    is built once and shared by every output index that begins with the
    same r entries.  Each output sums its terms from ``0.0`` in ``jdx``
    order.
    """
    p, q = T.valence
    rank = p + q
    if p:
        for src, (_, exprs) in F.pieces.items():
            dim = F.source.chart(src).dim
            if len(exprs) != dim:
                raise ValueError(
                    f"cannot pull back {T.name!r} (valence {p, q}) along "
                    f"{F.name!r}: its piece on chart {src!r} maps {dim} "
                    f"coordinates to {len(exprs)}, and contravariant slots "
                    "need a local diffeomorphism"
                )

    def components(chart, env):
        dim = chart.dim
        tgt_chart = F.pieces[chart.name][0]
        vals, jac = F.jet(chart.name, env)
        tv = T.at(tgt_chart, T.atlas.chart(tgt_chart).env(vals))
        if rank == 0:
            return tv
        m = len(jac)
        # factors[r][i][j]: what slot r's input index j contributes to output i
        factors = []
        if p:
            # columns of the inverse Jacobian: solve A X = I
            ident = [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]
            inv = nk.solve_linear(jac, ident)  # inv[a][j] = (A^{-1})^a_j
            factors += [inv] * p
        factors += [[[jac[j][i] for j in range(m)] for i in range(dim)]] * q
        kept = []  # (jdx, t) for every term that is not a plain zero
        for jdx in itertools.product(range(m), repeat=rank):
            t = get_at(tv, jdx)
            if type(t) is nk.DScalar or _plain_nonzero(t):
                kept.append((jdx, t))
        columns = [[jdx[r] for jdx, _ in kept] for r in range(rank)]
        return _contract_slots([t for _, t in kept], factors, columns)

    nm = name or f"{F.name}*({T.name})"
    return TensorField(nm, F.source, (p, q), components, F.pieces)


def _plain_nonzero(t) -> bool:
    """Whether plain term `t` of `pullback` is kept.  A batch term that is
    a zero at some of its points only raises `numkernel.Unmergeable`, and
    the batch is evaluated point by point."""
    nonzero = nk.value_of(t) != 0.0
    if type(nonzero) is np.ndarray:
        if nonzero.any() != nonzero.all():
            raise nk.Unmergeable("a plain term is zero at some points of the batch only")
        return bool(nonzero[0])
    return nonzero


def _contract_slots(partials, factors, columns):
    """The output rows of `pullback` below one slot.

    ``partials[n]`` is the n-th kept term times the factors of the slots
    already fixed, and ``columns[r][n]`` its input index at the r-th slot
    still open.  Each row of the first open slot extends every partial by
    one factor, once, for all the outputs below it; the last slot sums.
    """
    col = columns[0]
    if len(factors) == 1:
        return [
            reduce(add, map(mul, partials, map(row.__getitem__, col)), 0.0)
            for row in factors[0]
        ]
    return [
        _contract_slots(
            list(map(mul, partials, map(row.__getitem__, col))),
            factors[1:],
            columns[1:],
        )
        for row in factors[0]
    ]


# -- algebra on fields -------------------------------------------------


def tf_combine(name, valence, fields, fn) -> TensorField:
    """Pointwise combination: fn(list of component structures, env) -> structure.

    The result lives on the charts all `fields` share.
    """

    def components(chart, env):
        return fn([f.at(chart.name, env) for f in fields], env)

    return TensorField(
        name, fields[0].atlas, valence, components, _common_charts(*fields)
    )


def tf_add(a: TensorField, b: TensorField, name=None) -> TensorField:
    def add(s, t):
        if isinstance(s, tuple):
            return [add(x, y) for x, y in zip(s, t)]
        return s + t

    return tf_combine(
        name or f"{a.name}+{b.name}", a.valence, [a, b], lambda cs, env: add(*cs)
    )


def tf_scale(T: TensorField, factor: float, name=None) -> TensorField:
    """The constant multiple factor·T; a factor that varies is a scalar
    field, multiplied in with `tf_combine`."""
    return tf_combine(
        name or f"scale({T.name})",
        T.valence,
        [T],
        lambda cs, env: map_structure(lambda v: factor * v, cs[0]),
    )


def compose(A: TensorField, B: TensorField, name=None) -> TensorField:
    """A's last slot contracted with B's first: Σ_m A[..][m]·B[m][..], m
    in order, A's factor first.  A (p, q) and a (p', q') field give a
    (p + p' − 1, q + q' − 1) field: φ∘ψ, g(·, ξ), η∘φ, ξ⌟dη, η(ξ)."""
    (p, q), (p2, q2) = A.valence, B.valence
    return tf_combine(
        name or f"{A.name}∘{B.name}", (p + p2 - 1, q + q2 - 1), [A, B],
        lambda cs, env: _compose(*cs),
    )


def _compose(a, b):
    if isinstance(a[0], tuple):
        return [_compose(x, b) for x in a]
    return _contract(a, b)


def _contract(a, rows):
    """Σ_m a[m]·rows[m], leaf by leaf."""
    if isinstance(rows[0], tuple):
        return [_contract(a, column) for column in zip(*rows)]
    return nk.sum_(x * r for x, r in zip(a, rows))


def congruence(b: TensorField, J: TensorField) -> TensorField:
    """The (0,2) field b(J·, J·): Σ_kl b_kl·J^k_i·J^l_j, k outer, l inner."""

    def fn(cs, env):
        bv, jv = cs
        n = range(len(jv))
        return [
            [nk.sum_(bv[k][l] * jv[k][i] * jv[l][j] for k in n for l in n) for j in n]
            for i in n
        ]

    return tf_combine(f"{b.name}({J.name}·,{J.name}·)", (0, 2), [b, J], fn)


def identity(atlas: Atlas) -> TensorField:
    """The identity endomorphism on every chart of `atlas`."""

    def components(chart, env):
        n = range(chart.dim)
        return [[1.0 if k == j else 0.0 for j in n] for k in n]

    return TensorField("id", atlas, (1, 1), components)


def contract_form_vector(alpha, X):
    """Scalar α(X) from component structures."""
    return nk.sum_(a * x for a, x in zip(alpha, X))


# -- cross-chart consistency ------------------------------------------


def field_overlaps(T: TensorField) -> Overlaps:
    """The overlaps of T's charts, on T's own streams ``src->tgt:<name>``."""
    return Overlaps(T.atlas, ":" + T.name, frozenset(T.chart_names()))


def single_valued(T: TensorField, sign_fn=None) -> Callable:
    """Residual of "T's chart data agree" at an `OverlapSite` group: the
    largest |T_src - sign · (piece*T_tgt)| component, with the target data
    pulled back through the piece and ``sign_fn(transition, piece)`` (paired
    structures hand one in) or 1 as sign.  The pullbacks and signs of the
    pieces of `field_overlaps` are built here, before any sample is
    evaluated."""
    by_piece = {  # (transition, piece) ids -> (T pulled back, sign)
        (id(t), id(piece)): (
            pullback(SmoothMap("piece", T.atlas, T.atlas,
                               {t.source: (t.target, piece.forward)}), T),
            1.0 if sign_fn is None else sign_fn(t, piece),
        )
        for t in field_overlaps(T).transitions()
        for piece in t.pieces
    }

    def residual(site, env):
        t = site.transition
        back, sign = by_piece[(id(t), id(site.piece))]
        return max_diff(T.at(t.source, env), back.at(t.source, env), sign)

    return residual
