"""Forward-mode dual scalars and small dense linear algebra.

The whole engine evaluates tensor components through this module.  A
:class:`DScalar` carries a value and the tangents belonging to one
*differentiation level* (its ``tag``).  Levels nest: the value and the
tangents of a level-``t`` dual may themselves be duals of an earlier (lower)
level, which is how second derivatives are obtained -- seed once, evaluate,
seed again inside.

Two properties the rest of the package relies on:

* arithmetic on a dual whose tangents are all zero produces bit-for-bit the
  same values as plain float arithmetic (every value-slot operation *is* the
  plain float operation);
* ``abs``/``sgn`` raise :class:`KinkError` when differentiated at their kink,
  instead of silently returning a one-sided derivative.

The dual arithmetic (``_add``, ``_mul``, ``_div``, ``_neg``, ``powi`` and
``_chain``) reads its operands' levels once (``type(x) is DScalar``) and
recurses into the value and tangent slots until both operands are
leaves, where it applies the plain operator: ``x*bv + av*y`` is never
reassociated and no zero tangent is skipped, so ``0*inf``, NaN and
``-0.0`` come out as plain floats give them.  Mixed operands keep the
dispatch of the Python operators: ``float * dual`` runs as
``_mul(dual, float)``, just as ``DScalar.__rmul__`` does, and so do a
numpy scalar (as the Python number it holds) and a batch array left of a
dual (``DScalar.__array_ufunc__``).

Linear solves (`solve_linear`) run Gaussian elimination with partial
pivoting generically over floats and duals, so Jacobian-dependent fields
(Reeb fields, compatibility endomorphisms, sphere projections) stay
differentiable simply by feeding dual entries through the same code path.

A leaf -- a value or tangent slot that is not itself a dual -- is a Python
``float`` (or ``int``) for one point, or a float64 array of shape ``(P,)``
holding the same slot for the P points of a sample group (a *batch*).
Both kinds mix freely in one dual, since a float is the same at every
point.  float64 ``+ - * /`` on arrays is IEEE elementwise, so a batch
gives each point bit for bit its own result.

A level's tangents (``tg``) are a tuple, one slot per direction, or at a
batch a *block*: one float64 array of shape (n, P) whose row i is the
tangent ∂_i at the P points (vector-mode forward differentiation).  A
tangent formula whose operands are all plain -- values that are floats
or arrays, tangents that are blocks or tuples of floats -- and one of
which is an array runs once on whole blocks (`_blocks`): ``x*bv + av*y``
with the operands of the slot-by-slot formula in the same order, so each
point gets what its own tuple of n floats gives it.  The tuple stays
where a block would change what is computed:

* at a single point (Python-float values), so that a lone evaluation
  keeps Python's float semantics (``ZeroDivisionError``, a silent
  ``0*inf``, no numpy signal);
* at a level whose tangents are duals (the outer level of an order-2
  jet), which is walked row by row, so blocks never nest and no
  broadcast can pair one level's axis with another's;
* for constant tangents: the unit seeds and their combinations at plain
  floats stay tuples of floats.  Where such a tuple meets a block or an
  array value it is lifted for that one operation only, as an (n, 1)
  column (`_lift`), so every block kept is (n, P) and its rows are (P,)
  arrays, the leaves the slot-by-slot path gives.  A column step can
  signal under the batch's errstate where the float slots would not
  (``0*inf``, an overflow); the batch then goes point by point, as any
  signal sends it.

A tuple holding anything else (a dual, an int, an array) is walked row
by row, and so is a block against a lower-level dual: each row, a (P,)
array, meets the dual as a leaf.  `_where`, `take` and `merge` select,
index and assemble whole blocks.  The other sites dispatch on the leaf
type:

* `powi` and `sqrt` make one `np.float_power` or `np.sqrt` call.  The
  float64 loop of the first is the C ``pow`` that Python's ``**`` calls
  (`np.power` runs a SIMD loop of its own and differs by an ulp at some
  values), and a square root is correctly rounded, so each point gets
  bit for bit its own ``**`` or `math.sqrt`.  Where one of those raises
  at a point, the call raises `FloatingPointError`, whatever errstate its
  caller set (`_raising`).  `sin`, `cos`, `exp` and `log` apply `math`
  element by element (`each`): numpy's `exp` and `log` differ from it by
  an ulp at some values, and nothing ties numpy's float64 `sin` and `cos`
  loops to libm, though they matched at every value tried;
* `value_of` returns the array of a batch leaf;
* the kink tests of `absolute` and `signum` and `has_zero` (the
  ``exprlang`` zero-divisor test) ask whether any point is at the edge;
* `determinant` and `min_eigenvalue` take the (P, n, n) stack of the
  points' matrices;
* `solve_linear`'s pivot search and its zero skip may come out
  differently at different points.  One elimination still runs over the
  whole batch: each point's pivot row is swapped in by a leafwise select
  (`_where`), and a row update that some points skip (a plain zero below
  the pivot) is computed and then kept only at the points that make it.
  Each point thus gets the arithmetic of its own solve.  Two cases fall
  back to splitting the batch into groups that agree (`groups`), solving
  each on its own (`take`) and merging the results leaf by leaf
  (`merge`): a select that would put a plain leaf against a dual, or
  duals of another level or tangent count (`Unmergeable`, the rule
  `merge` enforces), and a masked update that signals under its own
  errstate (``0*inf`` at a point that skips it).  `merge` still raises
  `Unmergeable` where a plain leaf would meet a dual one.

A batch is evaluated under ``np.errstate(all="raise", under="ignore")``,
so any step that could signal, or raise, at a point raises for the whole
batch; the driver (``report.evaluate_group``) then evaluates point by
point, which reproduces each point's value or exception exactly.  A plain
leaf never becomes a dual to make two groups merge: that would turn
``-0.0`` and ``0*inf`` results into other values.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence, Union

import numpy as np

Scalar = Union[float, int, "DScalar"]

_TAGS = itertools.count(1)


class KinkError(ArithmeticError):
    """abs or sgn was differentiated at its kink (argument value 0)."""


class SingularMatrix(ArithmeticError):
    """No usable pivot: matrix is singular to working precision (< 1e-12)."""


class Unmergeable(Exception):
    """A batch that is not evaluated whole: the groups of a split came out
    with leaves of different kinds, or its points take a branch that is
    not split (`tensor.pullback`'s plain-zero skip).  `solve_linear`
    catches it from a per-point select and solves group by group."""


def new_tag() -> int:
    """Fresh differentiation level; later levels are treated as innermost."""
    return next(_TAGS)


class DScalar:
    """A scalar with first-order tangents at one differentiation level.

    ``tg`` is a tuple with one entry per direction, or at a batch an (n, P)
    block whose rows are those entries.  ``val`` and the entries of a
    tuple ``tg`` may themselves be DScalars of *lower* levels.  Mixing levels in arithmetic treats the lower level as constant
    with respect to the higher one, which matches the algebraic picture of
    nested dual-number extensions.
    """

    __slots__ = ("val", "tg", "tag")

    def __init__(self, val: Scalar, tg: tuple, tag: int):
        self.val = val
        self.tg = tg
        self.tag = tag

    def __repr__(self) -> str:
        return f"DScalar({self.val!r}, tg={self.tg!r}, tag={self.tag})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return _add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return _add(self, _neg(other))

    def __rsub__(self, other):
        return _add(_neg(self), other)

    def __mul__(self, other):
        return _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _div(self, other)

    def __rtruediv__(self, other):
        return _div(other, self)

    def __neg__(self):
        return _neg(self)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("DScalar ** exponent must be an int")
        return powi(self, n)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        """A numpy operand left of a dual runs the dual's reflected operator,
        as a float does: a batch array as a leaf (not as an object array of
        duals), a numpy scalar as the Python number it holds."""
        op = _REFLECTED.get(ufunc)
        if op is None or method != "__call__" or kwargs or inputs[1:] != (self,):
            return NotImplemented
        x = inputs[0]
        return op(self, x.item() if isinstance(x, np.generic) else x)


_REFLECTED = {
    np.add: DScalar.__radd__,
    np.subtract: DScalar.__rsub__,
    np.multiply: DScalar.__rmul__,
    np.true_divide: DScalar.__rtruediv__,
}


def _blocks(values: tuple, tgs: tuple):
    """The tangents `tgs` lifted for one block operation of a formula that
    also reads `values`, or None where the formula runs row by row: when
    a value is a dual, when no value or tangent is an array (tuples of
    floats stay tuples), or when a tuple does not lift (`_lift`)."""
    for v in values:
        if type(v) is DScalar:
            return None
    if np.ndarray not in map(type, tgs) and np.ndarray not in map(type, values):
        return None
    out = []
    for t in tgs:
        t = _lift(t)
        if t is None:
            return None
        out.append(t)
    return out


def _lift(tg):
    """A level's tangents as an array: a block as it is, a tuple of floats
    as an (n, 1) column; None for any other tuple (one that holds a dual,
    an int or an array)."""
    if type(tg) is np.ndarray:
        return tg
    if set(map(type, tg)) == _FLOATS:
        return np.array(tg)[:, None]
    return None


_FLOATS = {float}


def _neg(x):
    if type(x) is DScalar:
        tg = x.tg
        tg = -tg if type(tg) is np.ndarray else tuple([_neg(t) for t in tg])
        return DScalar(_neg(x.val), tg, x.tag)
    return -x


def _add(a, b):
    ta = a.tag if type(a) is DScalar else 0
    tb = b.tag if type(b) is DScalar else 0
    if ta == tb == 0:
        return a + b
    # a side of a lower level is a constant at this one
    av = a.val if ta >= tb else a
    bv = b.val if tb >= ta else b
    if ta == tb:
        blocks = _blocks((), (a.tg, b.tg))
        if blocks is not None:
            tg = blocks[0] + blocks[1]
        else:
            tg = tuple([_add(x, y) for x, y in zip(a.tg, b.tg)])
    else:
        tg = a.tg if ta > tb else b.tg
    return DScalar(_add(av, bv), tg, ta if ta > tb else tb)


def _mul(a, b):
    ta = a.tag if type(a) is DScalar else 0
    tb = b.tag if type(b) is DScalar else 0
    if ta == tb == 0:
        return a * b
    av = a.val if ta >= tb else a
    bv = b.val if tb >= ta else b
    if ta == tb:
        blocks = _blocks((av, bv), (a.tg, b.tg))
        if blocks is not None:
            x, y = blocks
            tg = x * bv + av * y
        else:
            tg = tuple([_add(_mul(x, bv), _mul(av, y)) for x, y in zip(a.tg, b.tg)])
    elif ta > tb:
        blocks = _blocks((bv,), (a.tg,))
        if blocks is not None:
            tg = blocks[0] * bv
        else:
            tg = tuple([_mul(x, bv) for x in a.tg])
    else:
        blocks = _blocks((av,), (b.tg,))
        if blocks is not None:
            tg = av * blocks[0]
        else:
            tg = tuple([_mul(av, y) for y in b.tg])
    return DScalar(_mul(av, bv), tg, ta if ta > tb else tb)


def _div(a, b):
    # d(a/b) = (da - (a/b) db) / b
    ta = a.tag if type(a) is DScalar else 0
    tb = b.tag if type(b) is DScalar else 0
    if ta == tb == 0:
        return a / b
    av = a.val if ta >= tb else a
    bv = b.val if tb >= ta else b
    val = _div(av, bv)
    if ta == tb:
        blocks = _blocks((val, bv), (a.tg, b.tg))
        if blocks is not None:
            x, y = blocks
            tg = (x + -(val * y)) / bv
        else:
            tg = tuple([_div(_add(x, _neg(_mul(val, y))), bv) for x, y in zip(a.tg, b.tg)])
    elif ta > tb:
        blocks = _blocks((bv,), (a.tg,))
        if blocks is not None:
            tg = blocks[0] / bv
        else:
            tg = tuple([_div(x, bv) for x in a.tg])
    else:
        blocks = _blocks((val, bv), (b.tg,))
        if blocks is not None:
            tg = -(val * blocks[0]) / bv
        else:
            tg = tuple([_div(_neg(_mul(val, y)), bv) for y in b.tg])
    return DScalar(val, tg, ta if ta > tb else tb)


def powi(x, n: int):
    """x ** n for integer n, generic over floats, batch arrays and duals.

    A batch leaf is one `np.float_power` call, whose float64 loop is the
    C ``pow`` that Python's ``**`` calls, under `_raising`.
    """
    if type(x) is not DScalar:
        if type(x) is np.ndarray:
            return _float_power(x, float(n))
        return float(x) ** n
    if n == 0:
        return 1.0
    if n < 0:
        return _div(1.0, powi(x, -n))
    v = powi(x.val, n)
    factor = _mul(float(n), powi(x.val, n - 1))
    return _chain(x, v, factor)


def value_of(x):
    """Strip all dual layers, returning the underlying float value (the
    float64 array of a batch leaf)."""
    while type(x) is DScalar:
        x = x.val
    return x if type(x) is np.ndarray else float(x)


def has_zero(x) -> bool:
    """Whether the value of `x` is 0.0 (at some point of a batch)."""
    v = value_of(x)
    return bool((v == 0.0).any()) if type(v) is np.ndarray else v == 0.0


# Where Python's ``**`` or ``math.sqrt`` raises at a point (a zero to a
# negative power, an overflow, the root of a negative number), numpy only
# signals; under this state a batch raises `FloatingPointError` there,
# whatever state its caller set.  Underflow, which Python never reports, is
# ignored.
_raising = np.errstate(all="raise", under="ignore")


@_raising
def _float_power(x: np.ndarray, n: float) -> np.ndarray:
    return np.float_power(x, n)


@_raising
def _sqrt(x: np.ndarray) -> np.ndarray:
    return np.sqrt(x)  # correctly rounded, as IEEE 754 requires of math.sqrt too


def each(fn, x):
    """``fn`` of a plain leaf: of a float, or of each element of a batch array."""
    if type(x) is np.ndarray:
        return np.array([fn(v) for v in x.tolist()])
    return fn(x)


def _chain(x: DScalar, val, dval):
    blocks = _blocks((dval,), (x.tg,))
    if blocks is not None:
        return DScalar(val, dval * blocks[0], x.tag)
    return DScalar(val, tuple([_mul(dval, t) for t in x.tg]), x.tag)


def sin(x):
    if isinstance(x, DScalar):
        return _chain(x, sin(x.val), cos(x.val))
    return each(math.sin, x)


def cos(x):
    if isinstance(x, DScalar):
        return _chain(x, cos(x.val), _neg(sin(x.val)))
    return each(math.cos, x)


def exp(x):
    if isinstance(x, DScalar):
        v = exp(x.val)
        return _chain(x, v, v)
    return each(math.exp, x)


def log(x):
    if isinstance(x, DScalar):
        return _chain(x, log(x.val), _div(1.0, x.val))
    return each(math.log, x)


def sqrt(x):
    if isinstance(x, DScalar):
        v = sqrt(x.val)
        return _chain(x, v, _div(0.5, v))
    if type(x) is np.ndarray:
        return _sqrt(x)
    return math.sqrt(x)


def absolute(x):
    if isinstance(x, DScalar):
        s = value_of(x)
        if has_zero(s):
            raise KinkError("abs differentiated at 0")
        sign = np.copysign(1.0, s) if type(s) is np.ndarray else math.copysign(1.0, s)
        return _chain(x, absolute(x.val), sign)
    return abs(x)


def signum(x):
    if isinstance(x, DScalar):
        if has_zero(x):
            raise KinkError("sgn differentiated at 0")
        return DScalar(signum(x.val), tuple(0.0 for _ in x.tg), x.tag)
    if type(x) is np.ndarray:
        return np.where(x == 0.0, 0.0, np.copysign(1.0, x))
    if x == 0.0:
        return 0.0
    return math.copysign(1.0, x)


# -- seeding and unpacking --------------------------------------------


def seed(values: Sequence[Scalar]) -> tuple[int, list[DScalar]]:
    """Wrap values as duals of a fresh level with unit tangent directions."""
    tag = new_tag()
    return tag, unit_duals(values, tag)


def unit_duals(values: Sequence[Scalar], tag: int) -> list[DScalar]:
    """The values as duals of level `tag`, the i-th with tangent e_i."""
    n = len(values)
    return [
        DScalar(v, tuple(1.0 if j == i else 0.0 for j in range(n)), tag)
        for i, v in enumerate(values)
    ]


def value_at(x, tag: int):
    """Value of x with level-`tag` infinitesimals set to zero."""
    if isinstance(x, DScalar) and x.tag == tag:
        return x.val
    return x


def tangent_at(x, tag: int, i: int):
    """i-th tangent of x at level `tag` (0.0 if x is constant there)."""
    if isinstance(x, DScalar) and x.tag == tag:
        return x.tg[i]
    return 0.0


# -- dense linear algebra ---------------------------------------------

PIVOT_THRESHOLD = 1e-12


def sum_(terms) -> Scalar:
    """Sum that starts from 0.0 and works over duals."""
    total: Scalar = 0.0
    for t in terms:
        total = total + t
    return total


def solve_linear(a_rows, b):
    """Solve A x = b (vector rhs) or A X = B (list-of-rows rhs) by Gaussian
    elimination with partial pivoting, generic over duals.

    Raises SingularMatrix when the best available pivot falls below
    PIVOT_THRESHOLD in absolute value.  The solution has the shape of `b`.

    A batch whose pivot row differs from point to point swaps rows point
    by point (a select on each leaf of the columns still to eliminate);
    one whose points differ in skipping an entry that is already a plain
    zero makes the update and keeps the skipped points' old entries.  The
    batch is solved group by group instead where a select would put a
    plain leaf against a dual, or duals that differ in level or tangent
    count, and where the masked update signals under its own errstate.
    """
    n = len(a_rows)
    matrix_rhs = bool(b) and isinstance(b[0], (list, tuple))
    a = [list(r) for r in a_rows]
    rhs = [list(r) for r in b] if matrix_rhs else [[v] for v in b]
    m = len(rhs[0]) if rhs else 0

    for col in range(n):
        best, best_mag = col, abs(value_of(a[col][col]))
        for r in range(col + 1, n):
            mag = abs(value_of(a[r][col]))
            more = mag > best_mag
            if type(more) is np.ndarray:
                best = np.where(more, r, best)
                best_mag = np.where(more, mag, best_mag)
            elif more:
                best, best_mag = r, mag
        small = best_mag < PIVOT_THRESHOLD
        if type(small) is np.ndarray:  # a batch: its first small pivot
            small, best_mag = small.any(), best_mag[small.argmax()]
        if small:
            raise SingularMatrix(
                f"pivot {best_mag:.3e} below {PIVOT_THRESHOLD:.0e} in column {col}"
            )
        if type(best) is np.ndarray:
            pivots = set(best.tolist())
            if len(pivots) == 1:
                best = pivots.pop()
            else:  # swap rows point by point; the columns left of col are done
                try:
                    for r in sorted(pivots - {col}):
                        pick = best == r
                        a[col][col:], a[r][col:] = _swapped(pick, a[col][col:], a[r][col:])
                        rhs[col], rhs[r] = _swapped(pick, rhs[col], rhs[r])
                except Unmergeable:
                    return _solve_in_groups(a_rows, b, best)
                best = col
        if best != col:
            a[col], a[best] = a[best], a[col]
            rhs[col], rhs[best] = rhs[best], rhs[col]
        for r in range(col + 1, n):
            update = None  # the points that make the update, if not all do
            if type(a[r][col]) is not DScalar:
                nonzero = value_of(a[r][col]) != 0.0
                if type(nonzero) is np.ndarray:
                    if not nonzero.all():
                        update = nonzero
                    nonzero = nonzero.any()
                if not nonzero:
                    continue
            if update is not None:  # eliminate, then keep the skipped points' entries
                try:
                    with np.errstate(all="raise", under="ignore"):
                        factor = a[r][col] / a[col][col]
                        a[r][col + 1:] = [
                            _where(update, a[r][c] - factor * a[col][c], a[r][c])
                            for c in range(col + 1, n)
                        ]
                        rhs[r] = [
                            _where(update, rhs[r][c] - factor * rhs[col][c], rhs[r][c])
                            for c in range(m)
                        ]
                except (Unmergeable, FloatingPointError):
                    return _solve_in_groups(a_rows, b, update)
            else:
                factor = a[r][col] / a[col][col]
                for c in range(col + 1, n):
                    a[r][c] = a[r][c] - factor * a[col][c]
                for c in range(m):
                    rhs[r][c] = rhs[r][c] - factor * rhs[col][c]
            a[r][col] = 0.0

    x = [[0.0] * m for _ in range(n)]
    for r in range(n - 1, -1, -1):
        for c in range(m):
            acc = rhs[r][c]
            for k in range(r + 1, n):
                acc = acc - a[r][k] * x[k][c]
            x[r][c] = acc / a[r][r]

    if matrix_rhs:
        return x
    return [row[0] for row in x]


def _solve_in_groups(a_rows, b, labels):
    """`solve_linear` of a batch, solved afresh for each group of the points
    that share a label, merged leaf by leaf."""
    parts = [(idx, solve_linear(take(a_rows, idx), take(b, idx)))
             for idx in groups(labels)]
    return merge(parts, len(labels))


def _swapped(pick, x: list, y: list) -> tuple[list, list]:
    """Rows `x` and `y` exchanged at the points of `pick`, kept elsewhere."""
    return ([_where(pick, v, u) for u, v in zip(x, y)],
            [_where(pick, u, v) for u, v in zip(x, y)])


def _where(mask, x, y):
    """``np.where(mask, x, y)`` leaf by leaf through duals: `x` at the points
    of `mask`, `y` at the others.

    A plain leaf stays plain where both sides are equal to the bit (the
    same object, or floats of the same value and sign).  Otherwise the
    rule of `merge` holds: floats and arrays select into an array, duals
    of one level and tangent count into a dual, and anything else -- a
    plain leaf against a dual, another leaf type -- raises `Unmergeable`.
    Tangents that are one object are kept; a block selects whole, against
    a block or a tuple of floats.
    """
    if type(x) is DScalar or type(y) is DScalar:
        if type(x) is not type(y) or x.tag != y.tag or len(x.tg) != len(y.tg):
            raise Unmergeable("a select puts a dual leaf against another kind of leaf")
        tg = x.tg
        if y.tg is not tg:
            blocks = _blocks((), (tg, y.tg))
            if blocks is not None:
                tg = np.where(mask, blocks[0], blocks[1])
            else:
                tg = tuple([_where(mask, u, v) for u, v in zip(tg, y.tg)])
        return DScalar(_where(mask, x.val, y.val), tg, x.tag)
    if x is y:
        return x
    plain = (float, np.ndarray)
    if type(x) not in plain or type(y) not in plain:
        raise Unmergeable(f"cannot select between leaves of types "
                          f"{type(x).__name__} and {type(y).__name__}")
    if type(x) is float and type(y) is float and x == y \
            and math.copysign(1.0, x) == math.copysign(1.0, y):
        return x
    return np.where(mask, x, y)


# -- batches that branch ----------------------------------------------


def groups(labels) -> list[np.ndarray]:
    """Index arrays of the points of a batch that share a label: an entry
    of a 1-d `labels`, or a row of a 2-d one."""
    _, inverse = np.unique(labels, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    return [np.flatnonzero(inverse == g) for g in range(inverse.max() + 1)]


def take(x, idx: np.ndarray):
    """The points `idx` of a batch structure (nested lists, tuples and
    duals): each array leaf indexed, every other leaf kept."""
    if isinstance(x, (list, tuple)):
        return [take(v, idx) for v in x]
    if type(x) is DScalar:
        tg = x.tg
        tg = tg[:, idx] if type(tg) is np.ndarray else tuple([take(t, idx) for t in tg])
        return DScalar(take(x.val, idx), tg, x.tag)
    if type(x) is np.ndarray:
        return x[idx]
    return x


def merge(parts: list, size: int):
    """One batch structure of `size` points from ``(idx, structure)`` parts
    whose index arrays partition the points, leaf by leaf.

    Plain leaves (floats, arrays) merge into an array; duals merge when
    they agree in level and tangent count, their tangents into one block
    where each part's are a block or a tuple of floats.  Anything else --
    a plain leaf against a dual, another leaf type -- raises `Unmergeable`.
    """
    first = parts[0][1]
    if isinstance(first, (list, tuple)):
        return [merge([(idx, s[k]) for idx, s in parts], size) for k in range(len(first))]
    if type(first) is DScalar:
        tag, n = first.tag, len(first.tg)
        if any(type(s) is not DScalar or s.tag != tag or len(s.tg) != n for _, s in parts):
            raise Unmergeable("a dual leaf meets another kind of leaf")
        val = merge([(idx, s.val) for idx, s in parts], size)
        blocks = [_lift(s.tg) for _, s in parts]
        if any(t is None for t in blocks):
            tg = tuple([merge([(idx, s.tg[k]) for idx, s in parts], size) for k in range(n)])
        else:
            tg = np.empty((n, size))
            for (idx, _), t in zip(parts, blocks):
                tg[:, idx] = t
        return DScalar(val, tg, tag)
    out = np.empty(size)
    for idx, s in parts:
        if type(s) is not float and type(s) is not np.ndarray:
            raise Unmergeable(f"cannot merge a leaf of type {type(s).__name__}")
        out[idx] = s
    return out


# perfbench/tracing.py counts solves by wrapping this name.
solve_linear_info = solve_linear


def _of_finite(fn, rows):
    """``fn`` of a square matrix of floats (a float), or of the stack of a
    batch's matrices ((P,) array entries; a (P,) array).  A matrix with a
    NaN or infinite entry gets NaN; ``fn`` sees zeros, so numpy signals nothing."""
    flat = np.array(np.broadcast_arrays(*[value_of(e) for r in rows for e in r]))
    a = np.moveaxis(flat.reshape(len(rows), len(rows), *flat.shape[1:]), (0, 1), (-2, -1))
    finite = np.isfinite(a).all(axis=(-2, -1))
    out = np.where(finite, fn(np.where(finite[..., None, None], a, 0.0)), math.nan)
    return out if out.ndim else float(out)


def min_eigenvalue(rows):
    """Smallest eigenvalue of a matrix's symmetric part (numpy eigvalsh),
    per point of a batch; NaN where an entry is NaN or infinite."""
    return _of_finite(
        lambda a: np.linalg.eigvalsh(0.5 * (a + np.swapaxes(a, -1, -2)))[..., 0], rows
    )


def determinant(rows):
    """Determinant of a matrix (numpy det), per point of a batch; NaN where
    an entry is NaN or infinite."""
    return _of_finite(np.linalg.det, rows)
