"""Forward-mode dual scalars and small dense linear algebra.

The whole engine evaluates tensor components through this module.  A
:class:`DScalar` carries a value and a tuple of tangents belonging to one
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
``_chain``) is written for speed
without changing a single result.  Each function reads its operands' levels
once (``type(x) is DScalar``).  Wherever both operands of a value or tangent
operation are plain ``float``, it does that operation inline, in one
comprehension, instead of recursing.  Every such fast path performs exactly
the float operations of the generic recursion, in the same order:
``x*bv + av*y`` is never reassociated and no zero tangent is skipped, so
``0*inf``, NaN and ``-0.0`` come out as they would.  Nested levels, ``int``
and ``np.float64`` operands take the generic recursion, which stays inside
the same functions.  Mixed operands keep the dispatch of the Python
operators: ``float * dual`` runs as ``_mul(dual, float)``, just as
``DScalar.__rmul__`` does.

Linear solves (`solve_linear`) run Gaussian elimination with partial
pivoting generically over floats and duals, so Jacobian-dependent fields
(Reeb fields, compatibility endomorphisms, sphere projections) stay
differentiable simply by feeding dual entries through the same code path.
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


def new_tag() -> int:
    """Fresh differentiation level; later levels are treated as innermost."""
    return next(_TAGS)


class DScalar:
    """A scalar with first-order tangents at one differentiation level.

    ``val`` and the entries of ``tg`` may themselves be DScalars of *lower*
    levels.  Mixing levels in arithmetic treats the lower level as constant
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


def _neg(x):
    if type(x) is DScalar:
        v = x.val
        return DScalar(
            -v if type(v) is float else _neg(v),
            tuple([-t if type(t) is float else _neg(t) for t in x.tg]),
            x.tag,
        )
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
        tg = tuple([
            x + y if type(x) is float and type(y) is float else _add(x, y)
            for x, y in zip(a.tg, b.tg)
        ])
    else:
        tg = a.tg if ta > tb else b.tg
    fast = type(av) is float and type(bv) is float
    return DScalar(av + bv if fast else _add(av, bv), tg, ta if ta > tb else tb)


def _mul(a, b):
    ta = a.tag if type(a) is DScalar else 0
    tb = b.tag if type(b) is DScalar else 0
    if ta == tb == 0:
        return a * b
    av = a.val if ta >= tb else a
    bv = b.val if tb >= ta else b
    fa, fb = type(av) is float, type(bv) is float
    if ta == tb:
        fast = fa and fb
        tg = tuple([
            x * bv + av * y if fast and type(x) is float and type(y) is float
            else _add(_mul(x, bv), _mul(av, y))
            for x, y in zip(a.tg, b.tg)
        ])
    elif ta > tb:
        tg = tuple([x * bv if fb and type(x) is float else _mul(x, bv) for x in a.tg])
    else:
        tg = tuple([av * y if fa and type(y) is float else _mul(av, y) for y in b.tg])
    return DScalar(av * bv if fa and fb else _mul(av, bv), tg, ta if ta > tb else tb)


def _div(a, b):
    # d(a/b) = (da - (a/b) db) / b
    ta = a.tag if type(a) is DScalar else 0
    tb = b.tag if type(b) is DScalar else 0
    if ta == tb == 0:
        return a / b
    av = a.val if ta >= tb else a
    bv = b.val if tb >= ta else b
    fb = type(bv) is float
    val = av / bv if fb and type(av) is float else _div(av, bv)
    fast = fb and type(val) is float
    if ta == tb:
        tg = tuple([
            (x + -(val * y)) / bv if fast and type(x) is float and type(y) is float
            else _div(_add(x, _neg(_mul(val, y))), bv)
            for x, y in zip(a.tg, b.tg)
        ])
    elif ta > tb:
        tg = tuple([x / bv if fb and type(x) is float else _div(x, bv) for x in a.tg])
    else:
        tg = tuple([
            -(val * y) / bv if fast and type(y) is float
            else _div(_neg(_mul(val, y)), bv)
            for y in b.tg
        ])
    return DScalar(val, tg, ta if ta > tb else tb)


def powi(x, n: int):
    """x ** n for integer n, generic over floats and duals."""
    if type(x) is not DScalar:
        return float(x) ** n
    if n == 0:
        return 1.0
    if n < 0:
        return _div(1.0, powi(x, -n))
    v = powi(x.val, n)
    factor = _mul(float(n), powi(x.val, n - 1))
    return _chain(x, v, factor)


def value_of(x) -> float:
    """Strip all dual layers, returning the underlying float value."""
    while type(x) is DScalar:
        x = x.val
    return float(x)


def _chain(x: DScalar, val, dval):
    fast = type(dval) is float
    return DScalar(val, tuple([
        dval * t if fast and type(t) is float else _mul(dval, t) for t in x.tg
    ]), x.tag)


def sin(x):
    if isinstance(x, DScalar):
        return _chain(x, sin(x.val), cos(x.val))
    return math.sin(x)


def cos(x):
    if isinstance(x, DScalar):
        return _chain(x, cos(x.val), _neg(sin(x.val)))
    return math.cos(x)


def exp(x):
    if isinstance(x, DScalar):
        v = exp(x.val)
        return _chain(x, v, v)
    return math.exp(x)


def log(x):
    if isinstance(x, DScalar):
        return _chain(x, log(x.val), _div(1.0, x.val))
    return math.log(x)


def sqrt(x):
    if isinstance(x, DScalar):
        v = sqrt(x.val)
        return _chain(x, v, _div(0.5, v))
    return math.sqrt(x)


def absolute(x):
    if isinstance(x, DScalar):
        s = value_of(x)
        if s == 0.0:
            raise KinkError("abs differentiated at 0")
        sign = math.copysign(1.0, s)
        return _chain(x, absolute(x.val), sign)
    return abs(x)


def signum(x):
    if isinstance(x, DScalar):
        s = value_of(x)
        if s == 0.0:
            raise KinkError("sgn differentiated at 0")
        return DScalar(signum(x.val), tuple(0.0 for _ in x.tg), x.tag)
    if x == 0.0:
        return 0.0
    return math.copysign(1.0, x)


# -- seeding and unpacking --------------------------------------------


def seed(values: Sequence[Scalar]) -> tuple[int, list[DScalar]]:
    """Wrap values as duals of a fresh level with unit tangent directions."""
    tag = new_tag()
    n = len(values)
    out = []
    for i, v in enumerate(values):
        tg = tuple(1.0 if j == i else 0.0 for j in range(n))
        out.append(DScalar(v, tg, tag))
    return tag, out


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
            if mag > best_mag:
                best, best_mag = r, mag
        if best_mag < PIVOT_THRESHOLD:
            raise SingularMatrix(
                f"pivot {best_mag:.3e} below {PIVOT_THRESHOLD:.0e} in column {col}"
            )
        if best != col:
            a[col], a[best] = a[best], a[col]
            rhs[col], rhs[best] = rhs[best], rhs[col]
        for r in range(col + 1, n):
            if isinstance(a[r][col], DScalar) or value_of(a[r][col]) != 0.0:
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


# perfbench/tracing.py counts solves by wrapping this name.
solve_linear_info = solve_linear


def min_eigenvalue(rows: list[list[float]]) -> float:
    """Smallest eigenvalue of a symmetric float matrix (numpy eigvalsh)."""
    arr = np.array([[value_of(e) for e in r] for r in rows], dtype=float)
    sym = 0.5 * (arr + arr.T)
    return float(np.linalg.eigvalsh(sym)[0])


def determinant(rows: list[list[float]]) -> float:
    """Determinant of a float matrix (numpy)."""
    arr = np.array([[value_of(e) for e in r] for r in rows], dtype=float)
    return float(np.linalg.det(arr))
