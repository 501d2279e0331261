"""Property tests for the dual kernel (needs ``hypothesis``; skipped without).

Three oracles:

* a plain recursive kernel on a class of its own (``RefDual``), kept
  apart from ``numkernel`` as the reference it must equal: the kernel's
  arithmetic must give the same result leaf for leaf, at every level,
  compared by ``repr`` so that ``-0.0``, NaN and the leaf types
  (``float``, ``int``, ``np.float64``) all count, and must raise the same
  exception where it raises;
* central finite differences for order-1 and order-2 derivatives of random
  straight-line programs;
* the kernel itself, point by point: a batch (array leaves) gives at each
  point, leaf for leaf by ``repr`` with tags and tangents, what the same
  operations give on that point's floats; and a field evaluated over a
  sample group gives at each point the value, or raises the exception, of
  a lone evaluation there.
"""

from __future__ import annotations

import math
import operator
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

import exprgen  # noqa: E402
from pointwise import point  # noqa: E402
from sasaki_lab import exprlang, manifold, numkernel as nk, tensor as tn  # noqa: E402

# -- the reference: an independent recursive kernel -------------------------


class RefDual:
    __slots__ = ("val", "tg", "tag")

    def __init__(self, val, tg, tag):
        self.val = val
        self.tg = tg
        self.tag = tag

    def __add__(self, other):
        return ref_add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return ref_add(self, ref_neg(other))

    def __rsub__(self, other):
        return ref_add(ref_neg(self), other)

    def __mul__(self, other):
        return ref_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return ref_div(self, other)

    def __rtruediv__(self, other):
        return ref_div(other, self)

    def __neg__(self):
        return ref_neg(self)

    def __pow__(self, n):
        return ref_powi(self, n)


def _tag_of(x) -> int:
    return x.tag if isinstance(x, RefDual) else 0


def _parts(x, tag):
    if isinstance(x, RefDual) and x.tag == tag:
        return x.val, x.tg
    return x, None


def ref_neg(x):
    if isinstance(x, RefDual):
        return RefDual(ref_neg(x.val), tuple(ref_neg(t) for t in x.tg), x.tag)
    return -x


def ref_add(a, b):
    tag = max(_tag_of(a), _tag_of(b))
    if tag == 0:
        return a + b
    av, atg = _parts(a, tag)
    bv, btg = _parts(b, tag)
    if atg is None:
        tg = btg
    elif btg is None:
        tg = atg
    else:
        tg = tuple(ref_add(x, y) for x, y in zip(atg, btg))
    return RefDual(ref_add(av, bv), tg, tag)


def ref_mul(a, b):
    tag = max(_tag_of(a), _tag_of(b))
    if tag == 0:
        return a * b
    av, atg = _parts(a, tag)
    bv, btg = _parts(b, tag)
    if atg is None:
        tg = tuple(ref_mul(av, y) for y in btg)
    elif btg is None:
        tg = tuple(ref_mul(x, bv) for x in atg)
    else:
        tg = tuple(ref_add(ref_mul(x, bv), ref_mul(av, y)) for x, y in zip(atg, btg))
    return RefDual(ref_mul(av, bv), tg, tag)


def ref_div(a, b):
    tag = max(_tag_of(a), _tag_of(b))
    if tag == 0:
        return a / b
    av, atg = _parts(a, tag)
    bv, btg = _parts(b, tag)
    val = ref_div(av, bv)
    if atg is None:
        tg = tuple(ref_div(ref_neg(ref_mul(val, y)), bv) for y in btg)
    elif btg is None:
        tg = tuple(ref_div(x, bv) for x in atg)
    else:
        tg = tuple(
            ref_div(ref_add(x, ref_neg(ref_mul(val, y))), bv) for x, y in zip(atg, btg)
        )
    return RefDual(val, tg, tag)


def ref_powi(x, n):
    if not isinstance(x, RefDual):
        return float(x) ** n
    if n == 0:
        return 1.0
    if n < 0:
        return ref_div(1.0, ref_powi(x, -n))
    v = ref_powi(x.val, n)
    factor = ref_mul(float(n), ref_powi(x.val, n - 1))
    return RefDual(v, tuple(ref_mul(factor, t) for t in x.tg), x.tag)


def ref_value_of(x):
    while isinstance(x, RefDual):
        x = x.val
    return float(x)


def _chain(x, val, dval):
    return RefDual(val, tuple(ref_mul(dval, t) for t in x.tg), x.tag)


def ref_sin(x):
    if isinstance(x, RefDual):
        return _chain(x, ref_sin(x.val), ref_cos(x.val))
    return math.sin(x)


def ref_cos(x):
    if isinstance(x, RefDual):
        return _chain(x, ref_cos(x.val), ref_neg(ref_sin(x.val)))
    return math.cos(x)


def ref_exp(x):
    if isinstance(x, RefDual):
        v = ref_exp(x.val)
        return _chain(x, v, v)
    return math.exp(x)


def ref_log(x):
    if isinstance(x, RefDual):
        return _chain(x, ref_log(x.val), ref_div(1.0, x.val))
    return math.log(x)


def ref_sqrt(x):
    if isinstance(x, RefDual):
        v = ref_sqrt(x.val)
        return _chain(x, v, ref_div(0.5, v))
    return math.sqrt(x)


def ref_sum(terms):
    total = 0.0
    for t in terms:
        total = total + t
    return total


def ref_solve_linear(a_rows, b):
    n = len(a_rows)
    matrix_rhs = bool(b) and isinstance(b[0], (list, tuple))
    a = [list(r) for r in a_rows]
    rhs = [list(r) for r in b] if matrix_rhs else [[v] for v in b]
    m = len(rhs[0]) if rhs else 0

    for col in range(n):
        best, best_mag = col, abs(ref_value_of(a[col][col]))
        for r in range(col + 1, n):
            mag = abs(ref_value_of(a[r][col]))
            if mag > best_mag:
                best, best_mag = r, mag
        if best_mag < nk.PIVOT_THRESHOLD:
            raise nk.SingularMatrix(f"column {col}")
        if best != col:
            a[col], a[best] = a[best], a[col]
            rhs[col], rhs[best] = rhs[best], rhs[col]
        for r in range(col + 1, n):
            if isinstance(a[r][col], RefDual) or ref_value_of(a[r][col]) != 0.0:
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


# -- comparing the two kernels ------------------------------------------


def to_ref(x):
    """The same operand built from RefDual instead of DScalar."""
    if type(x) is nk.DScalar:
        return RefDual(to_ref(x.val), tuple(to_ref(t) for t in x.tg), x.tag)
    if isinstance(x, (list, tuple)):
        return type(x)(to_ref(v) for v in x)
    return x


def canon(x):
    """Tags, shapes and the repr of every leaf, for either kernel's duals."""
    if isinstance(x, (nk.DScalar, RefDual)):
        return ("dual", x.tag, canon(x.val), tuple(canon(t) for t in x.tg))
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    return repr(x)


def outcome(fn, *args):
    """canon of fn(*args), or the name of the exception it raised."""
    with np.errstate(all="ignore"):
        try:
            return canon(fn(*args))
        except (ArithmeticError, ValueError) as exc:
            return type(exc).__name__


def assert_same(kernel_fn, ref_fn, *args):
    want = outcome(ref_fn, *to_ref(list(args)))
    got = outcome(kernel_fn, *args)
    assert got == want


# -- operand strategies -------------------------------------------------

LOW, HIGH = nk.new_tag(), nk.new_tag()  # two nested levels, LOW inside HIGH

SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, math.inf, -math.inf, math.nan]
FLOATS = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
CONSTS = st.one_of(FLOATS, st.integers(-3, 3), FLOATS.map(np.float64))


KINDS = ("const", "low", "high1", "order2")


@st.composite
def operand_lists(draw, count, kinds=KINDS):
    """`count` operands sharing the dimensions of the two levels.

    Each operand is one of `kinds`: a constant, an order-1 dual at either
    level, or an order-2 dual (HIGH over LOW) whose slots are constants or
    LOW duals.  About half the operands are built from plain floats only,
    the leaves of every sampled point; the rest mix in ints and
    np.float64.
    """
    d_low, d_high = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    out = []
    for _ in range(count):
        leaf = FLOATS if draw(st.booleans()) else CONSTS

        def low():
            return nk.DScalar(draw(leaf), tuple(draw(leaf) for _ in range(d_low)), LOW)

        def slot():
            return low() if draw(st.booleans()) else draw(leaf)

        def high(entry):
            return nk.DScalar(entry(), tuple(entry() for _ in range(d_high)), HIGH)

        kind = draw(st.sampled_from(kinds))
        if kind == "const":
            out.append(draw(leaf))
        elif kind == "low":
            out.append(low())
        elif kind == "high1":
            out.append(high(lambda: draw(leaf)))
        else:
            out.append(high(slot))
    return out


ORACLE = settings(max_examples=150, deadline=None)


@ORACLE
@given(st.sampled_from(["add", "sub", "mul", "truediv"]), operand_lists(2))
def test_binary_operators_match_reference(name, ops):
    fn = getattr(operator, name)
    assert_same(fn, fn, *ops)


@ORACLE
@given(operand_lists(2))
# signed zeros in value and tangent slots, at one level and across two
@example([nk.DScalar(-0.0, (-0.0, 1.0), LOW), nk.DScalar(0.0, (0.0, -0.0), LOW)])
@example([nk.DScalar(-0.0, (0.0,), HIGH), 0.0])
@example([-0.0, nk.DScalar(0.0, (-0.0,), HIGH)])
def test_kernel_functions_match_reference(ops):
    a, b = ops
    assert_same(nk._add, ref_add, a, b)
    assert_same(nk._mul, ref_mul, a, b)
    assert_same(nk._div, ref_div, a, b)
    assert_same(nk._neg, ref_neg, a)


@ORACLE
@given(operand_lists(1), st.integers(-3, 4))
def test_powi_matches_reference(ops, n):
    assert_same(nk.powi, ref_powi, ops[0], n)


@ORACLE
@given(operand_lists(1))
def test_chain_rule_functions_match_reference(ops):
    x = ops[0]
    for kernel_fn, ref in (
        (nk.sin, ref_sin), (nk.cos, ref_cos), (nk.exp, ref_exp),
        (nk.log, ref_log), (nk.sqrt, ref_sqrt),
    ):
        assert_same(kernel_fn, ref, x)
    assert repr(nk.value_of(x)) == repr(ref_value_of(to_ref(x)))


@ORACLE
@given(st.integers(0, 6).flatmap(operand_lists))
def test_sum_matches_reference(ops):
    assert_same(lambda *ts: nk.sum_(ts), lambda *ts: ref_sum(ts), *ops)


@st.composite
def linear_systems(draw):
    """(rows, rhs) of an n x n system, n in 1..4, with a vector or matrix rhs.

    Half the systems hold constants only.  A strong diagonal keeps most
    draws solvable, so elimination and back substitution run.
    """
    n = draw(st.integers(1, 4))
    kinds = ("const",) if draw(st.booleans()) else KINDS
    ops = draw(operand_lists(n * n + 2 * n, kinds))
    rows = [ops[i * n:(i + 1) * n] for i in range(n)]
    for i in range(n):
        rows[i][i] = rows[i][i] + 8.0
    rest = ops[n * n:]
    if draw(st.booleans()):
        return rows, [rest[i:i + 2] for i in range(0, 2 * n, 2)]
    return rows, rest[:n]


@ORACLE
@given(linear_systems())
# signed zeros that a skipped zero product would flip, in elimination and
# in back substitution
@example(([[1.0, 0.0], [-0.5, 1.0]], [0.0, -0.0]))
@example(([[1.0, -1.0], [0.0, 1.0]], [-0.0, 0.0]))
def test_solve_linear_matches_reference(system):
    assert_same(nk.solve_linear, ref_solve_linear, *system)


# -- derivatives against central finite differences ---------------------

STEPS = ["add", "sub", "mul", "div", "sin", "cos", "exp", "sqrt", "log", "pow"]


def run_program(program, xs):
    """Evaluate a straight-line program over floats or duals.

    Registers start as the inputs; each step appends op(r[i], r[j]).  Every
    step is smooth on all of R, so any input is in its domain.
    """
    r = list(xs)
    for op, i, j, c in program:
        a, b = r[i % len(r)], r[j % len(r)]
        if op == "add":
            v = a + c * b
        elif op == "sub":
            v = a - b
        elif op == "mul":
            v = a * b
        elif op == "div":
            v = a / (1.5 + nk.sin(b))
        elif op == "sin":
            v = nk.sin(c * a)
        elif op == "cos":
            v = nk.cos(a + c)
        elif op == "exp":
            v = nk.exp(nk.sin(a))
        elif op == "sqrt":
            v = nk.sqrt(1.0 + a * a)
        elif op == "log":
            v = nk.log(2.0 + nk.cos(a))
        else:
            v = (1.5 + nk.sin(a)) ** -2 * nk.sin(b) ** 3
        r.append(v)
    return r[-1]


PROGRAMS = st.lists(
    st.tuples(
        st.sampled_from(STEPS), st.integers(0, 20), st.integers(0, 20),
        st.floats(-2.0, 2.0),
    ),
    min_size=1, max_size=6,
)
POINTS = st.integers(1, 4).flatmap(
    lambda d: st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
)
H = 1e-5


def _fd(f, x, i):
    up, dn = list(x), list(x)
    up[i] += H
    dn[i] -= H
    return (f(up) - f(dn)) / (2 * H)


def _gradient(program, x):
    tag, duals = nk.seed(x)
    out = run_program(program, duals)
    return [nk.tangent_at(out, tag, i) for i in range(len(x))]


def _close(got, want, scale):
    return abs(got - want) <= 1e-6 * max(1.0, abs(want), scale)


@settings(max_examples=100, deadline=None)
@given(PROGRAMS, POINTS)
def test_first_derivatives_match_finite_differences(program, x):
    scale = abs(run_program(program, x))
    for i, g in enumerate(_gradient(program, x)):
        assert _close(g, _fd(lambda p: run_program(program, p), x, i), scale)


@settings(max_examples=100, deadline=None)
@given(PROGRAMS, POINTS)
def test_second_derivatives_match_finite_differences(program, x):
    low, inner = nk.seed(x)
    high, outer = nk.seed(inner)
    out = run_program(program, outer)
    grad = _gradient(program, x)
    scale = max([abs(g) for g in grad] + [abs(run_program(program, x))])
    for i in range(len(x)):
        d_i = nk.tangent_at(out, high, i)
        # the value slots of the nested run repeat the order-1 run exactly
        assert repr(nk.tangent_at(nk.value_at(out, high), low, i)) == repr(grad[i])
        for j in range(len(x)):
            want = _fd(lambda p: _gradient(program, p)[i], x, j)
            assert _close(nk.tangent_at(d_i, low, j), want, scale)


# -- a batch against its points ---------------------------------------------

BATCH_ERRSTATE = {"all": "raise", "under": "ignore"}


def seeded_levels(columns: list, order: int) -> list:
    """The batch columns seeded `order` times (each level one fresh tag),
    and each point's floats seeded the same way at the same tags:
    [batch values, point 0 values, point 1 values, ...]."""
    size = len(columns[0])
    envs = [[np.array(c) for c in columns]] + [[c[i] for c in columns] for i in range(size)]
    for _ in range(order):
        tag = nk.new_tag()
        envs = [nk.unit_duals(values, tag) for values in envs]
    return envs


def scalar_outcome(fn):
    """canon of fn(), or (exception type, message)."""
    try:
        return canon(fn())
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def assert_batch_matches_points(fn, batch_args, point_args):
    """fn over the batch gives at point i what it gives on point i's
    arguments; where the batch raises, some point raises the same
    exception type or the batch signalled a non-finite step."""
    want = [scalar_outcome(lambda a=a: fn(*a)) for a in point_args]
    try:
        with np.errstate(**BATCH_ERRSTATE):
            got = fn(*batch_args)
    except FloatingPointError:
        return  # a step overflowed or left the reals: evaluated point by point
    except nk.Unmergeable:
        return  # groups of different leaf kinds: evaluated point by point
    except (ArithmeticError, ValueError) as exc:
        assert type(exc).__name__ in {w[0] for w in want if isinstance(w, tuple)}
        return
    for i, w in enumerate(want):
        assert canon(point(got, i)) == w, i


VARIABLES = ["x", "y"]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(1, 6))
def test_expression_batches_match_their_points(seed, order, size):
    """exprgen programs (sin cos exp log sqrt abs sgn, integer powers of
    either sign, division) over a batch of `size` points at `order` dual
    levels.  Some points repeat a coordinate or sit at 0, so the kink and
    zero-divisor tests meet mixed batches."""
    rng = np.random.default_rng(seed)
    e = exprgen.random_expr(rng, VARIABLES, int(rng.integers(1, 5)))
    points = [exprgen.random_env(rng, VARIABLES) for _ in range(size)]
    for env in points:
        if rng.random() < 0.15:
            env["x"] = 0.0
        if rng.random() < 0.15:
            env["y"] = points[0]["y"]
    batch, *each = seeded_levels([[env[v] for env in points] for v in VARIABLES], order)

    def evaluate(values):
        return exprlang.eval_expr(e, dict(zip(VARIABLES, values)))

    try:
        assert_batch_matches_points(evaluate, [batch], [[v] for v in each])
    except AssertionError:
        raise AssertionError(f"{exprlang.pretty(e)} at {points}, order {order}")


MATHS_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-160, 1e-160,
    math.inf, -math.inf, math.nan, -1.0, 1.0, -2.5, 1e154, -1.35e154,
    5.6e102, -5.7e102, 1e200, -1e200, 1.7976931348623157e308, -1e308, 709.8, -745.2,
]


def _maths_values() -> list[float]:
    """The edges, then draws: in (0.05, 6), in (−6, −0.05) and of either
    sign at every magnitude a float has."""
    rng = np.random.default_rng(5)
    wide = np.exp(rng.uniform(-744.0, 709.0, 1000)) * rng.choice([-1.0, 1.0], 1000)
    draws = [rng.uniform(0.05, 6.0, 2000), rng.uniform(-6.0, -0.05, 1000), wide]
    return MATHS_EDGES + np.concatenate(draws).tolist()


@pytest.mark.parametrize("name", ["sin", "cos", "exp", "log", "sqrt", "powi"])
def test_batch_functions_are_maths_element_by_element(name):
    """A batch gives each value what ``math`` or Python's ``**`` gives it,
    compared by ``repr`` (so ``-0.0`` against ``0.0`` and NaN count), and
    raises where they raise: one batch of the values at which they
    return, and each value at which they raise put into a batch of
    values at which they return.  The values are draws plus the edges:
    negative bases, ±0.0, subnormals, ±inf, NaN and magnitudes near
    overflow; `powi` takes n in −8…8 and 31.  numpy's `exp` and `log`
    differ from ``math`` by an ulp at a few percent of values, and
    `np.power` from ``**``; `np.float_power`, whose float64 loop is the C
    ``pow`` that ``**`` calls, and `np.sqrt`, correctly rounded, do not."""
    values = _maths_values()
    if name == "powi":
        cases = [(lambda x, n=n: nk.powi(x, n), lambda v, n=n: v ** n)
                 for n in [*range(-8, 9), 31]]
    else:
        cases = [(getattr(nk, name), getattr(math, name))]
    for batch, maths in cases:
        returning, want, raising = [], [], []
        for v in values:
            try:
                want.append(repr(maths(v)))
                returning.append(v)
            except (ArithmeticError, ValueError):
                raising.append(v)
        assert [repr(v) for v in batch(np.array(returning)).tolist()] == want
        for v in raising:
            with pytest.raises(ArithmeticError if name in ("powi", "sqrt")
                               else (ArithmeticError, ValueError)):
                batch(np.array(returning[:3] + [v] + returning[3:9]))


FINITE_ENTRIES = [0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5, 1e-13, 4.0]


def _system_entry(draw, size: int, values):
    """A matrix or rhs entry of a batch: a float shared by every point, an
    array of per-point values (exact zeros and ties included), an order-1
    dual at either level, or an order-2 dual (HIGH over LOW) whose slots
    are such leaves or LOW duals."""

    def slot():
        if draw(st.booleans()):
            return draw(values)
        return np.array([draw(values) for _ in range(size)])

    def low():
        return nk.DScalar(slot(), (slot(), slot()), LOW)

    def inner():
        return low() if draw(st.booleans()) else slot()

    kind = draw(st.sampled_from(["const", "array", "array", "low", "high", "order2"]))
    if kind == "const":
        return draw(values)
    if kind == "array":
        return slot()
    if kind == "low":
        return low()
    if kind == "high":
        return nk.DScalar(slot(), (slot(),), HIGH)
    return nk.DScalar(inner(), (inner(),), HIGH)


@st.composite
def batch_systems(draw):
    """(rows, rhs, size): n x n systems over a batch of points whose pivot
    rows, zero skips and singular columns differ from point to point.
    Half the systems draw their values from a pool with ±inf and NaN."""
    n, size = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    pool = FINITE_ENTRIES + ([math.inf, -math.inf, math.nan] if draw(st.booleans()) else [])
    values = st.sampled_from(pool)
    rows = [[_system_entry(draw, size, values) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rhs = [[_system_entry(draw, size, values) for _ in range(2)] for _ in range(n)]
    else:
        rhs = [_system_entry(draw, size, values) for _ in range(n)]
    return rows, rhs, size


PIVOTS = np.array([1.0, 3.0, -2.0, 0.5])  # |a00| against |a10| flips by point
DUAL = nk.DScalar(np.array([2.0, -1.0, 0.25, 3.0]), (1.0, np.array([0.0, -0.0, 2.0, 1.0])), LOW)
PIVOT_DUAL = nk.DScalar(PIVOTS, (np.array([1.0, -0.0, 2.0, 0.0]), -1.0), LOW)
NESTED = nk.DScalar(DUAL, (nk.DScalar(-0.0, (1.0, np.array([2.0, 0.0, -1.0, 0.5])), LOW),), HIGH)
PIVOT_NESTED = nk.DScalar(PIVOT_DUAL, (nk.DScalar(1.0, (0.0, -0.0), LOW),), HIGH)
# column 0's pivot is row 0, 1 or 2 by point
THREE_PIVOTS = [
    [np.array([4.0, 0.5, 1.0, -0.0]), 1.0, -0.0],
    [PIVOTS, np.array([2.0, -1.0, 0.5, 3.0]), 1.0],
    [np.array([-3.0, -1.0, 0.5, 2.0]), 0.5, np.array([1.0, math.inf, 2.0, -1.0])],
]
# row 1 skips column 0 at point 0, where rhs - (-0.0)·1.0 would give 0.0
SIGNED_ZERO_SKIP = (
    [[2.0, 1.0], [np.array([-0.0, 1.0]), np.array([5.0, 3.0])]],
    [1.0, np.array([-0.0, 1.0])],
)


@settings(max_examples=200, deadline=None)
@given(batch_systems())
# pivot rows differing by point, each column of one structure: swapped
# point by point in one pass
@example(([[PIVOTS, 1.0], [2.0, -1.0]], [1.0, 0.0], 4))
@example(([[PIVOTS, 1.0], [2.0, -3.0]], [-0.0, np.array([1.0, 0.0, -0.0, 2.0])], 4))
@example(([[PIVOT_DUAL, DUAL], [DUAL * 2.0, -DUAL]], [DUAL, DUAL * DUAL], 4))
@example(([[PIVOT_NESTED, NESTED], [NESTED * 2.0, -NESTED]], [[NESTED, 1.0], [-NESTED, 0.0]], 4))
@example((THREE_PIVOTS, [np.array([1.0, -0.0, math.nan, 2.0]), 0.0, -1.0], 4))
# pivot rows differing by point with a plain leaf against a dual in a
# column: solved group by group
@example(([[1.5, -0.5], [DUAL, DUAL * 2.0]], [DUAL, -0.0], 4))
@example(([[2.0, 1.0], [PIVOTS, DUAL]], [[1.0, 0.0], [0.0, 1.0]], 4))
@example(([[PIVOT_DUAL, NESTED], [2.0, DUAL]], [1.0, DUAL], 4))
# an entry below the pivot that is a plain zero at some points only
@example(([[2.0, 1.0], [np.array([0.0, 1.0, -0.0, 2.0]), DUAL]], [DUAL, 1.0], 4))
@example(([[2.0, DUAL], [np.array([0.0, 1.0, -0.0, 2.0]), DUAL * 2.0]], [DUAL, -DUAL], 4))
# ... where the skipped point's update would flip a signed zero or
# spread a NaN of the pivot row, or signal on an inf there
@example(SIGNED_ZERO_SKIP + (2,))
@example(([[2.0, np.array([math.nan, 1.0])], [np.array([0.0, 1.0]), 1.0]], [1.0, 1.0], 2))
@example(([[2.0, np.array([math.inf, 1.0])], [np.array([0.0, 1.0]), 1.0]], [1.0, 1.0], 2))
# a NaN pivot at one point
@example(([[np.array([1.0, np.nan, 2.0, 1.0]), 1.0], [1.5, DUAL]], [1.0, 2.0], 4))
def test_solve_linear_batches_match_their_points(system):
    rows, rhs, size = system
    assert_batch_matches_points(
        nk.solve_linear, [rows, rhs],
        [[point(rows, i), point(rhs, i)] for i in range(size)],
    )


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_determinant_and_min_eigenvalue_of_a_batch_match_each_matrix(n):
    """Over a batch whose entries are floats shared by every point or
    per-point arrays, `determinant` and `min_eigenvalue` give point i, by
    repr, what they give on point i's matrix: NaN, ±inf and −0.0 entries
    at some points only, and singular matrices, included."""
    rng = np.random.default_rng(n)
    size = 12

    def per_point(v):
        return np.array(np.broadcast_to(v, size))

    rows = [[rng.normal(size=size) if rng.random() < 0.7 else float(rng.normal())
             for _ in range(n)] for _ in range(n)]
    rows[:2] = [[per_point(v) for v in row] for row in rows[:2]]
    for j in range(n):  # point 5: two equal rows
        rows[0][j][5] = rows[1][j][5]
    for k, v in enumerate([math.nan, math.inf, -math.inf, -0.0]):  # points 0-3
        i, j = rng.integers(n), rng.integers(n)
        rows[i][j] = per_point(rows[i][j])
        rows[i][j][k] = v
    for fn in (nk.determinant, nk.min_eigenvalue):
        with np.errstate(**BATCH_ERRSTATE):
            got = fn(rows)
        want = [fn(point(rows, i)) for i in range(size)]
        assert type(got) is np.ndarray and all(type(w) is float for w in want)
        assert [repr(v) for v in got.tolist()] == [repr(w) for w in want]
        assert sum(math.isnan(w) for w in want) >= 3


def _groups_spy(monkeypatch) -> list:
    """The labels of every call to `numkernel._solve_in_groups` from here on."""
    solve_in_groups, calls = nk._solve_in_groups, []

    def spy(a_rows, b, labels):
        calls.append(labels)
        return solve_in_groups(a_rows, b, labels)

    monkeypatch.setattr(nk, "_solve_in_groups", spy)
    return calls


@pytest.mark.parametrize("rows, rhs, size", [
    ([[PIVOT_DUAL, DUAL], [DUAL * 2.0, -DUAL]], [[DUAL, -0.0], [-DUAL, 2.0]], 4),
    ([[PIVOT_NESTED, NESTED], [NESTED * 2.0, -NESTED]], [NESTED, -NESTED], 4),
    ([[PIVOTS, 1.0], [2.0, -3.0]], [-0.0, np.array([1.0, 0.0, -0.0, 2.0])], 4),
    (THREE_PIVOTS, [[1.0, -0.0], [np.array([0.5, 2.0, -1.0, 0.0]), 1.0], [0.0, 3.0]], 4),
    ([[2.0, DUAL], [np.array([0.0, 1.0, -0.0, 2.0]), DUAL * 2.0]], [DUAL, -DUAL], 4),
    SIGNED_ZERO_SKIP + (2,),
], ids=["pivot-rows-order1", "pivot-rows-order2", "pivot-rows-plain", "three-pivot-rows",
        "zero-skip", "zero-skip-signed-zero"])
def test_solve_linear_selects_per_point_in_one_pass(rows, rhs, size, monkeypatch):
    """Pivot rows that differ by point are swapped point by point, and an
    update that some points skip keeps their old entries, by a leafwise
    select: while every column holds leaves of one structure, the batch
    is eliminated once, with no group solved on its own."""
    calls = _groups_spy(monkeypatch)
    with np.errstate(**BATCH_ERRSTATE):
        got = nk.solve_linear(rows, rhs)
    assert calls == []
    for i in range(size):
        want = nk.solve_linear(point(rows, i), point(rhs, i))
        assert canon(point(got, i)) == canon(want)


def test_where_keeps_a_plain_leaf_plain_only_when_equal_to_the_bit():
    mask = np.array([True, False])
    assert nk._where(mask, 1.5, 1.5) == 1.5
    for x, y in [(0.0, -0.0), (math.nan, -math.nan), (1.0, 2.0)]:
        got = nk._where(mask, x, y)
        assert type(got) is np.ndarray and repr(got.tolist()) == repr([x, y])
    dual = nk._where(mask, nk.DScalar(1.0, (np.array([2.0, 3.0]),), LOW),
                     nk.DScalar(1.0, (-0.0,), LOW))
    assert canon(dual) == canon(nk.DScalar(1.0, (np.array([2.0, -0.0]),), LOW))
    for x, y in [(1.0, nk.DScalar(1.0, (0.0,), LOW)),
                 (nk.DScalar(1.0, (0.0,), HIGH), nk.DScalar(1.0, (0.0,), LOW)),
                 (nk.DScalar(1.0, (0.0,), LOW), nk.DScalar(1.0, (0.0, 0.0), LOW)),
                 (1, 2.0)]:
        with pytest.raises(nk.Unmergeable):
            nk._where(mask, x, y)


def test_solve_linear_splits_by_pivot_row_and_merges(monkeypatch):
    """Points whose pivot rows differ, where a swap would put a plain leaf
    against a dual (row 0's 1.0 against row 1's dual), fall back to a
    solve per group, merged into one batch: no point by point evaluation
    is needed."""
    calls = _groups_spy(monkeypatch)
    rows, rhs = [[PIVOTS, 1.0], [2.0, -DUAL]], [DUAL, 1.0]
    with np.errstate(**BATCH_ERRSTATE):
        got = nk.solve_linear(rows, rhs)
    assert [labels.tolist() for labels in calls] == [[1, 0, 0, 1]]
    assert all(isinstance(leaf, nk.DScalar) for leaf in got)
    for i in range(4):
        want = nk.solve_linear(point(rows, i), point(rhs, i))
        assert canon(point(got, i)) == canon(want)


def test_solve_linear_splits_by_zero_skip_and_merges(monkeypatch):
    """Points where an entry below the pivot is a plain zero skip its
    elimination, the others do it.  Here the update would turn the plain
    rhs entry 1.0 into a dual at the points that make it, so the select
    falls back to a solve per group, merged into one batch."""
    calls = _groups_spy(monkeypatch)
    rows, rhs = [[2.0, 1.0], [np.array([0.0, 1.0, -0.0, 2.0]), DUAL]], [DUAL, 1.0]
    with np.errstate(**BATCH_ERRSTATE):
        got = nk.solve_linear(rows, rhs)
    assert [labels.tolist() for labels in calls] == [[False, True, False, True]]
    assert all(isinstance(leaf, nk.DScalar) for leaf in got)
    for i in range(4):
        want = nk.solve_linear(point(rows, i), point(rhs, i))
        assert canon(point(got, i)) == canon(want)


@pytest.mark.parametrize("errstate", [BATCH_ERRSTATE, {"all": "warn"}], ids=["raise", "warn"])
def test_a_signal_at_a_skipped_point_falls_back_to_groups(errstate, monkeypatch):
    """An update that some points skip is computed under its own errstate,
    whatever the caller's: at the skipped point 0, 0·inf signals (its own
    solve never computes it), and the batch is solved per group instead of
    raising, warning, or going point by point."""
    calls = _groups_spy(monkeypatch)
    rows = [[2.0, np.array([math.inf, 1.0])], [np.array([0.0, 1.0]), 1.0]]
    with np.errstate(**errstate), warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nk.solve_linear(rows, [1.0, 1.0])
    assert len(calls) == 1
    assert all(type(leaf) is np.ndarray for leaf in got)
    assert repr([leaf.tolist() for leaf in got]) == repr([[-math.inf, 0.0], [1.0, 1.0]])


def test_merge_refuses_a_plain_leaf_against_a_dual():
    idx = [np.array([0]), np.array([1])]
    with pytest.raises(nk.Unmergeable):
        nk.merge([(idx[0], 0.0), (idx[1], nk.DScalar(0.0, (1.0,), LOW))], 2)
    with pytest.raises(nk.Unmergeable):
        nk.merge([(idx[0], nk.DScalar(0.0, (1.0,), HIGH)),
                  (idx[1], nk.DScalar(0.0, (1.0,), LOW))], 2)
    merged = nk.merge([(idx[1], -0.0), (idx[0], np.array([np.nan]))], 2)
    assert repr(merged.tolist()) == "[nan, -0.0]"


# -- a field over a sample group against lone evaluations -------------------

CHART = manifold.Chart("O", ("x", "y"), ((-2.0, 2.0),) * 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(1, 6))
def test_fields_over_a_group_match_lone_points(seed, order, size):
    """A scalar field of an exprgen program, at the batch env of a sample
    group (seeded `order` times, each level one tag shared with its
    points), gives each point the value of the same evaluation at that
    point's env alone; where the batch raises, some point raises the same
    exception type or the batch signalled a non-finite step, and the
    driver evaluates point by point."""
    rng = np.random.default_rng(seed)
    e = exprgen.random_expr(rng, VARIABLES, int(rng.integers(1, 5)))
    T = tn.TensorField.from_exprs("f", manifold.Atlas([CHART]), (0, 0), {"O": {(): e}})
    points = [tuple(exprgen.random_env(rng, VARIABLES).values()) for _ in range(size)]
    points = [(0.0, y) if rng.random() < 0.2 else (x, y) for x, y in points]
    batch, *lone = seeded_levels([list(c) for c in zip(*points)], order)
    assert_batch_matches_points(
        lambda *values: T.at("O", manifold.PointEnv(zip(CHART.coords, values))),
        batch, lone,
    )
