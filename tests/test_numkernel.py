"""Kernel tests: dual arithmetic against finite differences, nesting,
kink semantics, and the pivoted solver's residual guarantee."""

import contextlib
import math

import numpy as np
import pytest

from sasaki_lab import numkernel as nk


def fd(f, x, h=1e-6):
    """Central finite-difference oracle for a scalar function of one var."""
    return (f(x + h) - f(x - h)) / (2 * h)


def dual1(x, v=1.0):
    tag = nk.new_tag()
    return tag, nk.DScalar(x, (v,), tag)


class TestFirstDerivatives:
    def check(self, f, x, places=1e-8):
        tag, d = dual1(x)
        out = f(d)
        got = nk.tangent_at(out, tag, 0)
        want = fd(f, x)
        assert abs(got - want) <= places * max(1.0, abs(want))

    def test_polynomial(self):
        self.check(lambda u: 3.0 * u * u * u - 2.0 * u + 7.0, 0.83)

    def test_rational(self):
        self.check(lambda u: (u + 2.0) / (u * u + 1.0), -0.4)

    def test_chain(self):
        self.check(lambda u: nk.sin(nk.exp(u) * 0.5), 0.3)

    def test_sqrt_log(self):
        self.check(lambda u: nk.log(nk.sqrt(u) + 1.0), 1.7)

    def test_abs_away_from_kink(self):
        self.check(lambda u: nk.absolute(u) * u, -0.7)

    def test_pow_negative_exponent(self):
        self.check(lambda u: u ** -3, 1.3)

    def test_pow_zero_is_constant_one(self):
        tag, d = dual1(2.0)
        out = d ** 0
        assert out == 1.0


def test_analytic_second_derivative_by_nesting():
    """d²/dx² of sin(x²) = 2cos(x²) − 4x² sin(x²), checked at x=0.6."""
    x = 0.6

    def f(u):
        return nk.sin(u * u)

    t_outer = nk.new_tag()
    outer = nk.DScalar(x, (1.0,), t_outer)
    t_inner = nk.new_tag()
    inner = nk.DScalar(outer, (1.0,), t_inner)
    out = f(inner)
    first = nk.tangent_at(out, t_inner, 0)
    second = nk.tangent_at(first, t_outer, 0)
    want = 2 * math.cos(x * x) - 4 * x * x * math.sin(x * x)
    assert abs(second - want) < 1e-12


def test_mixed_tag_treats_outer_as_constant():
    # g(y) = 3y with an unrelated (lower-level) dual hanging around
    t1 = nk.new_tag()
    a = nk.DScalar(2.0, (1.0,), t1)
    t2 = nk.new_tag()
    y = nk.DScalar(5.0, (1.0,), t2)
    out = a * y + a
    assert nk.value_of(out) == 12.0
    dy = nk.tangent_at(out, t2, 0)  # ∂/∂y = a = 2
    assert nk.value_of(dy) == 2.0
    # and that ∂/∂y carries a's own tangent: ∂²/∂y∂a = 1
    assert nk.tangent_at(dy, t1, 0) == 1.0


def test_zero_tangent_arithmetic_is_bitwise_plain():
    """A dual with zero tangents must reproduce float arithmetic exactly."""
    xs = [0.1, -2.7, 3.14159, 0.333333]
    for x in xs:
        tag = nk.new_tag()
        d = nk.DScalar(x, (0.0,), tag)
        plain = ((x * 3.7 - 1.2) / (x * x + 0.754)) + math.sin(x) * math.exp(-x)
        lifted = ((d * 3.7 - 1.2) / (d * d + 0.754)) + nk.sin(d) * nk.exp(-d)
        assert nk.value_of(lifted) == plain  # bit-for-bit
        assert nk.tangent_at(lifted, tag, 0) == 0.0


def test_kinks_raise():
    tag, d = dual1(0.0)
    with pytest.raises(nk.KinkError):
        nk.absolute(d)
    with pytest.raises(nk.KinkError):
        nk.signum(d)
    # plain float calls at 0 stay defined
    assert nk.absolute(0.0) == 0.0
    assert nk.signum(0.0) == 0.0
    assert nk.signum(-3.0) == -1.0


CALLERS = {
    "no errstate": contextlib.nullcontext,
    "driver's errstate": lambda: np.errstate(all="raise", under="ignore"),
    "everything ignored": lambda: np.errstate(all="ignore"),
}


@pytest.mark.parametrize("caller", CALLERS)
@pytest.mark.parametrize("fn, values", [
    (lambda x: nk.powi(x, -1), [2.0, 0.0]),
    (lambda x: nk.powi(x, -2), [-0.0, 3.0]),
    (lambda x: nk.powi(x, -3), [0.5, -0.0, 0.0]),
    (lambda x: nk.powi(x, 2), [1.5, 1e200]),
    (nk.sqrt, [4.0, -1.0]),
    (nk.sqrt, [-5e-324, 1.0]),
    (nk.sqrt, [2.0, -math.inf]),
], ids=["0^-1", "-0^-2", "0^-3", "1e200^2", "sqrt(-1)", "sqrt(-5e-324)", "sqrt(-inf)"])
def test_a_batch_raises_where_a_point_raises(fn, values, caller):
    """Where Python's ``**`` or `math.sqrt` raises at some point of a
    batch (a zero to a negative power, an overflow, the root of a negative
    number), the batch raises, whatever errstate its caller set, and
    returns no inf or NaN."""
    with pytest.raises((ArithmeticError, ValueError)):  # math's domain error
        for v in values:
            fn(v)
    with CALLERS[caller](), pytest.raises(ArithmeticError):
        fn(np.array(values))


def test_sgn_derivative_is_zero_off_kink():
    tag, d = dual1(-2.0)
    out = nk.signum(d)
    assert nk.value_of(out) == -1.0
    assert nk.tangent_at(out, tag, 0) == 0.0


class TestSolver:
    def test_residual_guarantee_on_random_well_conditioned(self):
        """Residual ≤ 1e-10·‖b‖∞ on random matrices shifted by n·I."""
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            b = rng.standard_normal(n)
            x = nk.solve_linear(a.tolist(), b.tolist())
            res = np.max(np.abs(a @ np.array(x) - b))
            assert res <= 1e-10 * max(1.0, np.max(np.abs(b)))

    def test_singular_raises(self):
        rows = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(nk.SingularMatrix):
            nk.solve_linear(rows, [1.0, 1.0])

    def test_pivoting_handles_zero_diagonal(self):
        rows = [[0.0, 1.0], [1.0, 0.0]]
        x = nk.solve_linear(rows, [2.0, 3.0])
        assert x == [3.0, 2.0]

    def test_matrix_rhs(self):
        a = [[2.0, 0.0], [0.0, 4.0]]
        eye = [[1.0, 0.0], [0.0, 1.0]]
        inv = nk.solve_linear(a, eye)
        assert inv == [[0.5, 0.0], [0.0, 0.25]]

    def test_dual_solve_derivative_matches_fd(self):
        """d/dt of solve(A(t), b) against finite differences.

        A(t) = [[2+t, 1], [1, 3·t²+4]], b = (1, 2).
        """

        def solve_at(t):
            rows = [[2.0 + t, 1.0], [1.0, 3.0 * t * t + 4.0]]
            return nk.solve_linear(rows, [1.0, 2.0])

        t0 = 0.37
        h = 1e-6
        want = [
            (a - b) / (2 * h)
            for a, b in zip(solve_at(t0 + h), solve_at(t0 - h))
        ]
        tag = nk.new_tag()
        td = nk.DScalar(t0, (1.0,), tag)
        rows = [[2.0 + td, 1.0], [1.0, 3.0 * td * td + 4.0]]
        got = nk.solve_linear(rows, [1.0, 2.0])
        for g, w in zip(got, want):
            assert abs(nk.tangent_at(g, tag, 0) - w) < 1e-6


def test_min_eigenvalue_and_determinant():
    rows = [[2.0, 1.0], [1.0, 2.0]]
    assert abs(nk.min_eigenvalue(rows) - 1.0) < 1e-12
    assert abs(nk.determinant(rows) - 3.0) < 1e-12


def test_min_eigenvalue_is_nan_on_an_entry_that_is_not_finite():
    # eigvalsh gives 0.0 here, and raises LinAlgError on the 3x3
    assert math.isnan(nk.min_eigenvalue([[math.nan, 0.0], [0.0, 5.0]]))
    rows = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, math.nan]]
    assert math.isnan(nk.min_eigenvalue(rows))
    assert math.isnan(nk.min_eigenvalue([[math.inf, 0.0], [0.0, 1.0]]))


def test_determinant_is_nan_on_an_entry_that_is_not_finite():
    # numpy's det gives inf or a RuntimeWarning and NaN here
    assert math.isnan(nk.determinant([[math.inf, 0.0], [0.0, 1.0]]))
    assert math.isnan(nk.determinant([[1.0, 0.0], [0.0, math.nan]]))
    rows = [[0.0, -0.5, math.inf], [0.5, 0.0, 1.0], [-math.inf, -1.0, 0.0]]
    assert math.isnan(nk.determinant(rows))
    assert type(nk.determinant([[2.0, 1.0], [1.0, 2.0]])) is float
