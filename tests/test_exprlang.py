"""Parser/printer/evaluator tests, including the pretty round-trip fuzz."""

import math

import numpy as np
import pytest

from sasaki_lab import exprlang as el
from sasaki_lab import numkernel as nk

import exprgen


def test_parse_basics():
    e = el.parse("z - p*x")
    assert e == el.Bin("-", el.Var("z"), el.Bin("*", el.Var("p"), el.Var("x")))


def test_precedence_and_unary_minus():
    # unary minus binds at the atom, so -x^2 means (-x)^2
    e = el.parse("-x^2")
    assert e == el.Pow(el.Neg(el.Var("x")), 2)
    assert el.eval_expr(e, {"x": 3.0}) == 9.0
    e2 = el.parse("-(x^2)")
    assert el.eval_expr(e2, {"x": 3.0}) == -9.0


def test_negative_number_folding():
    assert el.parse("-2") == el.Num(-2.0)
    assert el.parse("3 + -2") == el.Bin("+", el.Num(3.0), el.Num(-2.0))


def test_number_formats():
    assert el.parse("1e-09") == el.Num(1e-9)
    assert el.parse(".5") == el.Num(0.5)
    assert el.parse("2.") == el.Num(2.0)


def test_function_calls():
    e = el.parse("sgn(s) * sqrt(abs(s))")
    assert el.eval_expr(e, {"s": -4.0}) == -2.0


def test_parse_errors_carry_offsets():
    with pytest.raises(el.ParseError) as exc:
        el.parse("x + @")
    assert exc.value.pos == 4
    with pytest.raises(el.ParseError):
        el.parse("foo(x)")  # unknown function
    with pytest.raises(el.ParseError):
        el.parse("x ^ y")  # exponent must be an integer literal
    with pytest.raises(el.ParseError):
        el.parse("x + ")
    with pytest.raises(el.ParseError):
        el.parse("(x + 1")


def test_eval_errors():
    with pytest.raises(el.UnboundVariable):
        el.eval_expr(el.parse("x + y"), {"x": 1.0})
    with pytest.raises(el.EvalDomainError):
        el.eval_expr(el.parse("1/x"), {"x": 0.0})
    with pytest.raises(el.EvalDomainError):
        el.eval_expr(el.parse("log(x)"), {"x": -1.0})
    # abs at its kink only fails under differentiation
    assert el.eval_expr(el.parse("abs(x)"), {"x": 0.0}) == 0.0
    tag = nk.new_tag()
    env = {"x": nk.DScalar(0.0, (1.0,), tag)}
    with pytest.raises(el.EvalDomainError):
        el.eval_expr(el.parse("abs(x)"), env)


@pytest.mark.parametrize("values", [[0.5, 0.0], [-0.0, 2.0]])
def test_a_negative_power_of_zero_in_a_batch_is_a_domain_error(values):
    """Like the point at 0.0 on its own, a batch that holds it raises
    `EvalDomainError`, not inf."""
    x_minus_2 = el.parse("x^-2")
    with pytest.raises(el.EvalDomainError):
        el.eval_expr(x_minus_2, {"x": 0.0})
    with pytest.raises(el.EvalDomainError):
        el.eval_expr(x_minus_2, {"x": np.array(values)})


def test_eval_matches_python_oracle():
    cases = [
        ("x*x + 2*x + 1", {"x": 1.5}, (1.5 + 1) ** 2),
        ("sin(x)^2 + cos(x)^2", {"x": 0.77}, 1.0),
        ("exp(log(x))", {"x": 2.5}, 2.5),
        ("x^-2", {"x": 2.0}, 0.25),
        ("(x + y) / (x - y)", {"x": 3.0, "y": 1.0}, 2.0),
    ]
    for src, env, want in cases:
        assert abs(el.eval_expr(el.parse(src), env) - want) < 1e-12


def test_pretty_round_trip_fuzz():
    """parse(pretty(e)) == e structurally, over 2000 random ASTs."""
    rng = np.random.default_rng(1234)
    for _ in range(2000):
        e = exprgen.random_expr(rng, ["x", "y", "s"], depth=int(rng.integers(0, 5)))
        text = el.pretty(e)
        assert el.parse(text) == e, text


def test_pretty_examples_stay_readable():
    assert el.pretty(el.parse("z - p*x")) == "z - p * x"
    assert el.pretty(el.parse("-(x^2)")) == "-(x^2)"
    assert el.pretty(el.parse("-x^2")) == "-x^2"
    assert el.pretty(el.parse("a/(b*c)")) == "a / (b * c)"


def test_dual_eval_derivative_example():
    """d/dx of sgn(x)·x² at x=-2 is 2·|x|·sgn… = -4·sgn? No: d(|x|·x)/…

    Direct: f = sgn(x)·x², f' = sgn(x)·2x = -1·-4 = 4 at x=-2."""
    tag = nk.new_tag()
    env = {"x": nk.DScalar(-2.0, (1.0,), tag)}
    out = el.eval_expr(el.parse("sgn(x) * x^2"), env)
    assert nk.value_of(out) == -4.0
    assert nk.tangent_at(out, tag, 0) == 4.0


def test_free_vars_and_rename():
    e = el.parse("sin(x) * y + z^2")
    assert el.free_vars(e) == {"x", "y", "z"}


def test_fuzz_eval_never_crashes_unexpectedly():
    """Random exprs either evaluate to a finite float or raise the
    documented domain error — nothing else."""
    rng = np.random.default_rng(77)
    ok, domain = 0, 0
    for _ in range(500):
        e = exprgen.random_expr(rng, ["x", "y"], depth=3)
        env = exprgen.random_env(rng, ["x", "y"])
        try:
            v = el.eval_expr(e, env)
            assert isinstance(v, float) and math.isfinite(v)
            ok += 1
        except el.EvalDomainError:
            domain += 1
    assert ok > 300  # the generator keeps most samples in-domain
