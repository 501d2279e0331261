"""Tiny expression language for coordinate formulas.

Corpus data (contact forms, metrics, transition maps, sections) is written
as plain text like ``"z - p*x"`` or ``"sgn(s) * exp(-x^2)"`` and parsed here
into a small AST.  Evaluation is generic over the scalar type: feeding dual
numbers from :mod:`sasaki_lab.numkernel` through `eval_expr` is how every
derivative in the package is taken.

Grammar (precedence climbing, ``^`` binds only to an integer literal):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' integer)?
    atom   := number | ident | ident '(' expr ')' | '(' expr ')' | '-' atom

Known functions: sin cos exp log sqrt abs sgn (all unary).  Unary minus is
part of the atom, so ``-x^2`` is ``(-x)^2`` — the printer keeps track of
this and `pretty` round-trips: ``parse(pretty(e)) == e`` structurally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import numkernel as nk


class ParseError(ValueError):
    """Malformed source text; carries the offset of the offending token."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class UnboundVariable(KeyError):
    """Expression referenced a variable missing from the environment."""


class EvalDomainError(ArithmeticError):
    """Evaluation left a function's domain (log/sqrt/division/kinks)."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Num | Var | Neg | Bin | Pow | Call

FUNCTIONS = {
    "sin": nk.sin,
    "cos": nk.cos,
    "exp": nk.exp,
    "log": nk.log,
    "sqrt": nk.sqrt,
    "abs": nk.absolute,
    "sgn": nk.signum,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = pos + len(src[pos:]) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.next()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text or 'end of input'!r}", pos)

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                node = Bin(text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                node = Bin(text, node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            node = Pow(node, self.integer())
        return node

    def integer(self) -> int:
        sign = 1
        kind, text, pos = self.next()
        if kind == "op" and text == "-":
            sign = -1
            kind, text, pos = self.next()
        if kind != "num" or not re.fullmatch(r"\d+", text):
            raise ParseError("exponent must be an integer literal", pos)
        return sign * int(text)

    def atom(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            k, t, _ = self.peek()
            if k == "op" and t == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and text == "-":
            inner = self.atom()
            if isinstance(inner, Num):
                return Num(-inner.value)
            return Neg(inner)
        raise ParseError(f"expected a value, found {text or 'end of input'!r}", pos)


def parse(src: str) -> Expr:
    """Parse source text to an Expr; raises ParseError with an offset."""
    p = _Parser(src)
    node = p.expr()
    kind, text, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {text!r}", pos)
    return node


def _prec(e: Expr) -> int:
    # 1: + -, 2: * /, 3: ^, 4: atoms (including unary minus chains)
    if isinstance(e, Bin):
        return 1 if e.op in "+-" else 2
    if isinstance(e, Pow):
        return 3
    return 4


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def pretty(e: Expr) -> str:
    """Minimal-paren printer; parse(pretty(e)) == e."""
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({pretty(e.arg)})"
    if isinstance(e, Neg):
        inner = e.arg
        # unary minus applies to an atom; Pow/Bin results need parens
        if isinstance(inner, (Num, Var, Call, Neg)):
            return "-" + pretty(inner)
        return "-(" + pretty(inner) + ")"
    if isinstance(e, Pow):
        base = pretty(e.base)
        # the base must be an atom (negative literals and unary minus are)
        if not isinstance(e.base, (Num, Var, Call, Neg)):
            base = "(" + base + ")"
        return f"{base}^{e.exponent}"
    if isinstance(e, Bin):
        lp = _prec(e.left) < _prec(e)
        left = pretty(e.left)
        if lp:
            left = "(" + left + ")"
        right = pretty(e.right)
        # left-associative grammar: a right operand of equal precedence
        # would re-associate left, so ties get parens too
        if _prec(e.right) <= _prec(e):
            right = "(" + right + ")"
        # a negative right operand parses fine (atom := '-' atom) but only
        # when it is not the bare start of a factor after '^'; always safe here
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an Expr: {e!r}")


def eval_expr(e: Expr, env: dict):
    """Evaluate over whatever scalar type env holds: floats, the float64
    arrays of a batch, or duals of either.  A batch raises
    `FloatingPointError` where a point's float arithmetic would raise."""
    try:
        return _eval(e, env)
    except (
        ZeroDivisionError, ValueError, OverflowError, FloatingPointError, nk.KinkError
    ) as exc:
        raise EvalDomainError(str(exc)) from exc


def _eval(e: Expr, env: dict):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariable(e.name) from None
    if isinstance(e, Neg):
        return -_eval(e.arg, env)
    if isinstance(e, Bin):
        a = _eval(e.left, env)
        b = _eval(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if nk.has_zero(b):
            raise ZeroDivisionError("division by zero")
        return a / b
    if isinstance(e, Pow):
        return nk.powi(_eval(e.base, env), e.exponent)
    if isinstance(e, Call):
        return FUNCTIONS[e.fn](_eval(e.arg, env))
    raise TypeError(f"not an Expr: {e!r}")


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Num):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return free_vars(e.arg)
    if isinstance(e, Bin):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Pow):
        return free_vars(e.base)
    return free_vars(e.arg)

