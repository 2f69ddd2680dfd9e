"""Expression language for objectives and constraints.

Grammar (recursive descent, left-associative ``+ - * /``)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' ['-'] digits)?
    base   := NUMBER | IDENT | FUNC '(' expr ')' | '(' expr ')'

Identifiers are decision variables ``x1..xn``, scenario parameters
``p1..pk``, and the functions ``sin cos exp log sqrt``.  Exponents are
integer literals, which keeps symbolic differentiation closed over the
language.  ``^`` binds tighter than unary minus, so ``-x1^2`` is
``-(x1^2)``.

Printed form uses minimal parentheses; ``parse(str(e))`` rebuilds the
identical tree for every tree this module produces.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import DimensionError, DivByZero, DomainViolation, EvalError, ParseError

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


# --- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Param:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Div:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Var, Param, Neg, Add, Sub, Mul, Div, Pow, Call]


@dataclass(frozen=True)
class Expression:
    """An expression tree together with its declared dimensions."""

    root: Node
    n: int  # decision dimension (x1..xn)
    k: int  # parameter dimension (p1..pk)

    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True)
class Env:
    """Evaluation point: decision vector x and scenario parameters p."""

    x: tuple[float, ...]
    p: tuple[float, ...] = ()


# --- smart constructors (constant folding) -----------------------------------

def _finite(v: float) -> bool:
    return math.isfinite(v)


def num(v: float) -> Num:
    return Num(float(v))


def add(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and isinstance(b, Num) and _finite(a.value + b.value):
        return Num(a.value + b.value)
    if isinstance(a, Num) and a.value == 0.0:
        return b
    if isinstance(b, Num) and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and isinstance(b, Num) and _finite(a.value - b.value):
        return Num(a.value - b.value)
    if isinstance(b, Num) and b.value == 0.0:
        return a
    if isinstance(a, Num) and a.value == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and isinstance(b, Num) and _finite(a.value * b.value):
        return Num(a.value * b.value)
    if isinstance(a, Num):
        if a.value == 0.0:
            return Num(0.0)
        if a.value == 1.0:
            return b
        # pull nested constants together: c * (c' * e) -> (c c') * e
        if isinstance(b, Mul) and isinstance(b.left, Num) and _finite(a.value * b.left.value):
            return mul(Num(a.value * b.left.value), b.right)
    if isinstance(b, Num):
        if b.value == 0.0:
            return Num(0.0)
        if b.value == 1.0:
            return a
    return Mul(a, b)


def div(a: Node, b: Node) -> Node:
    if (
        isinstance(a, Num)
        and isinstance(b, Num)
        and b.value != 0.0
        and _finite(a.value / b.value)
    ):
        return Num(a.value / b.value)
    if isinstance(a, Num) and a.value == 0.0 and not (isinstance(b, Num) and b.value == 0.0):
        return Num(0.0)
    if isinstance(b, Num) and b.value == 1.0:
        return a
    return Div(a, b)


def neg(a: Node) -> Node:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_(base: Node, exponent: int) -> Node:
    if exponent == 0:
        return Num(1.0)
    if exponent == 1:
        return base
    if isinstance(base, Num):
        if base.value == 0.0 and exponent < 0:
            return Pow(base, exponent)  # keep: eval must raise DivByZero
        v = base.value ** exponent
        if _finite(v):
            return Num(v)
    return Pow(base, exponent)


def call(func: str, arg: Node) -> Node:
    return Call(func, arg)


# --- parsing -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z]+\d*)"
    r"|(?P<op>[-+*/^()])"
)

_VAR_RE = re.compile(r"^x(\d+)$")
_PARAM_RE = re.compile(r"^p(\d+)$")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    offset: int


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        yield _Token(kind, m.group(), pos)
        pos = m.end()
    yield _Token("end", "", len(text))


class _Parser:
    def __init__(self, text: str, n: int, k: int):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.n = n
        self.k = k

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            self.advance()
            return
        raise ParseError(
            f"expected {op!r}, found {tok.text or 'end of input'!r}",
            tok.offset,
            expected=(repr(op),),
        )

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                f"unexpected token {tok.text!r} after expression",
                tok.offset,
                expected=("'+'", "'-'", "'*'", "'/'", "end of input"),
            )
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if tok.text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if tok.text == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            inner = self.factor()
            # fold a negated literal so printed negative numbers round-trip
            if isinstance(inner, Num):
                return Num(-inner.value)
            return Neg(inner)
        base = self.base()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return Pow(base, self.int_literal())
        return base

    def int_literal(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok.kind == "num" and tok.text.isdigit():
            self.advance()
            return sign * int(tok.text)
        raise ParseError(
            f"expected integer exponent, found {tok.text or 'end of input'!r}",
            tok.offset,
            expected=("integer",),
        )

    def base(self) -> Node:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "ident":
            m = _VAR_RE.match(tok.text)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= self.n:
                    raise DimensionError("x", idx, self.n, tok.offset)
                return Var(idx)
            m = _PARAM_RE.match(tok.text)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= self.k:
                    raise DimensionError("p", idx, self.k, tok.offset)
                return Param(idx)
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            raise ParseError(
                f"unknown identifier {tok.text!r}",
                tok.offset,
                expected=("x<i>", "p<i>") + FUNCTIONS,
            )
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(
            f"expected expression, found {tok.text or 'end of input'!r}",
            tok.offset,
            expected=("number", "identifier", "'('", "'-'"),
        )


def parse(text: str, n: int, k: int = 0) -> Expression:
    """Parse ``text`` into an expression over x1..xn and p1..pk."""
    return Expression(_Parser(text, n, k).parse(), n, k)


# --- printing ----------------------------------------------------------------

_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 25
_PREC_POW = 30
_PREC_ATOM = 100


def _prec(node: Node) -> int:
    if isinstance(node, (Add, Sub)):
        return _PREC_ADD
    if isinstance(node, (Mul, Div)):
        return _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _render(node: Node) -> str:
    if isinstance(node, Num):
        return _fmt_number(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Param):
        return f"p{node.index}"
    if isinstance(node, Call):
        return f"{node.func}({_render(node.arg)})"
    if isinstance(node, Neg):
        inner = _render(node.arg)
        if _prec(node.arg) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Pow):
        base = _render(node.base)
        plain = isinstance(node.base, (Var, Param, Call)) or (
            isinstance(node.base, Num) and node.base.value >= 0
        )
        if not plain:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    # binary operators: parenthesize right children of equal precedence so
    # the left-associative grammar rebuilds the identical tree
    op, prec = {
        Add: (" + ", _PREC_ADD),
        Sub: (" - ", _PREC_ADD),
        Mul: ("*", _PREC_MUL),
        Div: ("/", _PREC_MUL),
    }[type(node)]
    left = _render(node.left)
    if _prec(node.left) < prec:
        left = f"({left})"
    right = _render(node.right)
    if _prec(node.right) <= prec:
        right = f"({right})"
    return f"{left}{op}{right}"


def to_string(e: Expression) -> str:
    """Minimal-parentheses source form; reparses to the identical tree."""
    return _render(e.root)


# --- evaluation ----------------------------------------------------------------

def _eval_node(node: Node, x: Sequence[float], p: Sequence[float]) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x[node.index - 1]
    if isinstance(node, Param):
        return p[node.index - 1]
    if isinstance(node, Neg):
        return -_eval_node(node.arg, x, p)
    if isinstance(node, Add):
        v = _eval_node(node.left, x, p) + _eval_node(node.right, x, p)
    elif isinstance(node, Sub):
        v = _eval_node(node.left, x, p) - _eval_node(node.right, x, p)
    elif isinstance(node, Mul):
        v = _eval_node(node.left, x, p) * _eval_node(node.right, x, p)
    elif isinstance(node, Div):
        denom = _eval_node(node.right, x, p)
        if denom == 0.0:
            raise DivByZero("division by zero")
        v = _eval_node(node.left, x, p) / denom
    elif isinstance(node, Pow):
        base = _eval_node(node.base, x, p)
        if base == 0.0 and node.exponent < 0:
            raise DivByZero("zero raised to a negative power")
        try:
            v = base ** node.exponent
        except OverflowError:
            raise DomainViolation("overflow in power") from None
    elif isinstance(node, Call):
        arg = _eval_node(node.arg, x, p)
        try:
            if node.func == "sin":
                v = math.sin(arg)
            elif node.func == "cos":
                v = math.cos(arg)
            elif node.func == "exp":
                v = math.exp(arg)
            elif node.func == "log":
                if arg <= 0.0:
                    raise DomainViolation(f"log of non-positive value {arg!r}")
                v = math.log(arg)
            else:  # sqrt
                if arg < 0.0:
                    raise DomainViolation(f"sqrt of negative value {arg!r}")
                v = math.sqrt(arg)
        except OverflowError:
            raise DomainViolation("overflow in function application") from None
    else:  # pragma: no cover - exhaustive
        raise TypeError(f"unknown node {node!r}")
    if not math.isfinite(v):
        raise DomainViolation("non-finite intermediate result")
    return v


def evaluate(e: Expression, env: Env) -> float:
    """Evaluate ``e`` at ``env``; raises EvalError rather than returning
    a non-finite number."""
    if len(env.x) != e.n:
        raise ValueError(f"env.x has length {len(env.x)}, expected {e.n}")
    if len(env.p) != e.k:
        raise ValueError(f"env.p has length {len(env.p)}, expected {e.k}")
    return _eval_node(e.root, env.x, env.p)


def eval_batch(
    e: Expression, X: np.ndarray, p: Sequence[float] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``e`` at every row of ``X`` (shape (N, n)).

    Returns ``(values, valid)`` where ``valid[i]`` is False whenever the
    scalar evaluator would have raised at row i (domain violations,
    division by zero, overflow).  Invalid entries of ``values`` are NaN.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != e.n:
        raise ValueError(f"X must have shape (N, {e.n})")
    if len(p) != e.k:
        raise ValueError(f"p has length {len(p)}, expected {e.k}")
    N = X.shape[0]
    invalid = np.zeros(N, dtype=bool)
    values = _eval_rows(e.root, X, p, invalid, N)
    values = np.where(invalid, np.nan, values)
    return values, ~invalid


def _eval_rows(
    node: Node, X: np.ndarray, p: Sequence[float], invalid: np.ndarray, N: int
) -> np.ndarray:
    """Values of ``node`` at the N rows of ``X``; rows where evaluation
    fails are set in ``invalid``.  A plain function rather than a closure,
    so a call leaves no reference cycle holding ``X`` and ``invalid``."""
    if isinstance(node, Num):
        return np.full(N, node.value)
    if isinstance(node, Var):
        return X[:, node.index - 1].copy()
    if isinstance(node, Param):
        return np.full(N, p[node.index - 1])
    rows = (X, p, invalid, N)
    if isinstance(node, Neg):
        return -_eval_rows(node.arg, *rows)
    with np.errstate(all="ignore"):
        if isinstance(node, Add):
            v = _eval_rows(node.left, *rows) + _eval_rows(node.right, *rows)
        elif isinstance(node, Sub):
            v = _eval_rows(node.left, *rows) - _eval_rows(node.right, *rows)
        elif isinstance(node, Mul):
            v = _eval_rows(node.left, *rows) * _eval_rows(node.right, *rows)
        elif isinstance(node, Div):
            denom = _eval_rows(node.right, *rows)
            invalid[denom == 0.0] = True
            v = _eval_rows(node.left, *rows) / denom
        elif isinstance(node, Pow):
            base = _eval_rows(node.base, *rows)
            if node.exponent < 0:
                invalid[base == 0.0] = True
            v = base ** float(node.exponent)
        elif isinstance(node, Call):
            arg = _eval_rows(node.arg, *rows)
            if node.func == "sin":
                v = np.sin(arg)
            elif node.func == "cos":
                v = np.cos(arg)
            elif node.func == "exp":
                v = np.exp(arg)
            elif node.func == "log":
                invalid[arg <= 0.0] = True
                v = np.log(np.where(arg > 0.0, arg, 1.0))
            else:  # sqrt
                invalid[arg < 0.0] = True
                v = np.sqrt(np.where(arg >= 0.0, arg, 0.0))
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown node {node!r}")
    invalid[~np.isfinite(v)] = True
    return v


# --- differentiation -----------------------------------------------------------

def _diff(node: Node, var: int) -> Node:
    if isinstance(node, Num) or isinstance(node, Param):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.index == var else Num(0.0)
    if isinstance(node, Neg):
        return neg(_diff(node.arg, var))
    if isinstance(node, Add):
        return add(_diff(node.left, var), _diff(node.right, var))
    if isinstance(node, Sub):
        return sub(_diff(node.left, var), _diff(node.right, var))
    if isinstance(node, Mul):
        return add(
            mul(_diff(node.left, var), node.right),
            mul(node.left, _diff(node.right, var)),
        )
    if isinstance(node, Div):
        return div(
            sub(
                mul(_diff(node.left, var), node.right),
                mul(node.left, _diff(node.right, var)),
            ),
            pow_(node.right, 2),
        )
    if isinstance(node, Pow):
        du = _diff(node.base, var)
        return mul(mul(num(node.exponent), pow_(node.base, node.exponent - 1)), du)
    if isinstance(node, Call):
        du = _diff(node.arg, var)
        u = node.arg
        if node.func == "sin":
            return mul(call("cos", u), du)
        if node.func == "cos":
            return neg(mul(call("sin", u), du))
        if node.func == "exp":
            return mul(call("exp", u), du)
        if node.func == "log":
            return div(du, u)
        # sqrt
        return div(du, mul(num(2.0), call("sqrt", u)))
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


def differentiate(e: Expression, var: int) -> Expression:
    """Exact symbolic partial derivative with respect to x<var>."""
    if not 1 <= var <= e.n:
        raise DimensionError("x", var, e.n)
    return Expression(_diff(e.root, var), e.n, e.k)


# --- structural helpers ----------------------------------------------------------

def _subst(node: Node, p: Sequence[float]) -> Node:
    if isinstance(node, Param):
        return Num(float(p[node.index - 1]))
    if isinstance(node, (Num, Var)):
        return node
    if isinstance(node, Neg):
        return neg(_subst(node.arg, p))
    if isinstance(node, Add):
        return add(_subst(node.left, p), _subst(node.right, p))
    if isinstance(node, Sub):
        return sub(_subst(node.left, p), _subst(node.right, p))
    if isinstance(node, Mul):
        return mul(_subst(node.left, p), _subst(node.right, p))
    if isinstance(node, Div):
        return div(_subst(node.left, p), _subst(node.right, p))
    if isinstance(node, Pow):
        return pow_(_subst(node.base, p), node.exponent)
    if isinstance(node, Call):
        return call(node.func, _subst(node.arg, p))
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


def substitute_params(e: Expression, p: Sequence[float]) -> Expression:
    """Replace every parameter with its value, folding constants.

    The result has parameter dimension 0 and compares structurally, which
    is how scenario-indexed level sets are tested for equality.
    """
    if len(p) != e.k:
        raise ValueError(f"p has length {len(p)}, expected {e.k}")
    return Expression(_subst(e.root, p), e.n, 0)


def tree_gap(a: Node, b: Node) -> float:
    """Largest numeric-literal deviation between structurally equal trees.

    Returns ``inf`` when the trees differ in shape, operator, index, or
    exponent; 0.0 when they are identical.
    """
    if type(a) is not type(b):
        return math.inf
    if isinstance(a, Num):
        gap = abs(a.value - b.value)
        return gap if math.isfinite(gap) else math.inf
    if isinstance(a, (Var, Param)):
        return 0.0 if a.index == b.index else math.inf
    if isinstance(a, Neg):
        return tree_gap(a.arg, b.arg)
    if isinstance(a, (Add, Sub, Mul, Div)):
        return max(tree_gap(a.left, b.left), tree_gap(a.right, b.right))
    if isinstance(a, Pow):
        if a.exponent != b.exponent:
            return math.inf
        return tree_gap(a.base, b.base)
    if isinstance(a, Call):
        if a.func != b.func:
            return math.inf
        return tree_gap(a.arg, b.arg)
    raise TypeError(f"unknown node {a!r}")  # pragma: no cover

