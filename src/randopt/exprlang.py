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
``-(x1^2)``.  A number or an exponent that overflows a float, such as
``1e400``, is a ParseError at its offset, as the document schema rejects
``1e400`` as a number.

Evaluation has one lowering and one runner.  ``_Compiler`` lowers a
bundle of trees (an objective, its n partial derivatives, or its n^2
second partials) to one list of steps: a value step per distinct node,
and the checks as steps of their own.  Nodes are hash-consed bottom-up by
node type, the names of their children and their payload; a number is
keyed by its type and its bits, since ``Num(0.0) == Num(-0.0)``.  Steps
follow the order of a walk of each tree in turn: operands left before
right, except that a quotient computes its denominator, checks it for
zero, and only then computes its numerator.  A value is reused only where
that walk computed it earlier.  Every check of the walk is kept: division
by zero, the log and sqrt domains, overflow, and a finite result after
every node other than a leaf or a negation.

``_Compiler.run_rows`` runs the steps on rows given as one column per
variable and one per parameter (of one element or one per row), with
numpy's array kernels: a failing check clears its rows in a mask, leaves
are one-element arrays that broadcast (a constant's built once per
lowering and read-only, so each evaluator copies its results out), and
each value is freed after its last use.  It skips the finite check of a
value that only ``+ - *`` steps read (``covered``): those steps give a
non-finite operand a non-finite value, which their own checks catch.
``eval_batch`` runs it on the columns of an array, ``eval_rows`` on rows
of inputs and parameters, and ``eval_grid`` on the axes of a grid, or of
a stack of equal-shaped grids each with its own parameters, each axis
shaped to broadcast along its own dimension, with the mask in the grid's
(or stack's) shape.  Each reads every parameter as a float
(``_param_columns``), so a bool or an int gets float arithmetic.

A scalar call (``evaluate``, and ``randfunc``'s ``eval_f``, ``gradient``
and ``hessian``) is a one-row run of the same steps (``eval_row``).  It
skips no check, so the first check that fails is the walk's, and it
raises that check's error with the walk's exception class and message,
an operand in a message as a plain float: "division by zero", "zero
raised to a negative power", "log of non-positive value ...", "sqrt of
negative value ...", and, where a power or ``exp`` of a finite operand
is not finite, "overflow in power" or "overflow in function
application"; any other value that is not finite is a "non-finite
intermediate result".  Where every check passes it returns the values as
floats.  So ``eval_rows`` finds a row valid exactly where the scalar call
returns, with its values, and a caller that needs a failing row's error
replays the row as a scalar call.

``_Compiler.run_bounds`` runs the same steps on intervals, one row per
box of inputs, and ``eval_bounds`` returns per box a lower bound on the
value at every valid point and whether every check is proved to pass
throughout; the parameters are shared by every box or given per box.  It
bounds loads, constants, negation, ``+ - * /`` and squares, each rounded
outward by one ulp, so a bound holds the floats the runners compute; a
bundle with any other step (``exp``, ``log``, ``sin``, ``cos``, ``sqrt`` or
another power) is not ``bounded``, and a box scan of it evaluates every
node.

Every runner takes its bits from one place.  ``+ - * /``, negation and
``sqrt`` are correctly rounded.  A square ``u^2`` is one multiplication
``u * u`` (``np.square``), also where ``pow_`` folds a constant.
``exp``, ``log``, ``sin``, ``cos`` and every other power are numpy's
(``np.power`` with the exponent as a float), and so is ``pow_``'s fold.
These are numpy's bits on the host it runs on: numpy's exp is not
correctly rounded, and numpy picks its SIMD loop by CPU, so what the
tests pin is that the runners agree, not a libm's bits.  Every runner
calls numpy under an ``errstate``, so no warning escapes.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
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

    @cached_property
    def lowered(self) -> "_Compiler":
        """The steps of ``root``, lowered on first use; see ``evaluate``."""
        return _Compiler((self.root,))


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
        if exponent == 2:
            v = base.value * base.value  # as every evaluator squares
        else:
            with np.errstate(all="ignore"):  # as every evaluator powers
                v = float(np.power(base.value, float(exponent)))
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


def _finite_literal(tok: _Token, what: str) -> float:
    """The float of a number token; ParseError where it overflows to inf."""
    value = float(tok.text)
    if math.isinf(value):
        raise ParseError(f"{what} overflows a float", tok.offset)
    return value


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
            _finite_literal(tok, "integer exponent")
            # a finite float has at most 309 integral digits, within int()'s limit
            return sign * int(tok.text.lstrip("0") or "0")
        raise ParseError(
            f"expected integer exponent, found {tok.text or 'end of input'!r}",
            tok.offset,
            expected=("integer",),
        )

    def base(self) -> Node:
        tok = self.advance()
        if tok.kind == "num":
            return Num(_finite_literal(tok, "number"))
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


# --- evaluation ----------------------------------------------------------------

_OPERATORS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


class _Cleared(Exception):
    """A one-row run's row failed a check."""


class _OneRow:
    """The mask of a one-row run: where a check clears its row, ``&=``
    raises ``_Cleared``, so the run stops at the first check that fails."""

    def __iand__(self, ok: np.ndarray) -> "_OneRow":
        if ok[0]:
            return self
        raise _Cleared


_ONE_ROW = _OneRow()
# the value steps whose finite check tells an overflow, by what overflowed
_OVERFLOWS = {"**": "power", "exp": "function application"}


class _Compiler:
    """A bundle of trees lowered to steps ``(op, out, args, extra)``.

    Value steps compute ``out`` from the values named in ``args``; "x" and
    "p" load input ``extra``, and "**" raises to the float constant
    ``extra``, which ``squares`` tells apart.
    Check steps, "nonzero" (message ``extra``) and "finite", test their
    one argument and have no ``out``."""

    def __init__(self, roots: Sequence[Node]):
        self.steps: list[tuple] = []
        self.constants: dict[str, object] = {}  # generated name -> value
        self.names: dict[tuple, str] = {}  # hash-consing key -> generated name
        self.seen: dict[int, str] = {}  # id(node) -> generated name
        self.nonzero: set[str] = set()  # names that passed a zero check
        self.results = tuple(self.visit(root) for root in roots)
        # dead[i]: the values that step i reads for the last time
        last = {name: i for i, step in enumerate(self.steps) for name in step[2]}
        self.dead: list[list[str]] = [[] for _ in self.steps]
        for name, i in last.items():
            if name not in self.results:
                self.dead[i].append(name)
        # covered: the finite checks that run_rows skips, of a value that is
        # no result and that only + - * steps read.  A non-finite operand
        # makes their values non-finite (inf - inf and inf * 0 are NaN), and
        # each of them is checked, so a row fails the same checks.
        readers: dict[str, set] = {}
        for op, _, args, _ in self.steps:
            for name in args:
                readers.setdefault(name, set()).add(op)
        self.covered: set[int] = set()
        for i, (op, _, args, _) in enumerate(self.steps):
            if op == "finite" and args[0] not in self.results:
                ops = readers[args[0]] - {"finite"}
                if ops and ops <= {"+", "-", "*"}:
                    self.covered.add(i)

    def constant(self, value) -> str:
        # keyed by type and bits: Num(0.0) == Num(-0.0), yet they differ
        bits = struct.pack("<d", value) if isinstance(value, float) else value
        key = (Num, type(value), bits)
        if key not in self.names:
            self.names[key] = f"c{len(self.names)}"
            self.constants[self.names[key]] = value
        return self.names[key]

    def squares(self, extra: str) -> bool:
        """Whether the "**" step with constant ``extra`` squares."""
        return self.constants[extra] == 2

    def check_nonzero(self, name: str, message: str) -> None:
        # a value that passed one zero check passes every later one
        if name not in self.nonzero:
            self.nonzero.add(name)
            self.steps.append(("nonzero", None, (name,), message))

    def visit(self, node: Node) -> str:
        name = self.seen.get(id(node))
        if name is None:
            name = self.seen[id(node)] = self.intern(node)
        return name

    def intern(self, node: Node) -> str:
        """Visit the children in evaluation order, then lower ``node``
        unless a node with the same key was lowered before."""
        kind = type(node)
        if kind is Num:
            return self.constant(node.value)
        if kind is Var or kind is Param:
            key = (kind, operator.index(node.index) - 1)
        elif kind is Neg:
            key = (kind, self.visit(node.arg))
        elif kind is Call:
            key = (kind, self.visit(node.arg), node.func)
        elif kind is Pow:
            key = (kind, self.visit(node.base), self.constant(float(node.exponent)))
        elif kind is Div:
            right = self.visit(node.right)  # the denominator and its check first
            self.check_nonzero(right, "division by zero")
            key = (kind, self.visit(node.left), right)
        elif kind in _OPERATORS:
            key = (kind, self.visit(node.left), self.visit(node.right))
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown node {node!r}")
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = f"t{len(self.names)}"
            self.lower(node, name, *key)
        return name

    def lower(self, node: Node, t: str, kind: type, a, b=None) -> None:
        """The steps computing ``node`` into ``t`` from operands a, b; every
        node other than a leaf or a negation is checked finite."""
        if kind is Var or kind is Param:
            self.steps.append(("x" if kind is Var else "p", t, (), a))
            return
        if kind is Neg:
            self.steps.append(("neg", t, (a,), None))
            return
        if kind in _OPERATORS:
            self.steps.append((_OPERATORS[kind], t, (a, b), None))
        elif kind is Pow:
            if node.exponent < 0:
                self.check_nonzero(a, "zero raised to a negative power")
            self.steps.append(("**", t, (a,), b))
        else:  # Call
            self.steps.append((b, t, (a,), None))
        self.steps.append(("finite", None, (t,), None))

    def run_rows(self, X: Sequence, P: Sequence, valid) -> list:
        """The steps on rows, with ``X[j]`` the column of variable j and
        ``P[j]`` that of parameter j (one element, or one per row), with
        numpy's array kernels; a failed check clears its rows in ``valid``.
        Returns the values of the results, each of one element or one per
        row.  Constants are the read-only arrays of ``constant_rows``,
        shared by every run, so a result may be one of them: each caller
        copies the results out.  Columns only need to broadcast with
        ``valid``, so a grid's axes can stand for its rows (``eval_grid``).
        The checks in ``covered`` are skipped: a later check clears the same
        rows.

        Where ``valid`` is ``_ONE_ROW`` (``eval_row``), the run is of one
        row, skips no check and frees no value, and the first check that
        clears the row raises its error (``error``)."""
        env = dict(self.constant_rows)
        if valid is _ONE_ROW:
            skip, frees = (), repeat(())
        else:
            skip, frees = self.covered, self.dead
        try:
            for i, ((op, t, args, extra), dead) in enumerate(zip(self.steps, frees)):
                if op == "finite":
                    if i not in skip:
                        valid &= np.isfinite(env[args[0]])
                elif op == "nonzero":
                    valid &= ~(env[args[0]] == 0.0)
                elif op == "x":
                    env[t] = X[extra]
                elif op == "p":
                    env[t] = P[extra]
                elif op == "**":
                    a = env[args[0]]
                    env[t] = np.square(a) if self.squares(extra) else np.power(a, self.constants[extra])
                elif op == "log":
                    a = env[args[0]]
                    valid &= a > 0.0
                    env[t] = np.log(np.where(a > 0.0, a, 1.0))
                elif op == "sqrt":
                    a = env[args[0]]
                    valid &= a >= 0.0
                    env[t] = np.sqrt(np.where(a >= 0.0, a, 0.0))
                else:
                    env[t] = _ARRAY_KERNELS[op](*[env[a] for a in args])
                for name in dead:
                    del env[name]
        except _Cleared:
            raise self.error(self.steps[i], env) from None
        return [env[name] for name in self.results]

    def error(self, step: tuple, env: dict) -> EvalError:
        """The error of the check in ``step`` where it fails on the one row
        of ``env``, every value of the run kept: a zero check's message; a
        domain's, with its operand as a plain float; an overflow where a
        finite check fails on the value of a power or ``exp`` of a finite
        operand; else a non-finite result (a NaN operand of ``log`` or
        ``sqrt`` too, whose value is NaN)."""
        op, _, (name,), extra = step
        if op == "nonzero":
            return DivByZero(extra)
        a = float(env[name][0])
        if op == "log" and a <= 0.0:
            return DomainViolation(f"log of non-positive value {a!r}")
        if op == "sqrt" and a < 0.0:
            return DomainViolation(f"sqrt of negative value {a!r}")
        if op == "finite":
            made, _, args, _ = next(s for s in self.steps if s[1] == name)
            if made in _OVERFLOWS and math.isfinite(env[args[0]][0]):
                return DomainViolation(f"overflow in {_OVERFLOWS[made]}")
        return DomainViolation("non-finite intermediate result")

    @cached_property
    def constant_rows(self) -> dict[str, np.ndarray]:
        """Each constant as a one-element array of the dtype ``np.full``
        gives it, built once and read-only; every run starts from them."""
        rows = {}
        for name, value in self.constants.items():
            rows[name] = np.full(1, value)
            rows[name].flags.writeable = False
        return rows

    @cached_property
    def bounded(self) -> bool:
        """Whether ``run_bounds`` bounds every step: loads, constants,
        ``neg + - * /``, squares and the two checks, and no other step."""
        return all(
            op in _BOUNDED or (op == "**" and self.squares(extra))
            for op, _, _, extra in self.steps
        )

    def run_bounds(
        self, lower: Sequence, upper: Sequence, P: Sequence, proved: np.ndarray
    ) -> list:
        """Interval bounds of the ``bounded`` steps on boxes, one row per
        box: variable j lies in [``lower[j]``, ``upper[j]``] and parameter j
        is ``P[j]``, each of one element or one per box.  Returns, per
        result, a lower bound on the value that ``run_rows`` computes at
        every point of a box where every check passes; ``proved`` keeps the
        boxes where every check is proved to pass at every point.

        Each step bounds the floats it computes, not only the real values:
        the ends of a sum, difference, product or quotient are the ends' own
        results widened by one ulp outward (``np.nextafter``), and float
        rounding is monotone.  A square's lower end is 0 where its interval
        holds 0.  A denominator is never 0 at a valid point, so where its
        interval holds 0 as an end the quotient has one sign, and where it
        holds 0 inside, no bound.  A NaN end (inf - inf, 0 * inf) stands for
        no bound: arithmetic carries it, and no comparison with it proves
        anything.  A finite check is proved where both ends are finite, a
        zero check where the interval excludes 0.  The checks in ``covered``
        are skipped, as in ``run_rows``: an operand of ``+ - *`` with an
        end that is not finite gives an end that is not finite, which a
        later check sees.  Each end is freed after its last use.  A
        constant's two ends are its array of ``constant_rows``."""
        lo = dict(self.constant_rows)
        hi = dict(lo)
        for i, ((op, t, args, extra), dead) in enumerate(zip(self.steps, self.dead)):
            if op == "finite":
                if i not in self.covered:
                    proved &= np.isfinite(lo[args[0]]) & np.isfinite(hi[args[0]])
            elif op == "nonzero":
                proved &= (lo[args[0]] > 0.0) | (hi[args[0]] < 0.0)
            elif op == "x":
                lo[t], hi[t] = lower[extra], upper[extra]
            elif op == "p":
                lo[t] = hi[t] = P[extra]
            elif op == "neg":  # exact
                lo[t], hi[t] = -hi[args[0]], -lo[args[0]]
            else:
                lo[t], hi[t] = _interval(op, lo, hi, args)
            for name in dead:
                del lo[name], hi[name]
        return [lo[name] for name in self.results]


def _interval(op: str, lo: dict, hi: dict, args: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The ends of a square or of ``+ - * /`` on the intervals of ``args``,
    each widened by one ulp outward; see ``_Compiler.run_bounds``."""
    al, ah = lo[args[0]], hi[args[0]]
    if op == "**":  # a square, never below 0
        low = np.where(al > 0.0, al * al, np.where(ah < 0.0, ah * ah, 0.0))
        high = np.maximum(al * al, ah * ah)
        return np.maximum(np.nextafter(low, -np.inf), 0.0), np.nextafter(high, np.inf)
    bl, bh = lo[args[1]], hi[args[1]]
    if op == "+":
        low, high = al + bl, ah + bh
    elif op == "-":
        low, high = al - bh, ah - bl
    else:
        kernel = _ARRAY_KERNELS[op]
        ends = [kernel(u, v) for u in (al, ah) for v in (bl, bh)]
        low = np.minimum(np.minimum(ends[0], ends[1]), np.minimum(ends[2], ends[3]))
        high = np.maximum(np.maximum(ends[0], ends[1]), np.maximum(ends[2], ends[3]))
        if op == "/":
            # the corners where the denominator's interval excludes 0; where
            # it holds 0 as its lower (upper) end, a valid denominator is
            # positive (negative), and a numerator of one sign gives one end
            apart = (bl > 0.0) | (bh < 0.0)
            up, down = (bl == 0.0) & (bh > 0.0), (bh == 0.0) & (bl < 0.0)
            low = np.where(apart, low, np.where(up & (al >= 0.0), al / bh, -np.inf))
            low = np.where(down & (ah <= 0.0), ah / bl, low)
            high = np.where(apart, high, np.where(up & (ah <= 0.0), ah / bh, np.inf))
            high = np.where(down & (al >= 0.0), al / bl, high)
    return np.nextafter(low, -np.inf), np.nextafter(high, np.inf)


# the steps that run_bounds bounds, besides squares
_BOUNDED = frozenset({"x", "p", "neg", "+", "-", "*", "/", "finite", "nonzero"})

_ARRAY_KERNELS = {"neg": operator.neg, "+": operator.add, "-": operator.sub,
                  "*": operator.mul, "/": operator.truediv,
                  "sin": np.sin, "cos": np.cos, "exp": np.exp}


def evaluate(e: Expression, env: Env) -> float:
    """Evaluate ``e`` at ``env`` as a float; raises EvalError rather than
    returning a non-finite number.  See ``eval_row``."""
    return eval_row(e.lowered, e.n, e.k, env.x, env.p)[0]


def eval_row(c: _Compiler, n: int, k: int, x: Sequence, p: Sequence) -> list[float]:
    """The lowered trees ``c`` over x1..xn and p1..pk at the point ``x``
    with the parameters ``p``, each read as a float: a one-row run of the
    steps, which returns their values as floats, or raises the error of the
    first check that fails, as a walk of the trees one after another would
    (see the module docstring)."""
    if len(x) != n:
        raise ValueError(f"env.x has length {len(x)}, expected {n}")
    if len(p) != k:
        raise ValueError(f"env.p has length {len(p)}, expected {k}")
    columns = list(np.array([*x, *p], dtype=float).reshape(-1, 1))
    with np.errstate(all="ignore"):
        results = c.run_rows(columns[:n], columns[n:], _ONE_ROW)
    return [float(v[0]) for v in results]


def _param_columns(p, trailing: int = 0) -> list[np.ndarray]:
    """Each parameter as a column, read as a float as a scalar call reads
    it, so a bool or an int gets float arithmetic: of one element where
    ``p`` is one vector, and of one element per row, followed by
    ``trailing`` axes of length 1, where it is a (rows, k) matrix."""
    if np.ndim(p) == 2:
        return [np.reshape(c, (-1,) + (1,) * trailing) for c in np.asarray(p, dtype=float).T]
    return [np.full(1, float(v)) for v in p]


def _require_params(e: Expression, p) -> None:
    if np.shape(p)[-1] != e.k:
        raise ValueError(f"p has length {np.shape(p)[-1]}, expected {e.k}")


def eval_batch(
    e: Expression, X: np.ndarray, p: Sequence[float] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``e`` at every row of ``X`` (shape (N, n)).

    Returns ``(values, valid)`` where ``valid[i]`` is False whenever
    ``evaluate`` raises at row i (domain violations, division by zero,
    overflow), and ``values[i]`` is its value elsewhere, NaN there.  It
    runs the steps of ``evaluate``, lowered once into ``e.lowered``; see
    the module docstring for the leaves and frees.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != e.n:
        raise ValueError(f"X must have shape (N, {e.n})")
    _require_params(e, p)
    valid = np.ones(X.shape[0], dtype=bool)
    with np.errstate(all="ignore"):
        values = e.lowered.run_rows(X.T, _param_columns(p), valid)[0]
    return np.where(valid, values, np.nan), valid


def eval_grid(
    e: Expression, axes: Sequence[np.ndarray], p=()
) -> tuple[np.ndarray, np.ndarray]:
    """``eval_batch`` at the nodes of the grid with these ``axes``, one per
    variable, in the order of ``meshgrid(*axes, indexing="ij")`` raveled.

    Axis i is loaded shaped (1, ..., m_i, ..., 1) and the mask has the
    grid's shape, so a step computes the grid's full shape only from the
    first step that mixes axes on; before it, a step computes one value
    per node of the axes it depends on.

    Where each axis is a (K, m_i) array, the grid is a stack of K grids of
    one shape: grid j has the axes' rows j, and the parameters ``p``, k
    floats, or row j of a (K, k) matrix.  Axis i is then loaded shaped
    (K, 1, ..., m_i, ..., 1) and each parameter of a matrix (K, 1, ..., 1),
    and the values and mask come back as (K, nodes) arrays, row j that
    grid's, raveled.
    """
    if len(axes) != e.n:
        raise ValueError(f"axes has length {len(axes)}, expected {e.n}")
    _require_params(e, p)
    lead = np.shape(axes[0])[:-1] if axes else ()
    shape = lead + tuple(np.shape(a)[-1] for a in axes)
    columns = [
        np.reshape(a, lead + (1,) * i + (-1,) + (1,) * (e.n - 1 - i)) for i, a in enumerate(axes)
    ]
    valid = np.ones(shape, dtype=bool)
    with np.errstate(all="ignore"):
        values = e.lowered.run_rows(columns, _param_columns(p, e.n), valid)[0]
    flat = lead + (-1,)
    return np.where(valid, values, np.nan).reshape(flat), valid.reshape(flat)


def eval_bounds(
    e: Expression, lower: np.ndarray, upper: np.ndarray, p=()
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of ``e`` on the boxes [``lower[i]``, ``upper[i]``] (rows of
    shape (B, n)), for an expression whose steps are ``bounded``; the
    parameters ``p`` are k floats for every box, or a (B, k) matrix, row i
    for box i.

    Returns ``(least, proved)``, one entry per box: a lower bound on the
    value that ``eval_grid`` or ``eval_batch`` returns at every valid point
    of the box (-inf where there is none), and whether every point of the
    box is proved valid.  See ``_Compiler.run_bounds``.
    """
    _require_params(e, p)
    proved = np.ones(len(lower), dtype=bool)
    with np.errstate(all="ignore"):
        least = e.lowered.run_bounds(lower.T, upper.T, _param_columns(p), proved)[0]
    least = np.broadcast_to(least, proved.shape)
    return np.where(np.isnan(least), -np.inf, least), proved


def eval_rows(c: _Compiler, X: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lowered trees ``c`` at every row x of ``X`` (shape (N, n)) with
    the row p of ``P`` (shape (N, k)) of the same index, as the one-row
    run ``eval_row(c, n, k, x, p)`` evaluates them.  It is the one way to
    evaluate a stack of rows.

    Returns the values, one row of the trees' results per row, and the
    mask of rows where ``eval_row`` returns; the values of the other rows
    are NaN.  Where ``eval_row`` returns, the values are its bits; see the
    module docstring.
    """
    valid = np.ones(len(X), dtype=bool)
    with np.errstate(all="ignore"):
        results = c.run_rows(X.T, P.T, valid)
    out = np.empty((len(X), len(results)))
    for j, values in enumerate(results):
        out[:, j] = values
    if not valid.all():
        out[~valid] = np.nan
    return out, valid


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
    exponent; 0.0 when they are identical.  Parsed literals are finite,
    but a tree built by hand may hold inf, whose gap from itself is NaN;
    that reads as inf.
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

