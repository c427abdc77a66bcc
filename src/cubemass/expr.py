"""Scalar expressions in cube coordinates with exact second-order jets.

The grammar is deliberately tiny: variables ``x``, ``y``, ``z``, the
derived radius ``r = sqrt(x^2 + y^2 + z^2)``, the arithmetic operators
``+ - * / ^``, unary minus, and the functions ``sin cos exp log sqrt
atan``.  Evaluation propagates (value, gradient, Hessian) together, so
metric components written as expressions always come with the exact
first and second coordinate derivatives the curvature kernel needs --
no numerical differentiation anywhere.  A caller that reads no second
derivative, as every cube estimator does, evaluates at first order:
(value, gradient) alone, by the same operations, so they are bitwise
those of the second-order jet and the Hessian work, most of each
product, is skipped (forward mode carries only the orders it reads).

All jet arithmetic broadcasts over a batch of points, which is what
makes quadrature over thousands of nodes cheap; a jet keeps the batch
axes last, so each product-rule operation loops over the batch.
Expressions are evaluated by a :class:`JetProgram`: the expressions of
one model compile once into a flat, hash-consed instruction list, so a
subexpression shared between components (``r`` above all) is evaluated
once per batch.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, ExpressionSyntaxError, NoSecondDerivatives, UnknownIdentifier

VARIABLES = ("x", "y", "z", "r")
FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "atan")

_AXIS_NAMES = ("x", "y", "z")


# ---------------------------------------------------------------------------
# Second-order jets
# ---------------------------------------------------------------------------

@dataclass
class ScalarJet2:
    """Value, gradient and symmetric Hessian of a scalar field.

    Derivatives are stored with the batch axes last: ``value`` is
    ``(...)``, ``d1`` is ``(3, ...)`` and ``d2`` is ``(3, 3, ...)``, so
    every product-rule broadcast runs over contiguous batch-length inner
    loops.  ``gradient`` ``(..., 3)`` and ``hessian`` ``(..., 3, 3)`` are
    C-contiguous batch-first copies of them, the layout the geometry
    kernel reads; ``np.einsum`` sums in an order that follows the strides,
    so a strided view would move its results in the last bit.  The
    arithmetic below is closed to second order and keeps the Hessian
    exactly symmetric.

    A first-order jet has ``d2 = None``: the arithmetic then carries the
    value and gradient alone, by the same floating-point operations as
    at second order, so they are bitwise those of the full jet.
    """

    value: np.ndarray
    d1: np.ndarray
    d2: Optional[np.ndarray]

    @property
    def order(self) -> int:
        return 1 if self.d2 is None else 2

    @property
    def gradient(self) -> np.ndarray:
        return np.ascontiguousarray(np.moveaxis(self.d1, 0, -1))

    @property
    def hessian(self) -> np.ndarray:
        if self.d2 is None:
            raise NoSecondDerivatives("a first-order jet has no Hessian")
        return np.ascontiguousarray(np.moveaxis(self.d2, (0, 1), (-2, -1)))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _as_jet(other, self)
        return ScalarJet2(self.value + other.value,
                          self.d1 + other.d1,
                          None if self.d2 is None else self.d2 + other.d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_jet(other, self)
        return ScalarJet2(self.value - other.value,
                          self.d1 - other.d1,
                          None if self.d2 is None else self.d2 - other.d2)

    def __rsub__(self, other):
        return _as_jet(other, self).__sub__(self)

    def __neg__(self):
        return ScalarJet2(-self.value, -self.d1, None if self.d2 is None else -self.d2)

    def __mul__(self, other):
        other = _as_jet(other, self)
        av, bv = self.value, other.value
        grad = self.d1 * bv
        grad += other.d1 * av
        if self.d2 is None:
            return ScalarJet2(av * bv, grad, None)
        cross = self.d1[:, None] * other.d1[None, :]
        # group the symmetrized cross term so the sum stays bitwise symmetric
        hess = self.d2 * bv
        hess += other.d2 * av
        hess += cross + np.swapaxes(cross, 0, 1)
        return ScalarJet2(av * bv, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * jet_reciprocal(_as_jet(other, self))

    def __rtruediv__(self, other):
        return _as_jet(other, self) * jet_reciprocal(self)

    def __pow__(self, exponent):
        if isinstance(exponent, ScalarJet2):
            return jet_pow(self, exponent)
        p = float(exponent)
        if p.is_integer():
            return jet_ipow(self, int(p))
        return jet_fpow(self, p)


def _as_jet(x, like: ScalarJet2) -> ScalarJet2:
    if isinstance(x, ScalarJet2):
        return x
    return jet_constant(float(x), np.shape(like.value), like.order)


def jet_constant(c, batch_shape=(), order=2):
    return ScalarJet2(np.full(batch_shape, float(c)),
                      np.zeros((3,) + batch_shape),
                      np.zeros((3, 3) + batch_shape) if order == 2 else None)


def coordinate_jet(points, axis, order=2):
    """Jet of the coordinate function x^axis at ``points`` of shape (..., 3)."""
    pts = np.asarray(points, dtype=float)
    batch = pts.shape[:-1]
    grad = np.zeros((3,) + batch)
    grad[axis] = 1.0
    return ScalarJet2(pts[..., axis].copy(), grad,
                      np.zeros((3, 3) + batch) if order == 2 else None)


def radius_jet(points, order=2):
    """Jet of r = |x| at ``points``; the origin is outside the domain."""
    pts = np.asarray(points, dtype=float)
    r = np.sqrt(np.sum(pts * pts, axis=-1))
    if np.any(r == 0.0):
        raise DomainError("r is undefined at the coordinate origin")
    grad = np.ascontiguousarray(np.moveaxis(pts, -1, 0)) / r
    if order == 1:
        return ScalarJet2(r, grad, None)
    eye = np.eye(3).reshape((3, 3) + (1,) * r.ndim)  # broadcasts over the batch
    hess = (eye - grad[:, None] * grad[None, :]) / r
    return ScalarJet2(r, grad, hess)


def _chain(u: ScalarJet2, f0, f1, f2) -> ScalarJet2:
    """Compose u with a scalar function given f(u), f'(u) and a callable
    returning f''(u), which a first-order u never calls."""
    grad = f1 * u.d1
    if u.d2 is None:
        return ScalarJet2(np.asarray(f0), grad, None)
    outer = u.d1[:, None] * u.d1[None, :]
    hess = f1 * u.d2 + f2() * outer
    return ScalarJet2(np.asarray(f0), grad, hess)


def jet_square(u: ScalarJet2) -> ScalarJet2:
    """``u * u`` bit for bit, with each product formed once and doubled.

    Every sum adds the same two operands in the same order as the
    general product rule does, so even NaN payloads agree.
    """
    v = u.value
    grad = u.d1 * v
    grad += grad
    if u.d2 is None:
        return ScalarJet2(v * v, grad, None)
    hess = u.d2 * v
    hess += hess
    outer = u.d1[:, None] * u.d1[None, :]
    outer += outer
    hess += outer
    return ScalarJet2(v * v, grad, hess)


def jet_reciprocal(u: ScalarJet2) -> ScalarJet2:
    v = u.value
    if np.any(v == 0.0):
        raise DomainError("division by zero")
    inv = 1.0 / v
    return _chain(u, inv, -inv * inv, lambda: 2.0 * inv ** 3)


def jet_ipow(u: ScalarJet2, n: int) -> ScalarJet2:
    v = u.value
    if n == 0:
        return jet_constant(1.0, np.shape(v), u.order)
    if n == 1:
        return ScalarJet2(v.copy(), u.d1.copy(), None if u.d2 is None else u.d2.copy())
    if n < 0 and np.any(v == 0.0):
        raise DomainError("zero raised to a negative power")
    return _chain(u, v ** n, n * v ** (n - 1), lambda: n * (n - 1) * v ** (n - 2))


def jet_fpow(u: ScalarJet2, p: float) -> ScalarJet2:
    v = u.value
    if np.any(v <= 0.0):
        raise DomainError("fractional power of a non-positive base")
    return _chain(u, v ** p, p * v ** (p - 1.0), lambda: p * (p - 1.0) * v ** (p - 2.0))


def jet_pow(base: ScalarJet2, exponent: ScalarJet2) -> ScalarJet2:
    if np.any(base.value <= 0.0):
        raise DomainError("power with non-positive base and non-constant exponent")
    return jet_exp(exponent * jet_log(base))


def jet_sin(u):
    return _chain(u, np.sin(u.value), np.cos(u.value), lambda: -np.sin(u.value))


def jet_cos(u):
    return _chain(u, np.cos(u.value), -np.sin(u.value), lambda: -np.cos(u.value))


def jet_exp(u):
    e = np.exp(u.value)
    return _chain(u, e, e, lambda: e)


def jet_log(u):
    v = u.value
    if np.any(v <= 0.0):
        raise DomainError("log of a non-positive value")
    return _chain(u, np.log(v), 1.0 / v, lambda: -1.0 / (v * v))


def jet_sqrt(u):
    v = u.value
    if np.any(v <= 0.0):
        raise DomainError("sqrt of a non-positive value")
    s = np.sqrt(v)
    return _chain(u, s, 0.5 / s, lambda: -0.25 / (v * s))


def jet_atan(u):
    v = u.value
    d = 1.0 + v * v
    return _chain(u, np.arctan(v), 1.0 / d, lambda: -2.0 * v / (d * d))


_FUNCTION_JETS: dict[str, Callable[[ScalarJet2], ScalarJet2]] = {
    "sin": jet_sin, "cos": jet_cos, "exp": jet_exp,
    "log": jet_log, "sqrt": jet_sqrt, "atan": jet_atan,
}


# ---------------------------------------------------------------------------
# Abstract syntax tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


Expression = Union[Num, Var, Neg, BinOp, Call]


# ---------------------------------------------------------------------------
# Parser (recursive descent over the fixed grammar)
# ---------------------------------------------------------------------------

_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = "+-*/^()"


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'ident', one of _OPS, or 'eof'
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUM_RE.match(source, pos)
        if m:
            tokens.append(_Token("num", m.group(), pos))
            pos = m.end()
            continue
        m = _IDENT_RE.match(source, pos)
        if m:
            tokens.append(_Token("ident", m.group(), pos))
            pos = m.end()
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, pos))
            pos += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", pos,
                                    expected=("number", "identifier", "operator"))
    tokens.append(_Token("eof", "", n))
    return tokens


_ATOM_EXPECTED = ("number", "identifier", "'('", "'-'")


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionSyntaxError(f"unexpected {tok.kind!r}", tok.offset,
                                        expected=(f"'{kind}'",))
        return self.advance()

    def parse_expr(self) -> Expression:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expression:
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expression:
        base = self.parse_unary()
        if self.peek().kind == "^":
            self.advance()
            return BinOp("^", base, self.parse_factor())
        return base

    def parse_unary(self) -> Expression:
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Expression:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownIdentifier(tok.text, tok.offset, kind="function")
                self.advance()
                arg = self.parse_expr()
                self.expect(")")
                return Call(tok.text, arg)
            if tok.text not in VARIABLES:
                raise UnknownIdentifier(tok.text, tok.offset, kind="variable")
            return Var(tok.text)
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ExpressionSyntaxError(f"unexpected {tok.kind!r}", tok.offset,
                                    expected=_ATOM_EXPECTED)


def parse(source: str) -> Expression:
    """Parse an expression string into an AST."""
    if not isinstance(source, str) or not source.strip():
        raise ExpressionSyntaxError("empty expression", 0, expected=_ATOM_EXPECTED)
    parser = _Parser(_tokenize(source))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "eof":
        raise ExpressionSyntaxError(f"trailing input {tail.text!r}", tail.offset,
                                    expected=("end of input", "operator"))
    return node


def ensure_expression(source) -> Expression:
    """Accept either an AST or source text and return an AST."""
    if isinstance(source, (Num, Var, Neg, BinOp, Call)):
        return source
    return parse(source)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# Grammar production levels: expr=0, term=1, factor=2, unary=3, atom=4.
def _level(e: Expression) -> int:
    if isinstance(e, (Num, Var, Call)):
        return 4
    if isinstance(e, Neg):
        return 3
    if e.op == "^":
        return 2
    if e.op in ("*", "/"):
        return 1
    return 0


def _print(e: Expression, min_level: int) -> str:
    if isinstance(e, Num):
        s = repr(e.value)
    elif isinstance(e, Var):
        s = e.name
    elif isinstance(e, Call):
        s = f"{e.func}({_print(e.arg, 0)})"
    elif isinstance(e, Neg):
        s = "-" + _print(e.operand, 3)
    elif e.op == "^":
        s = _print(e.left, 3) + "^" + _print(e.right, 2)
    elif e.op in ("*", "/"):
        s = _print(e.left, 1) + e.op + _print(e.right, 2)
    else:
        s = _print(e.left, 0) + " " + e.op + " " + _print(e.right, 1)
    if _level(e) < min_level:
        return "(" + s + ")"
    return s


def to_source(e: Expression) -> str:
    """Render an AST back to parseable source."""
    return _print(e, 0)


# ---------------------------------------------------------------------------
# Evaluation: expressions compiled into one hash-consed jet program
# ---------------------------------------------------------------------------

def _literal_value(e: Expression):
    """Value of a (possibly negated) numeric literal, else None."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Neg):
        inner = _literal_value(e.operand)
        return None if inner is None else -inner
    return None


class JetProgram:
    """Straight-line jet evaluation of several expressions at once.

    Structurally equal subtrees of all roots compile to one instruction,
    so each distinct subexpression (``r`` above all) is evaluated once
    per batch.  Instructions are in the post-order of evaluating the
    roots one after another, and each performs the floating-point
    operations of the tree walk in its order, so values are bitwise those
    of evaluating every root alone and the first ``DomainError`` carries
    the same located message.  Two instructions are cheaper forms of the
    same operations: ``u/v`` compiles to a reciprocal of ``v``, shared by
    every division by ``v``, times ``u``, and ``u*u`` to one
    :func:`jet_square`.  An intermediate jet is dropped after its last consumer.
    Calling the program returns one jet per root; roots that are equal
    share one jet, so treat the results as read-only.  ``order=1`` runs
    the same instructions on first-order jets (``d2 = None``): values,
    gradients and located errors are those of ``order=2``.

    Compiling walks each node object once, by identity, so a subtree that
    the roots reuse by reference costs one walk; the program is the one
    hash-consing alone would give.
    """

    def __init__(self, roots):
        self._code = []      # (fn, argument slots): fn(points, order) for a leaf,
                             # else fn(*argument jets)
        self._slots = {}     # structural key -> slot
        self._compiled = {}  # id(node) -> slot
        roots = list(roots)  # keeps every node alive, so no id is reused
        self._roots = [self._emit(root) for root in roots]
        last_use = {arg: k for k, (_, args) in enumerate(self._code) for arg in args}
        dead = [[] for _ in self._code]
        for slot, k in last_use.items():
            if slot not in self._roots:
                dead[k].append(slot)
        self._code = [(fn, args, tuple(free))
                      for (fn, args), free in zip(self._code, dead)]
        del self._slots, self._compiled

    def __len__(self) -> int:
        return len(self._code)

    def __call__(self, points, order: int = 2) -> list:
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != 3:
            raise ValueError("points must have a trailing axis of length 3")
        if order not in (1, 2):
            raise ValueError(f"jet order must be 1 or 2, got {order!r}")
        jets = [None] * len(self._code)
        for k, (fn, args, free) in enumerate(self._code):
            jets[k] = fn(*[jets[a] for a in args]) if args else fn(pts, order)
            for slot in free:
                jets[slot] = None
        return [jets[slot] for slot in self._roots]

    def _push(self, op, fn, *args) -> int:
        key = (op, args)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self._code)
            self._code.append((fn, args))
        return slot

    def _emit(self, e: Expression) -> int:
        slot = self._compiled.get(id(e))
        if slot is None:
            slot = self._compiled[id(e)] = self._compile(e)
        return slot

    def _compile(self, e: Expression) -> int:
        if isinstance(e, Num):
            # keyed by the bits, so that 0.0 and -0.0 stay distinct
            c = float(e.value)
            return self._push(("num", c.hex()),
                              lambda pts, order: jet_constant(c, pts.shape[:-1], order))
        if isinstance(e, Var):
            if e.name == "r":
                return self._push("r", lambda pts, order: _in_context(e, radius_jet,
                                                                     pts, order))
            axis = _AXIS_NAMES.index(e.name)
            return self._push(e.name, lambda pts, order: coordinate_jet(pts, axis, order))
        if isinstance(e, Neg):
            return self._push("neg", operator.neg, self._emit(e.operand))
        if isinstance(e, Call):
            f = _FUNCTION_JETS[e.func]
            return self._push(e.func, lambda u: _in_context(e, f, u), self._emit(e.arg))
        left = self._emit(e.left)
        if e.op == "^":
            # literal exponents keep integer powers valid for negative bases
            lit = _literal_value(e.right)
            if lit is not None:
                p = float(lit)
                return self._push(("^", p.hex()),
                                  lambda u: _in_context(e, operator.pow, u, p), left)
            return self._push("^", lambda u, v: _in_context(e, jet_pow, u, v),
                              left, self._emit(e.right))
        right = self._emit(e.right)
        if e.op == "/":
            # u/v is u * (1/v), as in ScalarJet2; divisions by one slot share
            # its reciprocal, which names the first of them in an error
            right = self._push("1/", lambda v: _in_context(e, jet_reciprocal, v), right)
        elif e.op != "*":
            return self._push(e.op, _ARITHMETIC[e.op], left, right)
        if left == right:
            return self._push("square", lambda u: jet_square(u), left)
        return self._push("*", operator.mul, left, right)


_ARITHMETIC = {"+": operator.add, "-": operator.sub}


def eval_jet2(e: Expression, points) -> ScalarJet2:
    """Evaluate ``e`` and its exact gradient/Hessian at ``points`` (..., 3)."""
    return JetProgram([e])(points)[0]


def _in_context(node, fn, *args):
    try:
        return fn(*args)
    except DomainError as err:
        if getattr(err, "located", False):
            raise
        located = DomainError(f"{err} in '{to_source(node)}'")
        located.located = True
        raise located from None


# ---------------------------------------------------------------------------
# Symbolic differentiation (used to build exact Jacobians of displacement
# fields; no simplification beyond folding trivial zeros and ones)
# ---------------------------------------------------------------------------

def _is_num(e, v):
    return isinstance(e, Num) and e.value == v


def _add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return Neg(b)
    return BinOp("-", a, b)


def _mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return BinOp("*", a, b)


def _div(a, b):
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return BinOp("/", a, b)


def derivative(e: Expression, axis: int) -> Expression:
    """Exact partial derivative of ``e`` with respect to x, y or z."""
    name = _AXIS_NAMES[axis]
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        if e.name == "r":
            return _div(Var(name), Var("r"))
        return Num(1.0) if e.name == name else Num(0.0)
    if isinstance(e, Neg):
        inner = derivative(e.operand, axis)
        return Num(0.0) if _is_num(inner, 0.0) else Neg(inner)
    if isinstance(e, Call):
        du = derivative(e.arg, axis)
        if _is_num(du, 0.0):
            return Num(0.0)
        u = e.arg
        if e.func == "sin":
            return _mul(Call("cos", u), du)
        if e.func == "cos":
            return Neg(_mul(Call("sin", u), du))
        if e.func == "exp":
            return _mul(e, du)
        if e.func == "log":
            return _div(du, u)
        if e.func == "sqrt":
            return _div(du, _mul(Num(2.0), e))
        return _div(du, _add(Num(1.0), _mul(u, u)))  # atan
    da = derivative(e.left, axis)
    if e.op in ("+", "-"):
        db = derivative(e.right, axis)
        return _add(da, db) if e.op == "+" else _sub(da, db)
    if e.op == "*":
        db = derivative(e.right, axis)
        return _add(_mul(da, e.right), _mul(e.left, db))
    if e.op == "/":
        db = derivative(e.right, axis)
        num = _sub(_mul(da, e.right), _mul(e.left, db))
        return _div(num, _mul(e.right, e.right))
    # power
    lit = _literal_value(e.right)
    if lit is not None:
        if lit == 0.0:
            return Num(0.0)
        if lit == 1.0:
            return da
        if lit - 1.0 == 1.0:
            inner = e.left
        else:
            inner = BinOp("^", e.left, Num(lit - 1.0))
        return _mul(_mul(Num(lit), inner), da)
    db = derivative(e.right, axis)
    bracket = _add(_mul(db, Call("log", e.left)), _div(_mul(e.right, da), e.left))
    return _mul(e, bracket)
