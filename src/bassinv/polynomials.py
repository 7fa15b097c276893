"""Sparse multivariate polynomials over Q.

Coefficients are `fractions.Fraction` throughout (arbitrary-precision, always
reduced, positive denominator), so every computation downstream is exact.  A
polynomial lives in Q[vars]; each exponent vector has one entry per variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import PolynomialSyntaxError, UnknownVariableError

Exponent = tuple  # tuple of non-negative ints


def grevlex_key(exp):
    """Sort key ascending in graded reverse lexicographic order."""
    return (sum(exp),) + tuple(-e for e in reversed(exp))


@dataclass(frozen=True)
class WeightSystem:
    """Positive integer weights with gcd 1, and the common weighted degree."""

    weights: tuple
    degree: int

    def __post_init__(self):
        if not self.weights or any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        g = 0
        for w in self.weights:
            g = gcd(g, w)
        if g != 1:
            raise ValueError("weights must have gcd 1")
        if self.degree <= 0:
            raise ValueError("weighted degree must be positive")

    def weighted_degree(self, exp):
        return sum(w * e for w, e in zip(self.weights, exp))


def _times(a, b):
    """Product of two {exponent: coefficient} dicts, zeros dropped."""
    acc = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = acc.get(e, 0) + c1 * c2
            if v:
                acc[e] = v
            else:
                acc.pop(e, None)
    return acc


def _power(terms, n, width):
    """terms ** n for an {exponent: coefficient} dict, by squaring."""
    result = {(0,) * width: 1}
    while n:
        if n & 1:
            result = _times(result, terms)
        n >>= 1
        if n:
            terms = _times(terms, terms)
    return result


class Polynomial:
    """Immutable sparse polynomial.

    `variables` are the ring variables; exponent tuples have one entry per
    variable.
    """

    __slots__ = ("variables", "_terms", "_hash")

    def __init__(self, terms, variables):
        variables = tuple(variables)
        width = len(variables)
        clean = {}
        for exp, coeff in (terms.items() if isinstance(terms, dict) else terms):
            exp = tuple(exp)
            if len(exp) != width:
                raise ValueError(f"exponent width {len(exp)} != {width}")
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent")
            coeff = Fraction(coeff)
            if coeff:
                c = clean.get(exp, 0) + coeff
                if c:
                    clean[exp] = c
                else:
                    del clean[exp]
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls({}, variables)

    @classmethod
    def constant(cls, value, variables):
        return cls({(0,) * len(variables): Fraction(value)}, variables)

    @classmethod
    def variable(cls, name, variables):
        i = list(variables).index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls({exp: Fraction(1)}, variables)

    # -- views ---------------------------------------------------------------

    def terms(self):
        """Term pairs (exponent, coefficient), descending in grevlex."""
        return sorted(self._terms.items(), key=lambda t: grevlex_key(t[0]),
                      reverse=True)

    def term_map(self):
        return dict(self._terms)

    def is_zero(self):
        return not self._terms

    def exponents(self):
        """Exponent vectors, sorted."""
        return sorted(self._terms)

    def total_degree(self):
        if not self._terms:
            return 0
        return max(sum(exp) for exp in self._terms)

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise ValueError("mixed polynomial rings")
            return other
        return Polynomial.constant(other, self.variables)

    def __add__(self, other):
        other = self._coerce(other)
        acc = dict(self._terms)
        for exp, c in other._terms.items():
            v = acc.get(exp, 0) + c
            if v:
                acc[exp] = v
            else:
                acc.pop(exp, None)
        return Polynomial(acc, self.variables)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({e: -c for e, c in self._terms.items()},
                          self.variables)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            return Polynomial({e: c * v for e, v in self._terms.items()},
                              self.variables)
        other = self._coerce(other)
        return Polynomial(_times(self._terms, other._terms), self.variables)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        return Polynomial(_power(self._terms, n, len(self.variables)),
                          self.variables)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            try:
                other = Polynomial.constant(other, self.variables)
            except (TypeError, ValueError):
                return NotImplemented
        return (self.variables == other.variables
                and self._terms == other._terms)

    def __hash__(self):
        if self._hash is None:
            h = hash((self.variables, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return self._hash

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in self.terms():
            factors = []
            for name, e in zip(self.variables, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self!s})"


# -- parsing -----------------------------------------------------------------

NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")  # a name the grammar can spell
_TOKEN = re.compile(r"\s*(?:(\d+)|(" + NAME.pattern + r")|([-+*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise PolynomialSyntaxError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent for:  expr := ['+'|'-'] term (('+'|'-') term)*
    term := factor (['*'] factor)*        factor := number | name ['^' int]
            | '(' expr ')' ['^' int]      number := int ['/' int]
    """

    def __init__(self, text, variables):
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables = tuple(variables)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise PolynomialSyntaxError(f"expected {op!r}", pos)

    def parse(self):
        poly = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise PolynomialSyntaxError(f"unexpected {val!r}", pos)
        return poly

    def expr(self):
        acc = {}  # summed here: adding term by term rebuilds all terms so far
        kind, val, _ = self.peek()
        while True:
            sign = 1
            if kind == "op" and val in "+-":
                self.next()
                sign = -1 if val == "-" else 1
            for exp, c in self.term().items():
                acc[exp] = acc.get(exp, 0) + sign * c
            kind, val, _ = self.peek()
            if not (kind == "op" and val in "+-"):
                return Polynomial(acc, self.variables)

    # term, factor and maybe_power pass {exponent: coefficient} dicts with
    # no zero coefficients; only expr builds a Polynomial

    def term(self):
        terms = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                terms = _times(terms, self.factor())
            elif kind in ("int", "name") or (kind == "op" and val == "("):
                terms = _times(terms, self.factor())  # implicit product
            else:
                return terms

    def constant(self, value):
        return {(0,) * len(self.variables): value} if value else {}

    def factor(self):
        kind, val, pos = self.next()
        if kind == "int":
            num = val
            k, v, _ = self.peek()
            if k == "op" and v == "/":
                self.next()
                k2, v2, p2 = self.next()
                if k2 != "int":
                    raise PolynomialSyntaxError("expected integer denominator", p2)
                if v2 == 0:
                    raise PolynomialSyntaxError("zero denominator", p2)
                return self.constant(Fraction(num, v2))
            return self.maybe_power(self.constant(num))
        if kind == "name":
            if val not in self.variables:
                raise UnknownVariableError(
                    f"unknown variable {val!r} at position {pos}")
            i = self.variables.index(val)
            exp = tuple(1 if j == i else 0 for j in range(len(self.variables)))
            return self.maybe_power({exp: 1})
        if kind == "op" and val == "(":
            terms = self.expr()._terms
            self.expect_op(")")
            return self.maybe_power(terms)
        raise PolynomialSyntaxError(f"unexpected {val!r}", pos)

    def maybe_power(self, terms):
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            k, v, p = self.next()
            if k != "int":
                raise PolynomialSyntaxError("expected a non-negative integer exponent", p)
            return _power(terms, v, len(self.variables))
        return terms


def parse(text, variables):
    """Parse `text` into a Polynomial in the given variables.

    Raises PolynomialSyntaxError (with position) or UnknownVariableError,
    and ValueError when a variable name is repeated.
    """
    if len(set(variables)) != len(variables):
        raise ValueError(f"repeated variable name in {tuple(variables)}")
    return _Parser(text, variables).parse()


# -- calculus and weights ----------------------------------------------------

def partial_derivative(f, var):
    """Formal partial derivative with respect to the var-th ring variable."""
    if not 0 <= var < len(f.variables):
        raise ValueError("variable index out of range")
    acc = {}
    for exp, c in f.term_map().items():
        e = exp[var]
        if e:
            nexp = exp[:var] + (e - 1,) + exp[var + 1:]
            acc[nexp] = acc.get(nexp, 0) + c * e
    return Polynomial(acc, f.variables)


def substitute_parameter(f, name, value):
    """Evaluate the variable `name` at a rational value.

    The result lives in the ring of the other variables.
    """
    i = f.variables.index(name)
    value = Fraction(value)
    acc = {}
    for exp, c in f.term_map().items():
        rest = exp[:i] + exp[i + 1:]
        acc[rest] = acc.get(rest, 0) + c * value ** exp[i]
    return Polynomial(acc, f.variables[:i] + f.variables[i + 1:])


def _rref(rows, ncols):
    """Reduced row echelon form over Fraction; returns (rows, pivot columns)."""
    rows = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _positive_point(rows):
    """A rational point with rows·alpha > 0 componentwise, or None.

    Exact Fourier-Motzkin elimination; `rows` is a list of rational vectors,
    all of the same small length.
    """
    k = len(rows[0]) if rows else 0
    system = [list(r) + [Fraction(0)] for r in rows]  # r·alpha > const
    stages = []
    for var in range(k - 1, 0, -1):
        lowers, uppers, rest = [], [], []
        for row in system:
            c = row[var]
            trimmed = row[:var] + row[-1:]
            if c > 0:
                # alpha_var > (const - partial)/c
                lowers.append([x / c for x in trimmed])
            elif c < 0:
                uppers.append([x / c for x in trimmed])
            else:
                rest.append(trimmed)
        stages.append((var, lowers, uppers))
        system = rest
        for lo in lowers:
            for up in uppers:
                # lo-bound < up-bound, rewritten as sum (l-u)_j alpha_j > cl-cu
                system.append([l - u for l, u in zip(lo, up)])
    # solve for alpha_0: rows are [c, const] meaning c*alpha_0 > const
    lo, hi = None, None
    for row in system:
        c, const = row[0], row[-1]
        if c > 0:
            b = const / c
            lo = b if lo is None else max(lo, b)
        elif c < 0:
            b = const / c
            hi = b if hi is None else min(hi, b)
        elif const >= 0:
            return None  # 0 > const >= 0 is infeasible
    if lo is not None and hi is not None and lo >= hi:
        return None
    alpha = [Fraction(0)] * k
    if lo is None and hi is None:
        alpha[0] = Fraction(1)
    elif lo is None:
        alpha[0] = hi - 1
    elif hi is None:
        alpha[0] = lo + 1
    else:
        alpha[0] = (lo + hi) / 2
    for var, lowers, uppers in reversed(stages):
        lo, hi = None, None
        for row in lowers:
            b = row[-1] - sum(c * a for c, a in zip(row[:-1], alpha[:var]))
            lo = b if lo is None else max(lo, b)
        for row in uppers:
            b = row[-1] - sum(c * a for c, a in zip(row[:-1], alpha[:var]))
            hi = b if hi is None else min(hi, b)
        if lo is None and hi is None:
            alpha[var] = Fraction(1)
        elif lo is None:
            alpha[var] = hi - 1
        elif hi is None:
            alpha[var] = lo + 1
        elif lo < hi:
            alpha[var] = (lo + hi) / 2
        else:
            return None
    return alpha


def find_weights(f):
    """Detect quasi-homogeneity.

    Returns the WeightSystem (integer weights, gcd 1) making every monomial of
    f the same positive weighted degree, or None if no positive weights exist.
    Solved as an exact linear system on the exponent vectors.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no weight system")
    exps = f.exponents()
    n = len(f.variables)
    base = exps[0]
    rows = [[Fraction(e[i] - base[i]) for i in range(n)] for e in exps[1:]]
    rref_rows, pivots = _rref(rows, n)
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None  # only w = 0 solves the system
    # nullspace basis: one vector per free column
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, pc in zip(rref_rows, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    # find alpha with sum_j alpha_j * basis_j > 0 in every coordinate
    cone_rows = [[basis[j][i] for j in range(len(free))] for i in range(n)]
    alpha = _positive_point(cone_rows)
    if alpha is None:
        return None
    w = [sum(a * basis[j][i] for j, a in enumerate(alpha)) for i in range(n)]
    assert all(x > 0 for x in w)
    denom = 1
    for x in w:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in w]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    d = sum(wi * ei for wi, ei in zip(ints, base))
    if d <= 0:
        return None  # constant term present: no positive-degree grading
    assert all(sum(wi * ei for wi, ei in zip(ints, e)) == d for e in exps)
    return WeightSystem(tuple(ints), d)


def euler_identity_check(f, ws):
    """True iff sum_i w_i x_i df/dx_i == d*f.

    The left side scales each term by its weighted degree, so over Q this
    holds exactly when every term of f has weighted degree d.
    """
    if len(ws.weights) != len(f.variables):
        raise ValueError("weight count does not match the variable count")
    return all(ws.weighted_degree(e) == ws.degree for e in f.exponents())
