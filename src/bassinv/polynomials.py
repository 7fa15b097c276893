"""Sparse multivariate polynomials over Q.

Coefficients are `fractions.Fraction` throughout (arbitrary-precision, always
reduced, positive denominator), so every computation downstream is exact.  A
polynomial lives in Q[vars]; each exponent vector has one entry per variable.

`parse` reads the text grammar of _Parser: numbers in ASCII digits, names,
`+ - * / ^`, parentheses and whitespace.  One regex `findall` splits the text
into tokens, a term such as 3*x^2*y is multiplied out in place into one
coefficient and one exponent, and a token's position is recomputed only for
an error message.  `str` prints the same grammar, and parse(str(f)) == f.
"""

import re
from collections import defaultdict, namedtuple
from fractions import Fraction
from itertools import chain, islice
from math import comb, gcd, lcm
from operator import add, itemgetter, mul, sub

from .errors import PolynomialSyntaxError, UnknownVariableError
from .kernel import MonomialOrder, Packing

Exponent = tuple  # tuple of non-negative ints


class WeightSystem(namedtuple("WeightSystem", "weights degree")):
    """Positive integer weights with gcd 1, and the common weighted degree.

    Every construction, unpickling included, checks in __new__; _make and
    _replace skip it, so the package calls neither.
    """

    __slots__ = ()

    def __new__(cls, weights, degree):
        if not weights or any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        g = 0
        for w in weights:
            g = gcd(g, w)
        if g != 1:
            raise ValueError("weights must have gcd 1")
        if degree <= 0:
            raise ValueError("weighted degree must be positive")
        return super().__new__(cls, weights, degree)

    def weighted_degree(self, exp):
        return sum(map(mul, self.weights, exp))


def _times(a, b):
    """Product of two {exponent: coefficient} dicts, zeros dropped."""
    acc = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
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


def _grevlex_descending(e):
    """Sort key listing exponents descending in grevlex, as terms() and
    str() do: higher degree first, then the smaller last exponent."""
    return -sum(e), e[::-1]


class Polynomial:
    """Immutable sparse polynomial.

    `variables` are the ring variables; exponent tuples have one entry per
    variable.  Polynomial(terms, variables) checks and sums every term.
    The engine builds its own polynomials with _trusted, which checks
    nothing: it takes a fresh dict of exponent tuples of the ring's width,
    entries >= 0, to nonzero Fractions.
    """

    __slots__ = ("variables", "_terms")

    def __init__(self, terms, variables):
        variables = tuple(variables)
        width = len(variables)
        clean = {}
        for exp, coeff in (terms.items() if isinstance(terms, dict) else terms):
            exp = tuple(exp)
            if len(exp) != width:
                raise ValueError(f"exponent width {len(exp)} != {width}")
            if min(exp, default=0) < 0:
                raise ValueError("negative exponent")
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if coeff:
                old = clean.get(exp)
                if old is None:
                    clean[exp] = coeff
                elif coeff := old + coeff:
                    clean[exp] = coeff
                else:
                    del clean[exp]
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "_terms", clean)

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
        return [(e, self._terms[e]) for e in
                sorted(self._terms, key=_grevlex_descending)]

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
        return _trusted(acc, self.variables)

    __radd__ = __add__

    def __neg__(self):
        return _trusted({e: -c for e, c in self._terms.items()},
                        self.variables)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            return _trusted({e: c * v for e, v in self._terms.items()}
                            if c else {}, self.variables)
        other = self._coerce(other)
        return _trusted(_times(self._terms, other._terms), self.variables)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if n == 0:
            return Polynomial.constant(1, self.variables)
        return _trusted(_power(self._terms, n, len(self.variables)),
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
        return hash((self.variables, frozenset(self._terms.items())))

    def __reduce__(self):
        return Polynomial, (self._terms, self.variables)

    def __setattr__(self, name, value):
        raise AttributeError(f"Polynomial is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"Polynomial is immutable: cannot delete {name!r}")

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in self.terms():
            # str() below _CHUNK, where it cannot meet the int/str limit
            factors = [name if e == 1
                       else f"{name}^{e if e < _CHUNK else _decimal(e)}"
                       for name, e in zip(self.variables, exp) if e]
            num, den = coeff.numerator, coeff.denominator
            mag = abs(num)
            if mag != 1 or den != 1 or not factors:
                text = str(mag) if mag < _CHUNK else _decimal(mag)
                if den != 1:
                    text += f"/{den if den < _CHUNK else _decimal(den)}"
                factors.insert(0, text)
            body = "*".join(factors)
            if not parts:
                parts.append(body if num > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if num > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self!s})"


def _trusted(terms, variables):
    """Polynomial(terms, variables), unchecked: see the class docstring."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "variables", variables)
    object.__setattr__(p, "_terms", terms)
    return p


# -- decimal conversion ------------------------------------------------------

# CPython 3.11 refuses int/str conversions past 4300 digits by default
# (sys.set_int_max_str_digits).  Parsing and printing convert numbers with
# these, in chunks below that limit, so a valid polynomial parses and
# prints whatever the setting.
_CHUNK_DIGITS = 4000
_CHUNK = 10 ** _CHUNK_DIGITS


def _decimal(q):
    """str(q) for a non-negative int of any size."""
    chunks = []
    while q >= _CHUNK:
        q, r = divmod(q, _CHUNK)
        chunks.append(str(r).zfill(_CHUNK_DIGITS))
    chunks.append(str(q))
    return "".join(reversed(chunks))


def _integer(digits):
    """The int of a decimal digit string of any length."""
    value = 0
    for i in range(0, len(digits), _CHUNK_DIGITS):
        chunk = digits[i:i + _CHUNK_DIGITS]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


# -- parsing -----------------------------------------------------------------

NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")  # a name the grammar can spell
# bound on the bits of a coefficient power c^v that the parser computes
_MAX_POWER_BITS = 1 << 20
# bound on the estimated size, terms times coefficient bits, of a power of
# a sum that the parser expands; the expansion's time grows with the square
# of its term count, so this bound is lower
_MAX_EXPANSION_BITS = 1 << 16
# A token is a (number, name, op, stray) tuple of strings, one of them
# non-empty.  The last group catches any other character, so the matches
# tile the text up to trailing whitespace.  Numbers are ASCII digits only,
# like names.
_TOKEN = re.compile(
    r"\s*(?:([0-9]+)|(" + NAME.pattern + r")|([-+*/^()])|(\S))")
_END = ("", "", "", "")  # the token after the last one


def _tokenize(text):
    tokens = _TOKEN.findall(text)
    if any(map(itemgetter(3), tokens)):
        i = next(i for i, tok in enumerate(tokens) if tok[3])
        raise PolynomialSyntaxError(f"unexpected character {tokens[i][3]!r}",
                                    _position(text, i))
    tokens.append(_END)
    return tokens


def _position(text, index):
    """Where the index-th token of `text` starts; len(text) for the end."""
    for m in islice(_TOKEN.finditer(text), index, None):
        return m.start(m.lastindex)
    return len(text)


class _Parser:
    """Recursive descent for:  expr := ['+'|'-'] term (('+'|'-') term)*
    term := factor (['*'] factor)*     factor := int ['/' int] | int ['^' int]
            | name ['^' int] | '(' expr ')' ['^' int]

    A term multiplies its numbers and names into one coefficient and one
    exponent list; only a parenthesised factor is an {exponent: coefficient}
    dict, and only products and powers of those call _times.  A token's
    position is found only for an error message.
    """

    def __init__(self, text, variables):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables = tuple(variables)
        self.index = {name: k for k, name in enumerate(self.variables)}

    def error(self, message, i):
        return PolynomialSyntaxError(message, _position(self.text, i))

    def unexpected(self, i):
        return self.error(f"unexpected {self.tokens[i][2] or None!r}", i)

    def parse(self):
        acc = self.expr()
        if self.tokens[self.i] is not _END:
            raise self.unexpected(self.i)
        return _trusted({e: c if type(c) is Fraction else Fraction(c)
                         for e, c in acc.items() if c}, self.variables)

    def expr(self):
        """The terms up to the first token that continues no sum, summed
        into an {exponent: coefficient} dict; cancelled terms stay, at 0."""
        acc = {}
        tokens = self.tokens
        op = tokens[self.i][2]
        while True:
            if op == "+" or op == "-":
                self.i += 1
            self.term(acc, -1 if op == "-" else 1)
            op = tokens[self.i][2]
            if op != "+" and op != "-":
                return acc

    def exponent(self, i):
        """The non-negative integer exponent at token i."""
        digits = self.tokens[i][0]
        if not digits:
            raise self.error("expected a non-negative integer exponent", i)
        return (int(digits) if len(digits) <= _CHUNK_DIGITS
                else _integer(digits))

    def term(self, acc, coeff):
        """Add coeff times the term that starts at token self.i to acc."""
        tokens = self.tokens
        index = self.index
        i = self.i
        exp = [0] * len(index)
        expanded = None  # the product of the parenthesised factors
        while True:
            number, name, op, _ = tokens[i]
            if name:
                k = index.get(name)
                if k is None:
                    raise UnknownVariableError(
                        f"unknown variable {name!r} at position "
                        f"{_position(self.text, i)}")
                if tokens[i + 1][2] == "^":
                    exp[k] += self.exponent(i + 2)
                    i += 3
                else:
                    exp[k] += 1
                    i += 1
            elif number:
                c = (int(number) if len(number) <= _CHUNK_DIGITS
                     else _integer(number))
                op = tokens[i + 1][2]
                if op == "/":
                    den = tokens[i + 2][0]
                    if not den:
                        raise self.error("expected integer denominator", i + 2)
                    den = _integer(den)
                    if not den:
                        raise self.error("zero denominator", i + 2)
                    c = Fraction(c, den)
                    i += 3
                elif op == "^":
                    v = self.exponent(i + 2)
                    # c^v has at most v times as many bits as c
                    if c > 1 and v * c.bit_length() > _MAX_POWER_BITS:
                        raise self.error(f"the power's coefficient exceeds "
                                         f"{_MAX_POWER_BITS} bits", i + 2)
                    c **= v
                    i += 3
                else:
                    i += 1
                coeff *= c
            elif op == "(":
                self.i = i + 1
                terms = {e: c for e, c in self.expr().items() if c}
                i = self.i
                if tokens[i][2] != ")":
                    raise self.error("expected ')'", i)
                if tokens[i + 1][2] == "^":
                    terms = self.power(terms, i + 2)
                    i += 3
                else:
                    i += 1
                expanded = (terms if expanded is None
                            else _times(expanded, terms))
            else:
                raise self.unexpected(i)
            number, name, op, _ = tokens[i]
            if op == "*":
                i += 1
            elif not (number or name or op == "("):  # else implicit product
                break
        self.i = i
        if not coeff:
            return
        if expanded is None:
            e = tuple(exp)
            acc[e] = acc.get(e, 0) + coeff
        else:
            for e, c in expanded.items():
                e = tuple(map(add, e, exp))
                acc[e] = acc.get(e, 0) + coeff * c

    def power(self, terms, i):
        """terms ** v for the exponent v at token i, within the bounds."""
        v = self.exponent(i)
        if len(terms) == 1:
            (exp, c), = terms.items()
            # c^v has at most v times as many bits as c; c != 0 here
            bits = max(abs(c.numerator).bit_length(),
                       c.denominator.bit_length())
            if abs(c) != 1 and v * bits > _MAX_POWER_BITS:
                raise self.error(
                    f"the power's coefficient exceeds {_MAX_POWER_BITS} "
                    f"bits", i)
            return {tuple(e * v for e in exp): c ** v}
        if len(terms) > 1:
            # with q the lcm of the denominators, each coefficient of
            # terms^v is N / q^v with |N| <= (q * sum |c|)^v, and there
            # is at most one term per multiset of v base terms
            q = lcm(*(c.denominator for c in terms.values()))
            top = sum(abs(c.numerator) * (q // c.denominator)
                      for c in terms.values())
            # top >= 2, so bits >= v, and a huge v stops at the first
            # test, before comb
            bits = v * (max(top, q) - 1).bit_length()
            if (bits > _MAX_EXPANSION_BITS or comb(len(terms) + v - 1, v)
                    * bits > _MAX_EXPANSION_BITS):
                raise self.error(
                    f"the expanded power exceeds {_MAX_EXPANSION_BITS} "
                    f"coefficient bits", i)
        return _power(terms, v, len(self.variables))


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
    # lowering exponent var is one-to-one: no two terms meet
    return _trusted({exp[:var] + (e - 1,) + exp[var + 1:]:
                     Fraction(c.numerator * e, c.denominator)
                     for exp, c in f._terms.items() if (e := exp[var])},
                    f.variables)


def substitute_parameter(f, name, value):
    """Evaluate the variable `name` at a rational value.

    The result lives in the ring of the other variables.
    """
    i = f.variables.index(name)
    value = Fraction(value)
    powers = {k: value ** k for k in {exp[i] for exp in f._terms} if k}
    acc = {}
    for exp, c in f._terms.items():
        rest = exp[:i] + exp[i + 1:]
        if exp[i]:
            c *= powers[exp[i]]
        acc[rest] = acc[rest] + c if rest in acc else c
    return _trusted({e: c for e, c in acc.items() if c},
                    f.variables[:i] + f.variables[i + 1:])


def _positive_point(rows):
    """A rational point with rows·alpha > 0 componentwise, or None.

    Exact Fourier-Motzkin elimination; `rows` is a list of rational vectors,
    all of the same small length.  Eliminating every variable, the last
    first, leaves rows [const] that each read 0 > const, and the system is
    feasible exactly when all of them hold.  The elimination is exact, so
    back-substitution, variable 0 first, always finds a variable's lower
    bounds below its upper bounds.  It picks 1 for a variable without
    bounds, hi - 1 or lo + 1 for one with bounds on one side, and the
    midpoint for one with both.
    """
    k = len(rows[0]) if rows else 0
    system = [list(r) + [Fraction(0)] for r in rows]  # r·alpha > const
    stages = []
    for var in range(k - 1, -1, -1):
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
    if any(row[-1] >= 0 for row in system):
        return None
    alpha = [Fraction(0)] * k
    for var, lowers, uppers in reversed(stages):
        # a row [c_0, ..., c_(var-1), const] bounds alpha_var by
        # const - sum c_j alpha_j
        lo, hi = ([row[-1] - sum(c * a for c, a in zip(row, alpha[:var]))
                   for row in bounds] for bounds in (lowers, uppers))
        if not lo:
            alpha[var] = min(hi) - 1 if hi else Fraction(1)
        elif not hi:
            alpha[var] = max(lo) + 1
        else:
            alpha[var] = (max(lo) + min(hi)) / 2
    return alpha


def _clear(row, pivots):
    """The primitive integer row s*row - sum of multiples of the pivot rows
    that is zero at every pivot, for (pivot, pivot row) pairs whose rows
    are zero at each other's pivots.  Rows are sparse, zeros dropped.
    """
    if pivots:
        scale = lcm(*[prow[p] for p, prow in pivots])
        out = {k: v * scale for k, v in row.items()}
        for p, prow in pivots:
            m = out[p] // prow[p]
            for k, v in prow.items():
                x = out.get(k, 0) - m * v
                if x:
                    out[k] = x
                else:
                    del out[k]
        row = out
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def _echelon_add(echelon, row):
    """Add the sparse integer row to `echelon`; return its pivot, or None
    when it lies in the span of the rows already there.

    A row is a dict {column: nonzero int}, and its pivot is its least
    column.  `echelon` maps each pivot to its row; the rows are primitive
    (entries of gcd 1) and each is zero at every other row's pivot, so up
    to a nonzero factor per row they are the reduced row echelon form,
    which depends only on their span.  The row is reduced against them in
    integers; if it is not zero, its pivot is cleared from them and it is
    added last.  So len(echelon) is the rank, and its keys are the pivots
    in row order.  No Fraction is formed.
    """
    row = _clear(row, [(p, echelon[p]) for p in row if p in echelon])
    if not row:
        return None
    p = min(row)
    for q, old in echelon.items():
        if p in old:
            echelon[q] = _clear(old, [(p, row)])
    echelon[p] = row
    return p


def _difference_nullspace(exps, n):
    """Basis of the rational w with w·e equal on every exponent e in `exps`,
    as primitive integer vectors.

    Each exponent has length n.  The differences of consecutive exponents
    span the same space as all differences; repeats are skipped and
    _echelon_add reduces the rest.  At rank n only w = 0 is left and
    [] is returned.  Otherwise there is one vector per free column fc, read
    off the rows as off the reduced row echelon form and scaled by the lcm
    of the pivots it needs; that depends only on the span, so the basis
    does not depend on which differences were kept.  The vector is positive
    at fc, zero at the other free columns, and elsewhere nonzero only at
    the pivots of rows that are nonzero at fc, which lie before fc: fc is
    its last nonzero column.
    """
    def differences():
        seen = set()
        for prev, e in zip(exps, exps[1:]):
            d = tuple(map(sub, e, prev))
            if d not in seen:
                seen.add(d)
                yield {i: a for i, a in enumerate(d) if a}

    echelon = {}
    for row in differences():
        _echelon_add(echelon, row)
        if len(echelon) == n:
            return []
    basis = []
    for fc in range(n):
        if fc in echelon:
            continue
        pivots = [(p, row) for p, row in echelon.items() if fc in row]
        scale = lcm(*[row[p] for p, row in pivots])
        vec = [0] * n
        vec[fc] = scale
        for p, row in pivots:
            vec[p] = -row[fc] * scale // row[p]
        g = gcd(*vec)
        basis.append([x // g for x in vec])
    return basis


def find_weights(f):
    """Detect quasi-homogeneity.

    Returns the WeightSystem (integer weights, gcd 1) making every monomial of
    f the same positive weighted degree, or None if no positive weights exist.
    Solved as an exact linear system on the exponent vectors, whose
    solutions are the combinations of the _difference_nullspace basis.  On
    one vector, which is positive at its free column, positive weights
    exist exactly when all its entries are positive, as Fourier-Motzkin
    elimination decides for one variable.  On more, _positive_point picks the
    combination, with each vector divided by its entry at its free column,
    its last nonzero one, so that the rows and the point picked are those
    of the reduced row echelon form's basis.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no weight system")
    exps = f.exponents()
    n = len(f.variables)
    basis = _difference_nullspace(exps, n)
    if not basis:
        return None  # only w = 0 solves the system
    if len(basis) == 1:
        w = basis[0]
        if min(w) <= 0:
            return None
    else:
        # alpha with sum_j alpha_j * basis_j / last_j > 0 in every coordinate
        lasts = [next(x for x in reversed(vec) if x) for vec in basis]
        alpha = _positive_point([[Fraction(vec[i], last)
                                  for vec, last in zip(basis, lasts)]
                                 for i in range(n)])
        if alpha is None:
            return None
        coeffs = [a / last for a, last in zip(alpha, lasts)]
        den = lcm(*(c.denominator for c in coeffs))
        ints = [c.numerator * (den // c.denominator) for c in coeffs]
        w = [sum(map(mul, ints, column)) for column in zip(*basis)]
        g = gcd(*w)
        w = [x // g for x in w]
        assert min(w) > 0
    d = sum(map(mul, w, exps[0]))
    if d <= 0:
        return None  # constant term present: no positive-degree grading
    assert all(sum(map(mul, w, e)) == d for e in exps)
    return WeightSystem(tuple(w), d)


def low_difference(f, f_0, ws):
    """The least exponent of a term of f - f_0 whose weighted degree under
    the WeightSystem ws is not above ws.degree; None when there is none.

    The terms are those whose coefficients differ, the symmetric difference
    of the two term sets.  None means that every term of f - f_0 lies above
    degree d = ws.degree: for f_0 graded of weights ws, f_0 is then the part
    of f of least weighted degree, d.
    """
    return min((e for e, _ in f._terms.items() ^ f_0._terms.items()
                if ws.weighted_degree(e) <= ws.degree), default=None)


def scaling_weights(f, name):
    """Integer weights on f's variables, nonzero on `name`, under which every
    term of f has the same weighted degree; None when there are none.

    They exist exactly when the unit vector of `name` is not in the span of
    the differences of f's exponent vectors.  The entries have gcd 1 and
    the first nonzero one is positive.  With weights w and common degree D,
    f(lam^w_1 x_1, ..., lam^w_n x_n) = lam^D f for every lam != 0, so for a
    family parameter `name` with w_name != 0, every fiber at a nonzero value
    is a diagonal rescaling of every other one (over Q-bar).
    """
    i = f.variables.index(name)
    basis = _difference_nullspace(f.exponents(), len(f.variables))
    vec = next((v for v in basis if v[i]), None)
    if vec is None:
        return None
    if next(x for x in vec if x) < 0:
        vec = [-x for x in vec]
    return tuple(vec)


def linear_jacobian_multipliers(f):
    """The integer n x n matrix B and the integer D > 0 with
    D*f = sum_ij B[i][j] x_j df/dx_i, as (B, D), or None when there is none.

    A = B/D puts f in its Jacobian ideal with linear multipliers.  A
    quasi-homogeneous f of weights w and degree d has one, diag(w)/d by
    Euler's identity, and so has every linear change of it, whose weights
    find_weights no longer sees.  The converse fails: (x+y^2)^2+y^3+z^5 is
    quasi-homogeneous after a change that is not linear, yet has no A.

    Solved as a linear system in the n^2 entries of A with one equation per
    monomial, keyed by a lex kernel.Packing whose fields hold exponents up
    to one past f's largest, so that the column x_j df/dx_i shifts a key
    by scales[j] minus scales[i].
    _echelon_add reduces it on f's coefficients scaled to integers,
    the equations of f's own terms first: for most f without an A they are
    inconsistent already.  A term of f that no column reaches gives None at
    once.  Elimination stops at n^2 pivots, where the solution is unique.
    The solution with every free entry zero is read off the echelon once,
    as x/D over the lcm D of the pivots, and each equation not yet reduced
    is only checked, by an integer dot product with it.
    """
    n = len(f.variables)
    terms = f._terms
    denom = lcm(*(c.denominator for c in terms.values()))
    # a column x_j df/dx_i raises an exponent of f by at most 1
    packing = Packing(MonomialOrder.lex(), n,
                      (max(chain(*terms), default=0) + 1).bit_length())
    scales = packing.scales
    full = rhs = n * n  # columns: the entries of A, then f's coefficient
    rows = defaultdict(dict)  # monomial key -> its equation
    own = {}  # f's monomial keys -> its coefficients scaled to integers
    for e, c in terms.items():
        key = packing.pack(e)
        c = own[key] = c.numerator * (denom // c.denominator)
        for i, k in enumerate(e):
            if k:
                # the term c*x^e of f gives k*c*x^m in x_j df/dx_i, and
                # no other term of f reaches m in that column
                lowered, kc = key - scales[i], k * c
                for col, scale in enumerate(scales, i * n):
                    rows[lowered + scale][col] = kc
    if not own.keys() <= rows.keys():
        return None  # a term of f that no column reaches
    equations = chain([{**rows.pop(key), rhs: c} for key, c in own.items()],
                      rows.values())
    echelon = {}
    for row in equations:
        if _echelon_add(echelon, row) == rhs:
            return None  # 0 = nonzero: f is not in the span of the columns
        if len(echelon) == full:
            break
    den = lcm(*[row[p] for p, row in echelon.items()])
    # x/den, with -den in the rhs column so that every equation has dot
    # product 0 with x
    x = {p: row.get(rhs, 0) * (den // row[p]) for p, row in echelon.items()}
    x[rhs] = -den
    if any(sum([v * x[k] for k, v in row.items()]) for row in equations):
        return None
    return [[x.get(i * n + j, 0) for j in range(n)] for i in range(n)], den


def positive_rational_eigenvalues(b, den):
    """The eigenvalues of the rational matrix b/den, for an integer square
    matrix b and an integer den > 0, as (s, den) with eigenvalue i equal to
    s_i/den, when all of them are positive rationals and b is
    diagonalisable over Q; None otherwise.  The s_i are integers, with
    multiplicity and largest first.

    For (b, den) from linear_jacobian_multipliers(f) and b = L diag(s) L^-1,
    (s, den) is the grading of g = f o L: den*g = sum_i s_i y_i dg/dy_i.
    The characteristic polynomial P of b is monic with integer
    coefficients, so its rational roots are integers.  The largest root is
    split off P by exact division (_largest_integer_root) until P is used
    up.  An eigenvalue of multiplicity m > 1 is diagonalisable when
    b - s*I has rank n - m, which _echelon_add counts.  No Fraction is
    formed.
    """
    n = len(b)
    poly = _characteristic_polynomial(b)
    roots = []
    while len(poly) > 1:
        s = _largest_integer_root(poly)
        if s is None or s <= 0:
            return None
        roots.append(s)
        quotient = [1]  # P / (t - s) by synthetic division; P(s) = 0
        for c in poly[1:-1]:
            quotient.append(c + s * quotient[-1])
        poly = quotient
    for s in set(roots):
        m = roots.count(s)
        if m > 1:
            echelon = {}
            for i, row in enumerate(b):
                row = {j: v - s * (i == j) for j, v in enumerate(row)}
                _echelon_add(echelon, {j: v for j, v in row.items() if v})
            if len(echelon) != n - m:
                return None
    return roots, den


def _characteristic_polynomial(b):
    """Coefficients of det(t*I - b), highest first, for an integer matrix b.

    Faddeev-LeVerrier: M_1 = I, M_(k+1) = b*M_k + c_k*I, and
    c_k = -tr(b*M_k)/k, an exact division.
    """
    n = len(b)
    coeffs = [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(b[i][l] * m[l][j] for l in range(n))
              + (coeffs[-1] if i == j else 0) for j in range(n)]
             for i in range(n)]
        trace = sum(b[i][l] * m[l][i] for i in range(n) for l in range(n))
        coeffs.append(-trace // k)
    return coeffs


def _taylor_shift(poly, s):
    """Coefficients of P(s + h) in h, highest first, for P's coefficients
    highest first; the k-th from the end is the k-th derivative of P at s
    over k!."""
    c = list(poly)
    for i in range(len(c) - 1):
        for j in range(1, len(c) - i):
            c[j] += s * c[j - 1]
    return c


def _largest_integer_root(poly):
    """An integer root of the monic integer polynomial P, or None; the
    largest root whenever all of P's roots are positive integers.

    P(s + h) has coefficients >= 0, the derivatives of P at s over k!, on
    a half-line [r, oo): they stay >= 0 as s grows.  When every root of P
    is real, r is the largest one, and when every root is also positive,
    their sum -poly[1] lies in the half-line and 0 does not.  The least
    integer in it is found by bisection between the two and returned if
    it is a root.
    """
    def above(s):
        return min(_taylor_shift(poly, s)) >= 0

    lo, hi = 0, -poly[1]
    if above(lo) or not above(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid):
            hi = mid
        else:
            lo = mid
    return hi if _taylor_shift(poly, hi)[-1] == 0 else None
