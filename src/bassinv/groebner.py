"""Buchberger engine over Q: reduced bases, normal forms, staircases, lengths.

The pair queue uses Gebauer-Moller elimination with normal (minimal lcm
degree) selection.  Arithmetic is fraction-free on primitive integer term
lists (see the kernel modules); results are certificates, not probabilistic.
Outputs are deterministic for a fixed input and order: term iteration and
the pair queue are fully sorted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heappush, heappop
from math import lcm

from . import kernel
from ._core_py import GREVLEX, LEX, WGREVLEX  # order codes are shared
from .polynomials import Polynomial

_EXPONENT_CAP = 2 ** 31  # compiled kernel stores exponents in C integers

DEFAULT_STAIRCASE_CAP = 100000


def _staircase_cap():
    raw = os.environ.get("BASSINV_MAX_STAIRCASE", "")
    return int(raw) if raw else DEFAULT_STAIRCASE_CAP


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative well-order on monomials.

    kind is one of "grevlex", "lex", "weighted"; weighted orders compare the
    weighted degree first and break ties by grevlex.
    """

    kind: str
    weights: tuple = None

    @classmethod
    def grevlex(cls):
        return cls("grevlex")

    @classmethod
    def lex(cls):
        return cls("lex")

    @classmethod
    def weighted(cls, weights):
        weights = tuple(int(w) for w in weights)
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        return cls("weighted", weights)

    def codes(self):
        if self.kind == "grevlex":
            return GREVLEX, ()
        if self.kind == "lex":
            return LEX, ()
        if self.kind == "weighted":
            return WGREVLEX, self.weights
        raise ValueError(f"unknown order kind {self.kind!r}")

    def key(self, exp):
        code, weights = self.codes()
        return kernel.active().order_key(exp, code, weights)


class GroebnerBasis:
    """Reduced Groebner basis: monic, inter-reduced generators.

    The generators are kept as primitive integer term lists (`_raw`, sorted
    ascending by lead); the monic Polynomials are built from them on first
    access.  A reduced basis is unique, so equal term lists mean equal
    generators.
    """

    def __init__(self, order, variables, raw):
        self.order = order
        self.variables = tuple(variables)
        self._raw = raw

    @cached_property
    def generators(self):
        return tuple(_monic_from_raw(raw, self.variables) for raw in self._raw)

    def __len__(self):
        return len(self._raw)

    def __iter__(self):
        return iter(self.generators)

    def leading_exponents(self):
        return [g[0][0] for g in self._raw]

    def is_zero_ideal(self):
        return not self._raw

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis)
                and self.order == other.order
                and self.variables == other.variables
                and self._raw == other._raw)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"GroebnerBasis[{self.order.kind}]({{{gens}}})"


@dataclass(frozen=True)
class Staircase:
    """Standard monomials of a basis; `monomials` is None when infinite."""

    monomials: tuple

    @property
    def is_finite(self):
        return self.monomials is not None

    @property
    def size(self):
        return len(self.monomials) if self.is_finite else None


def _to_raw(p, code, weights):
    """Polynomial -> (primitive integer term list, rational scale).

    The polynomial equals scale * term_list exactly.
    """
    terms = p.term_map()
    if not terms:
        return [], Fraction(0)
    den = lcm(*(c.denominator for c in terms.values()))
    pairs = []
    for e, c in terms.items():
        if max(e, default=0) >= _EXPONENT_CAP:
            raise ValueError("exponent too large for the kernel (>= 2^31)")
        pairs.append((e, c.numerator * (den // c.denominator)))
    impl = kernel.active()
    items = impl.sort_terms(pairs, code, weights)
    items, content = impl.make_primitive(items)
    return items, Fraction(content, den)


def _monic_from_raw(raw, variables):
    lc = raw[0][1]
    return Polynomial({e: Fraction(c, lc) for e, c in raw}, variables)


def buchberger(generators, order=None, variables=None):
    """Reduced Groebner basis of the ideal the generators span.

    Deterministic for a fixed generator list and order.  An empty or all-zero
    input yields the zero ideal (no generators); pass `variables` to name the
    ring when the generator list is empty.
    """
    order = order or MonomialOrder.grevlex()
    generators = list(generators)
    code, weights = order.codes()
    variables = tuple(variables) if variables is not None else None
    raws = []
    for g in generators:
        if variables is None:
            variables = g.variables
        elif g.variables != variables:
            raise ValueError("generators live in different rings")
        raw, _ = _to_raw(g, code, weights)
        if raw:
            raws.append(raw)
    if variables is None:
        raise ValueError("empty generator list: pass variables= for the ring")
    # canonical input order: results do not depend on it (the reduced basis
    # is unique) but the pair schedule becomes reproducible
    seen = set()
    unique = []
    for raw in raws:
        key = tuple(raw)
        if key not in seen:
            seen.add(key)
            unique.append(raw)
    impl = kernel.active()
    unique.sort(key=lambda raw: tuple(
        (impl.order_key(e, code, weights), c) for e, c in raw))
    if not unique:
        return GroebnerBasis(order, variables, [])

    G = []
    alive = {}  # queued pair (i, j) -> lcm of the two leads
    heap = []

    def lead(i):
        return G[i][0][0]

    def add_element(h):
        t = len(G)
        lm_h = h[0][0]
        candidates = sorted(
            ((i, impl.exp_lcm(lead(i), lm_h)) for i in range(t)),
            key=lambda item: (impl.order_key(item[1], code, weights), item[0]))
        kept = []  # (index, lcm, coprime)
        for pos, (i, lcm_i) in enumerate(candidates):
            coprime = lcm_i == impl.exp_add(lead(i), lm_h)
            if coprime:
                kept.append((i, lcm_i, True))
                continue
            dominated = any(impl.exp_divides(lcm_j, lcm_i)
                            for _, lcm_j in candidates[pos + 1:])
            if not dominated:
                dominated = any(impl.exp_divides(lcm_j, lcm_i)
                                for _, lcm_j, _ in kept)
            if not dominated:
                kept.append((i, lcm_i, False))
        # chain criterion against the old queue
        # (each pair's test reads only its own leads and h, so the visiting
        # order does not matter)
        for (i, j), lcm_ij in list(alive.items()):
            if (impl.exp_divides(lm_h, lcm_ij)
                    and impl.exp_lcm(lead(i), lm_h) != lcm_ij
                    and impl.exp_lcm(lead(j), lm_h) != lcm_ij):
                del alive[i, j]
        G.append(h)
        for i, lcm_i, coprime in kept:
            if coprime:
                continue  # Buchberger's first criterion
            alive[i, t] = lcm_i
            heappush(heap, (sum(lcm_i),
                            impl.order_key(lcm_i, code, weights), i, t))

    for raw in unique:
        reduced, _, _ = impl.reduce_full(raw, G, code, weights)
        if reduced:
            add_element(reduced)

    while heap:
        _, _, i, j = heappop(heap)
        if alive.pop((i, j), None) is None:
            continue
        s = impl.spoly(G[i], G[j], code, weights)
        if not s:
            continue
        reduced, _, _ = impl.reduce_full(s, G, code, weights)
        if reduced:
            add_element(reduced)

    # minimize: drop generators whose lead another lead divides
    by_lead = sorted(range(len(G)),
                     key=lambda i: impl.order_key(lead(i), code, weights))
    kept_idx = []
    for i in by_lead:
        if not any(impl.exp_divides(lead(k), lead(i)) for k in kept_idx):
            kept_idx.append(i)
    minimal = [G[i] for i in kept_idx]
    # inter-reduce tails; leads survive because they are pairwise indivisible
    final = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        if others:
            g, _, _ = impl.reduce_full(g, others, code, weights)
        final.append(g)
    final.sort(key=lambda raw: impl.order_key(raw[0][0], code, weights))
    return GroebnerBasis(order, variables, final)


def normal_form(p, basis):
    """Complete reduction of p modulo the basis: exact, unique remainder."""
    if tuple(p.variables) != basis.variables:
        raise ValueError("polynomial and basis live in different rings")
    code, weights = basis.order.codes()
    raw, scale = _to_raw(p, code, weights)
    if not raw:
        return Polynomial.zero(basis.variables)
    impl = kernel.active()
    reduced, num, den = impl.reduce_full(raw, basis._raw, code, weights)
    factor = scale * Fraction(num, den)
    return Polynomial({e: factor * c for e, c in reduced}, basis.variables)


def staircase(basis):
    """Standard monomials under the basis' staircase, or the infinite marker."""
    return _standard_monomials(basis.leading_exponents(), len(basis.variables),
                              basis.order)


def _standard_monomials(leads, nvars, order):
    """Monomials in nvars variables that no lead divides, sorted by order.

    Infinite (the marker) unless, for each variable, some lead divides a
    power of it; past the BASSINV_MAX_STAIRCASE cap StaircaseLimitError is
    raised.
    """
    for i in range(nvars):
        if not any(all(le[j] == 0 for j in range(nvars) if j != i)
                   for le in leads):
            return Staircase(None)
    code, weights = order.codes()
    return Staircase(tuple(kernel.active().enumerate_staircase(
        leads, nvars, _staircase_cap(), code, weights)))


def quotient_dimension(basis):
    """dim_Q of the quotient ring; None when infinite."""
    s = staircase(basis)
    return s.size


def supported_only_at_origin(basis, dim):
    """True iff every variable is nilpotent modulo the ideal.

    For a finite-dimensional quotient this says the ideal's zero set is the
    origin alone.  `dim` is quotient_dimension(basis), which must be finite.

    Each x_i is stepped through normal forms: start at x_i^m, where x_i^m is
    the smallest pure power of x_i among the basis leads (1, x_i, ...,
    x_i^(m-1) are standard, so m <= dim), and for k = m, ..., dim replace
    the current remainder r by NF(r) and stop at the first zero, else
    multiply it by x_i.  NF is linear, so NF(x_i * NF(x_i^(k-1))) is
    NF(x_i^k) up to a nonzero rational.  The bound dim is exact: in the
    quotient A, the ideals x_i^k A of a nilpotent x_i shrink strictly until
    they reach 0, so x_i^dim lies in the ideal iff x_i is nilpotent.
    """
    if dim is None:
        raise ValueError("support test needs a finite-dimensional quotient")
    if dim == 0:
        return True
    nvars = len(basis.variables)
    impl = kernel.active()
    code, weights = basis.order.codes()
    for i in range(nvars):
        step = tuple(1 if j == i else 0 for j in range(nvars))
        m = min(le[i] for le in basis.leading_exponents()
                if all(le[j] == 0 for j in range(nvars) if j != i))
        terms = [(tuple(m * x for x in step), 1)]
        for _ in range(m, dim + 1):
            terms, _, _ = impl.reduce_full(terms, basis._raw, code, weights)
            if not terms:
                break
            terms = [(impl.exp_add(e, step), c) for e, c in terms]
        else:
            return False
    return True
