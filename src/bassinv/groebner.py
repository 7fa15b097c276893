"""Buchberger engine over Q: reduced bases, staircases, the support test.

The pair queue uses Gebauer-Moller elimination with normal (minimal lcm
degree) selection.  Arithmetic is fraction-free on primitive integer term
lists and is done by `bassinv.kernel`; results are certificates, not
probabilistic.  The three functions that call reduce_full, spoly or
enumerate_staircase reach them through the kernel's `active()` hook, which
the benchmark's tracer replaces to count them; the rest of the kernel is
called directly.  Each computation (a Buchberger run or a support test)
packs its monomials once into ints by a kernel `Packing` sized from its
inputs, reruns at twice the width when an exponent outgrows it, and
unpacks only what it returns; a GroebnerBasis holds exponent tuples.
jacobian_basis packs f alone and derives its partials on that packing, so
a Jacobian run forms no Polynomial or Fraction for them.
Outputs are deterministic for a fixed input and order: term iteration and
the pair queue are fully sorted.  The queue holds each pair's packed lcm,
which the criteria read and spoly takes, so no lcm is built twice.
"""

import os
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from heapq import heappush, heappop
from itertools import chain
from math import lcm

from . import kernel
from .errors import UsageError
from .kernel import MonomialOrder
from .polynomials import _trusted

DEFAULT_STAIRCASE_CAP = 100000


def _staircase_cap():
    raw = os.environ.get("BASSINV_MAX_STAIRCASE", "")
    if not raw:
        return DEFAULT_STAIRCASE_CAP
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"BASSINV_MAX_STAIRCASE must be an integer; "
                         f"got {raw!r}") from None


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

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis)
                and self.order == other.order
                and self.variables == other.variables
                and self._raw == other._raw)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"GroebnerBasis[{self.order.kind}]({{{gens}}})"


# the number of standard monomials of a basis; None when infinite
Staircase = namedtuple("Staircase", "size")


def _to_raw(terms, packing):
    """Nonzero {exponent: Fraction} -> the primitive packed term list of its
    integer multiples: coprime coefficients, a positive lead."""
    coeffs = terms.values()
    dens = [c.denominator for c in coeffs]
    den = lcm(*dens)
    # a Polynomial's exponents are distinct and its coefficients nonzero
    nums = [c.numerator * (den // d) for c, d in zip(coeffs, dens)]
    items = sorted(zip(map(packing.pack, terms), nums), reverse=True)
    return kernel.make_primitive(items)[0]


def _monic_from_raw(raw, variables):
    lc = raw[0][1]
    return _trusted({e: Fraction(c, lc) for e, c in raw}, variables)


def _packed(run, order, nvars, exps):
    """run(packing) for a packing whose fields hold every entry of the
    exponent vectors `exps`, rerun at twice the width while an exponent
    outgrows them."""
    width = max(chain.from_iterable(exps), default=0).bit_length() + 1
    while True:
        try:
            return run(kernel.Packing(order, nvars, width))
        except kernel._Overflow:
            width *= 2


def buchberger(generators, order=None):
    """Reduced Groebner basis of the ideal the generators span.

    Deterministic for a fixed generator list and order.  The ring is the
    first generator's; an empty list raises ValueError, and an all-zero one
    yields the zero ideal (no generators).
    """
    order = order or MonomialOrder.grevlex()
    generators = list(generators)
    if not generators:
        raise ValueError("empty generator list: the ring is unknown")
    variables = generators[0].variables
    maps = []
    for g in generators:
        if g.variables != variables:
            raise ValueError("generators live in different rings")
        terms = g.term_map()
        if terms:
            maps.append(terms)
    if not maps:
        return GroebnerBasis(order, variables, [])

    def run(packing):
        return _buchberger([_to_raw(terms, packing) for terms in maps],
                           packing, False)

    final = _packed(run, order, len(variables), chain.from_iterable(maps))
    return GroebnerBasis(order, variables, final)


def jacobian_basis(f, order, *, with_f, until_finite=False):
    """buchberger of the partial derivatives of f, and of f itself when
    `with_f`: the same result, with the partials derived on f's packing
    (kernel.partials), so no Polynomial or Fraction is formed for them.  No
    exponent of a partial exceeds f's, so f's exponents size the fields.

    With `until_finite`, the run stops as soon as the leads found so far
    hold a pure power of every variable (the constant 1 is one of each) and
    returns None: those leads already prove the quotient finite-dimensional.
    A run that ends without them returns the reduced basis as usual, whose
    staircase is then infinite.
    """
    variables = f.variables
    terms = f.term_map()
    if not terms:
        return GroebnerBasis(order, variables, [])

    def run(packing):
        raw = _to_raw(terms, packing)
        raws = kernel.partials(raw, packing)
        if with_f:
            raws.append(raw)
        return _buchberger(raws, packing, until_finite)

    final = _packed(run, order, len(variables), terms)
    return None if final is None else GroebnerBasis(order, variables, final)


def _buchberger(raws, packing, until_finite):
    """The reduced basis of the nonzero primitive term lists `raws`, packed
    by `packing`, as unpacked term lists, or None (see jacobian_basis)."""
    impl = kernel.active()
    # canonical input order: the reduced basis is unique, and a repeat reduces
    # to 0 against its first copy, but the pair schedule becomes reproducible
    raws.sort()
    pack, unpack, divides = packing.pack, packing.unpack, packing.divides
    G = []
    leads = []  # G's leads as exponent tuples
    alive = {}  # queued pair (i, j) -> packed lcm of the two leads
    heap = []
    powers = set()  # variables with a pure-power lead so far

    def add_element(h):
        """Queue h's pairs and append it; True when until_finite may stop."""
        t = len(G)
        lm = h[0][0]
        lm_t = unpack(lm)
        lcms = []  # packed lcm of each lead with h's
        candidates = []  # (packed lcm, index, degree of the lcm) ascending
        for i, lead in enumerate(leads):
            lcm_i = tuple(map(max, lead, lm_t))
            lcms.append(pack(lcm_i))
            candidates.append((lcms[-1], i, sum(lcm_i)))
        candidates.sort()
        kept = []  # (index, packed lcm, degree, coprime)
        for pos, (lcm_i, i, degree) in enumerate(candidates):
            # coprime leads: the lcm is the product (a product past the
            # width has a guard bit set, so it equals no lcm)
            if lcm_i == G[i][0][0] + lm - packing.one:
                kept.append((i, lcm_i, degree, True))
            # a later lcm is not smaller, so one that divides lcm_i equals
            # it and is the next candidate's
            elif not (pos + 1 < t and candidates[pos + 1][0] == lcm_i
                      or any(divides(lcm_j, lcm_i)
                             for _, lcm_j, _, _ in kept)):
                kept.append((i, lcm_i, degree, False))
        # chain criterion against the old queue
        # (each pair's test reads only its own leads and h, so the visiting
        # order does not matter)
        for (i, j), lcm_ij in list(alive.items()):
            if (divides(lm, lcm_ij) and lcms[i] != lcm_ij
                    and lcms[j] != lcm_ij):
                del alive[i, j]
        G.append(h)
        leads.append(lm_t)
        for i, lcm_i, degree, coprime in kept:
            if coprime:
                continue  # Buchberger's first criterion
            alive[i, t] = lcm_i
            heappush(heap, (degree, lcm_i, i, t))
        support = [k for k, x in enumerate(lm_t) if x]
        if len(support) <= 1:
            powers.update(support or range(len(lm_t)))
        return until_finite and len(powers) == len(lm_t)

    for raw in raws:
        reduced, _, _ = impl.reduce_full(raw, G, packing)
        if reduced and add_element(reduced):
            return None

    while heap:
        _, lcm_ij, i, j = heappop(heap)
        if alive.pop((i, j), None) is None:
            continue
        s = impl.spoly(G[i], G[j], lcm_ij)
        if not s:
            continue
        reduced, _, _ = impl.reduce_full(s, G, packing)
        if reduced and add_element(reduced):
            return None

    # minimize: drop generators whose lead another lead divides
    kept_idx = []
    for i in sorted(range(len(G)), key=lambda i: G[i][0][0]):
        if not any(divides(G[k][0][0], G[i][0][0]) for k in kept_idx):
            kept_idx.append(i)
    minimal = [G[i] for i in kept_idx]
    # inter-reduce tails; leads survive because they are pairwise indivisible
    final = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        if others:
            g, _, _ = impl.reduce_full(g, others, packing)
        final.append(g)
    final.sort()  # by lead: the leads are distinct
    return [packing.unpack_terms(g) for g in final]


def staircase(basis):
    """The basis' staircase: its number of standard monomials, or None."""
    return _standard_monomials(basis.leading_exponents(), len(basis.variables))


def _standard_monomials(leads, nvars):
    """The number of monomials in nvars variables that no lead divides.

    The count does not depend on a monomial order, only on the leads.  It
    is infinite (size None) unless, for each variable, some lead divides a
    power of it; past the BASSINV_MAX_STAIRCASE cap StaircaseLimitError is
    raised.
    """
    return Staircase(kernel.active().enumerate_staircase(
        leads, nvars, _staircase_cap()))


def supported_only_at_origin(basis, dim):
    """True iff every variable is nilpotent modulo the ideal.

    For a finite-dimensional quotient this says the ideal's zero set is the
    origin alone.  `dim` is staircase(basis).size, which must be finite.

    The test reduces x_i^dim once per variable.  In the quotient A, the
    ideals x_i^k A of a nilpotent x_i shrink strictly until they reach 0,
    so its nilpotency index is at most dim; the normal form is unique, so
    x_i^dim lies in the ideal exactly when it reduces to 0.
    """
    if dim is None:
        raise ValueError("support test needs a finite-dimensional quotient")
    nvars = len(basis.variables)
    impl = kernel.active()

    def run(packing):
        raws = [packing.pack_terms(g) for g in basis._raw]
        for i in range(nvars):
            power = packing.pack(tuple(dim if j == i else 0
                                       for j in range(nvars)))
            if impl.reduce_full([(power, 1)], raws, packing)[0]:
                return False
        return True

    return _packed(run, basis.order, nvars,
                   chain([(dim,)], (e for g in basis._raw for e, _ in g)))
