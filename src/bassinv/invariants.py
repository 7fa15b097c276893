"""du Bois invariant tables, the family deduction engine, and the Bass verdict.

A table is assembled from four numbers (tau, p_g, g, l) through closed-form
identities: the invariants vanish off the two diagonals p+q in {1,2}, both
diagonal entries with q < 0 equal tau, b^{0,1} = p_g - g - l, and
b^{2,0} = tau - p_g.  A non-negative grading forces the alternating column
sums to vanish, pinning b^{1,1} and b^{1,0} as well; without it b^{1,0} is
only bounded by tau and b^{1,1} stays unknown until the deformation argument
supplies the Euler characteristics chi^p, which are constant in suitably
nice families.  The Bass verdict reads NK_0 from b^{1,1} and NK_{-1} from
b^{0,1}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (InconsistentDeductionError, InconsistentInputsError,
                     NoGradedFiberError)


@dataclass(frozen=True)
class Bound:
    """Exact value, closed interval, or unknown; endpoints are ints."""

    kind: str
    lo: int = None
    hi: int = None

    @classmethod
    def exact(cls, n):
        return cls("exact", int(n), int(n))

    @classmethod
    def interval(cls, lo, hi):
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        if lo == hi:
            return cls.exact(lo)
        return cls("interval", lo, hi)

    @classmethod
    def unknown(cls):
        return cls("unknown")

    @property
    def is_exact(self):
        return self.kind == "exact"

    @property
    def value(self):
        if not self.is_exact:
            raise ValueError(f"no exact value in {self}")
        return self.lo

    def bounds_or(self, default_lo, default_hi):
        """Endpoints with fallbacks for the unknown case; hi may be None (unbounded)."""
        if self.kind == "unknown":
            return default_lo, default_hi
        return self.lo, self.hi

    def render(self):
        if self.kind == "exact":
            return str(self.lo)
        if self.kind == "interval":
            return f"[{self.lo},{self.hi}]"
        return "?"

    def to_json(self):
        if self.kind == "exact":
            return {"kind": "exact", "value": self.lo}
        if self.kind == "interval":
            return {"kind": "interval", "lo": self.lo, "hi": self.hi}
        return {"kind": "unknown"}


def _intersect(a, b, what):
    """Meet of two bounds over the naturals; raises on empty intersection."""
    alo, ahi = a.bounds_or(0, None)
    blo, bhi = b.bounds_or(0, None)
    lo = max(alo, blo)
    if ahi is None:
        hi = bhi
    elif bhi is None:
        hi = ahi
    else:
        hi = min(ahi, bhi)
    if hi is None:
        return Bound.unknown() if lo == 0 else Bound("interval", lo, None)
    if lo > hi:
        raise InconsistentDeductionError(
            f"{what}: empty range [{lo}, {hi}] "
            f"(the chi-invariance assumption fails for this input)")
    return Bound.interval(lo, hi)


# the rendering window of the text grid
_P_RANGE = range(0, 5)
_Q_RANGE = range(2, -4, -1)


@dataclass(frozen=True)
class DuBoisTable:
    tau: int
    p_g: int
    g: int
    l: int
    graded: bool
    b01: Bound
    b10: Bound
    b11: Bound
    b20: Bound
    chi0: Bound
    chi1: Bound
    chi2: Bound

    _STORED = ((0, 1), (1, 0), (1, 1), (2, 0))

    def entry(self, p, q):
        """b^{p,q} with the forced pattern filled in."""
        if (p, q) == (0, 1):
            return self.b01
        if (p, q) == (1, 0):
            return self.b10
        if (p, q) == (1, 1):
            return self.b11
        if (p, q) == (2, 0):
            return self.b20
        if q < 0 and p in (1 - q, 2 - q):
            return Bound.exact(self.tau)
        return Bound.exact(0)

    def is_forced_zero(self, p, q):
        return (p, q) not in self._STORED and not (
            q < 0 and p in (1 - q, 2 - q))

    def chi(self, p):
        if p == 0:
            return self.chi0
        if p == 1:
            return self.chi1
        if p == 2:
            return self.chi2
        return Bound.exact(0)

    def alpha(self):
        """b^{0,1} - b^{1,1}, Steenbrink's analytic invariant."""
        if self.b01.is_exact and self.b11.is_exact:
            return Bound.exact(self.b01.value - self.b11.value)
        return Bound.unknown()

    def fully_exact(self):
        return all(b.is_exact for b in
                   (self.b01, self.b10, self.b11, self.b20,
                    self.chi0, self.chi1, self.chi2))

    def render_text(self):
        lines = [f"du Bois invariants (tau={self.tau}, p_g={self.p_g}, "
                 f"g={self.g}, l={self.l}, "
                 f"{'graded' if self.graded else 'not graded'})"]
        cells = {}
        for q in _Q_RANGE:
            for p in _P_RANGE:
                cells[(p, q)] = ("·" if self.is_forced_zero(p, q)
                                 else self.entry(p, q).render())
        width = max(len(v) for v in cells.values())
        header = "  q\\p |" + "".join(f" {p:>{width}}" for p in _P_RANGE)
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for q in _Q_RANGE:
            row = "".join(f" {cells[(p, q)]:>{width}}" for p in _P_RANGE)
            lines.append(f"  q={q:>2} |{row}")
        chis = ", ".join(f"chi^{p} = {self.chi(p).render()}" for p in range(3))
        lines.append(f"  {chis}, chi^p = 0 for p >= 3")
        lines.append(f"  alpha (b01 - b11): {self.alpha().render()}")
        return "\n".join(lines)

    def to_json(self):
        entries = []
        for q in _Q_RANGE:
            for p in _P_RANGE:
                cell = self.entry(p, q).to_json()
                cell.update(p=p, q=q, forced_zero=self.is_forced_zero(p, q))
                entries.append(cell)
        return {
            "inputs": {"tau": self.tau, "p_g": self.p_g, "g": self.g,
                       "l": self.l, "graded": self.graded},
            "entries": entries,
            "chi": {str(p): self.chi(p).to_json() for p in range(3)},
            "chi_above_2": 0,
            "alpha": self.alpha().to_json(),
        }


def build_table(tau, p_g, g, l, graded):
    """Assemble the invariant table from the four lengths.

    Requires p_g <= tau and p_g >= g + l (otherwise b^{2,0} or b^{0,1} would
    be negative, which no length can be).
    """
    for name, v in (("tau", tau), ("p_g", p_g), ("g", g), ("l", l)):
        if not isinstance(v, int) or v < 0:
            raise InconsistentInputsError(f"{name} must be a natural number")
    if p_g > tau:
        raise InconsistentInputsError(f"p_g = {p_g} exceeds tau = {tau}")
    if p_g < g + l:
        raise InconsistentInputsError(
            f"p_g = {p_g} < g + l = {g + l}: b^{{0,1}} would be negative")
    b01 = Bound.exact(p_g - g - l)
    b20 = Bound.exact(tau - p_g)
    if graded:
        # alternating column sums vanish for graded rings: at q=1 this gives
        # b11 = b01, at q=0 it gives b10 = b20
        b11 = Bound.exact(p_g - g - l)
        b10 = Bound.exact(tau - p_g)
        chi1 = Bound.exact((tau - p_g) - (p_g - g - l))
    else:
        b11 = Bound.unknown()
        b10 = Bound.interval(0, tau)
        chi1 = Bound.unknown()
    return DuBoisTable(
        tau=tau, p_g=p_g, g=g, l=l, graded=graded,
        b01=b01, b10=b10, b11=b11, b20=b20,
        chi0=Bound.exact(-(p_g - g - l)),
        chi1=chi1,
        chi2=Bound.exact(-p_g),
    )


@dataclass(frozen=True)
class Fiber:
    value: Fraction
    profile: object  # SingularityProfile
    table: DuBoisTable


@dataclass(frozen=True)
class FamilyReport:
    family: object  # the Polynomial in Q[x,y,z,<parameter>]
    fibers: tuple
    graded_fiber_index: int
    chi_assumed_invariant: bool


def _range_or_fail(lo, hi, what):
    if lo > hi:
        raise InconsistentDeductionError(
            f"{what}: empty range [{lo}, {hi}] "
            f"(the chi-invariance assumption fails for this input)")
    return Bound.interval(lo, hi)


def _tighten(table, chi, what):
    """Fixed-point pass over {chi^1 transport, 0 <= b10 <= tau, b11 = b10 - chi^1}."""
    chi0, chi1, chi2 = chi
    for p, new in ((0, chi0), (1, chi1), (2, chi2)):
        old = table.chi(p)
        if old.is_exact and old.value != new.value:
            raise InconsistentDeductionError(
                f"{what}: chi^{p} = {old.value} contradicts the graded "
                f"fiber's chi^{p} = {new.value}")
    b01 = _intersect(table.b01, Bound.exact(-chi0.value), f"{what} b01")
    b10, b11 = table.b10, table.b11
    n = chi1.value
    while True:
        lo10, hi10 = b10.bounds_or(0, table.tau)
        hi10 = table.tau if hi10 is None else min(hi10, table.tau)
        lo10 = max(lo10, 0)
        new_b11 = _intersect(
            b11, _range_or_fail(max(0, lo10 - n), hi10 - n, f"{what} b11"),
            f"{what} b11")
        lo11, hi11 = new_b11.bounds_or(0, None)
        hi = table.tau if hi11 is None else min(table.tau, hi11 + n)
        new_b10 = _intersect(
            b10, _range_or_fail(max(0, lo11 + n), hi, f"{what} b10"),
            f"{what} b10")
        if (new_b10, new_b11) == (b10, b11):
            break
        b10, b11 = new_b10, new_b11
    return replace(table, b01=b01, b10=b10, b11=b11,
                   chi0=chi0, chi1=chi1, chi2=chi2)


def deduce_family(report):
    """Transport chi^p from the graded fiber and squeeze b^{1,1}, b^{1,0}.

    Intervals only shrink; exact entries are never altered (a contradiction
    raises InconsistentDeductionError instead).  Idempotent.
    """
    if not report.chi_assumed_invariant:
        raise InconsistentDeductionError(
            "family deduction requires the chi-invariance acknowledgment")
    idx = report.graded_fiber_index
    if not 0 <= idx < len(report.fibers):
        raise NoGradedFiberError("no designated graded fiber")
    graded = report.fibers[idx].table
    if not (graded.graded and graded.fully_exact()):
        raise NoGradedFiberError(
            "the designated graded fiber's table is not fully exact")
    chi = (graded.chi0, graded.chi1, graded.chi2)
    fibers = []
    for i, fiber in enumerate(report.fibers):
        what = f"fiber {fiber.value}"
        fibers.append(replace(fiber, table=_tighten(fiber.table, chi, what)))
    return replace(report, fibers=tuple(fibers))


@dataclass(frozen=True)
class BassVerdict:
    nk0_vanishes: str           # "yes" | "no" | "undetermined"
    nk_minus1_rank: Bound       # = b^{0,1}
    answer_to_bass: str         # "negative" | "not_a_counterexample" | "undetermined"
    k0_polynomial_ring_description: str


def bass_verdict(table):
    """Decide Bass' question for the ring behind the table.

    NK_0 vanishes iff b^{1,1} = 0 and NK_{-1} has rank b^{0,1}; the answer is
    negative exactly when NK_0 = 0 and NK_{-1} != 0.  The K_0(R[t1,t2])
    description is only emitted once NK_0 = 0 is established.
    """
    b11, b01 = table.b11, table.b01
    if b11.is_exact:
        nk0 = "yes" if b11.value == 0 else "no"
    else:
        nk0 = "undetermined"
    if nk0 == "yes" and b01.is_exact and b01.value >= 1:
        answer = "negative"
        n = b01.value
        summand = "stF[s,t]" if n == 1 else f"(stF[s,t])^{{⊕ {n}}}"
        description = (f"K_0(R)=K_0(R[t]) but K_0(R[t_1,t_2]) ≅ "
                       f"K_0(R) ⊕ {summand}")
    elif nk0 == "yes" and b01.is_exact and b01.value == 0:
        answer = "not_a_counterexample"
        description = ("NK_0 = NK_{-1} = 0: K_0(R[t_1,t_2]) ≅ K_0(R); "
                       "not a counterexample")
    elif nk0 == "no":
        answer = "not_a_counterexample"
        description = (f"NK_0 ≠ 0 (b^{{1,1}} = {b11.value}): "
                       f"criterion not met")
    else:
        answer = "undetermined"
        description = ("b^{1,1} or b^{0,1} not pinned down; run the family "
                       "deduction or supply a graded input")
    return BassVerdict(
        nk0_vanishes=nk0,
        nk_minus1_rank=b01,
        answer_to_bass=answer,
        k0_polynomial_ring_description=description,
    )
