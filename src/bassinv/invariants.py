"""du Bois invariant tables, the family deduction engine, and the Bass verdict.

A table is assembled from four numbers (tau, p_g, g, l) through closed-form
identities: the invariants vanish off the two diagonals p+q in {1,2}, both
diagonal entries with q < 0 equal tau, b^{0,1} = p_g - g - l, and
b^{2,0} = tau - p_g.  A non-negative grading forces the alternating column
sums to vanish, pinning b^{1,1} and b^{1,0} as well; without it b^{1,0} is
only bounded by tau and b^{1,1} stays unknown until the deformation argument
supplies the Euler characteristics chi^p, which are constant in suitably
nice families.  `deduce_family(values, tables, graded_index)` carries
chi^p from the graded table `tables[graded_index]` to the table of every
fiber and returns the tightened tables in the order of `values`.  The Bass
verdict reads NK_0 from b^{1,1} and NK_{-1} from b^{0,1}.
"""

from collections import namedtuple

from .errors import (InconsistentDeductionError, InconsistentInputsError,
                     NoGradedFiberError)


class Bound(namedtuple("Bound", "kind lo hi", defaults=(None, None))):
    """Exact value, closed interval, or unknown; endpoints are ints."""

    __slots__ = ()

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
        """Endpoints, or the given defaults for the unknown case."""
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


_ZERO = Bound.exact(0)
# the cells of the text grid, row by row from q = 2 down to q = -3, each
# row from p = 0 to p = 4
_P_RANGE = range(5)
_WINDOW = [(p, q) for q in range(2, -4, -1) for p in _P_RANGE]


class DuBoisTable(namedtuple("DuBoisTable", "tau p_g g l graded b01 b10 b11 "
                                           "b20 chi0 chi1 chi2")):
    __slots__ = ()

    def _cell(self, p, q, tau):
        """b^{p,q}, or None where the pattern forces it to zero: off the
        diagonals p+q in {1,2} and on the row q = 2.  Below q = 0 both
        diagonals hold `tau`, the Bound of self.tau; the four cells with
        q in {0, 1} are stored."""
        if p + q not in (1, 2) or q > 1:
            return None
        if q < 0:
            return tau
        return getattr(self, f"b{p}{q}")

    def _window(self):
        """The cells of _WINDOW, in its order, sharing one Bound of tau."""
        tau = Bound.exact(self.tau)
        return [self._cell(p, q, tau) for p, q in _WINDOW]

    def entry(self, p, q):
        """b^{p,q} with the forced pattern filled in."""
        cell = self._cell(p, q, Bound.exact(self.tau))
        return _ZERO if cell is None else cell

    def chi(self, p):
        if p in (0, 1, 2):
            return (self.chi0, self.chi1, self.chi2)[p]
        return _ZERO

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
        cells = ["·" if cell is None else cell.render()
                 for cell in self._window()]
        width = max(map(len, cells))
        header = "  q\\p |" + "".join(f" {p:>{width}}" for p in _P_RANGE)
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        step = len(_P_RANGE)
        for i in range(0, len(cells), step):
            row = "".join(f" {c:>{width}}" for c in cells[i:i + step])
            lines.append(f"  q={_WINDOW[i][1]:>2} |{row}")
        chis = ", ".join(f"chi^{p} = {self.chi(p).render()}" for p in range(3))
        lines.append(f"  {chis}, chi^p = 0 for p >= 3")
        lines.append(f"  alpha (b01 - b11): {self.alpha().render()}")
        return "\n".join(lines)

    def to_json(self):
        entries = []
        for (p, q), cell in zip(_WINDOW, self._window()):
            entry = (_ZERO if cell is None else cell).to_json()
            entry.update(p=p, q=q, forced_zero=cell is None)
            entries.append(entry)
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


def _empty_range(what, lo, hi):
    return InconsistentDeductionError(
        f"{what}: empty range [{lo}, {hi}] "
        f"(the chi-invariance assumption fails for this input)")


def _tighten(table, chi, what):
    """Transport chi^p and solve for b01, b10, b11 within their bounds.

    b01 = -chi^0 must lie in the current b01.  With n = chi^1, the
    conditions b11 = b10 - n, 0 <= b10 <= tau and b11 >= 0 inside the
    current bounds leave b10 in [max(0, n, lo10, lo11 + n),
    min(tau, hi10, hi11 + n)] and b11 in that interval shifted by -n.
    """
    chi0, chi1, chi2 = chi
    for p, new in ((0, chi0), (1, chi1), (2, chi2)):
        old = table.chi(p)
        if old.is_exact and old.value != new.value:
            raise InconsistentDeductionError(
                f"{what}: chi^{p} = {old.value} contradicts the graded "
                f"fiber's chi^{p} = {new.value}")
    b01 = -chi0.value
    lo, hi = table.b01.bounds_or(0, b01)
    if not lo <= b01 <= hi:
        raise _empty_range(f"{what} b01", max(lo, b01), min(hi, b01))
    n, tau = chi1.value, table.tau
    lo10, hi10 = table.b10.bounds_or(0, tau)
    lo11, hi11 = table.b11.bounds_or(0, tau - n)
    lo, hi = max(0, n, lo10, lo11 + n), min(tau, hi10, hi11 + n)
    if lo > hi:
        raise _empty_range(f"{what} b11", lo - n, hi - n)
    return table._replace(b01=Bound.exact(b01), b10=Bound.interval(lo, hi),
                          b11=Bound.interval(lo - n, hi - n),
                          chi0=chi0, chi1=chi1, chi2=chi2)


def deduce_family(values, tables, graded_index):
    """Transport chi^p from the graded fiber and squeeze b^{1,1}, b^{1,0}.

    `tables[i]` is the table of the fiber at `values[i]`; the one at
    `graded_index` must be graded and fully exact.  Returns the tightened
    tables as a list in the order of `values`, tightening each distinct
    table once; an error names the first fiber of its table.  Intervals
    only shrink; exact entries are never altered (a contradiction raises
    InconsistentDeductionError instead).  Idempotent.
    """
    if not 0 <= graded_index < len(tables):
        raise NoGradedFiberError("no designated graded fiber")
    graded = tables[graded_index]
    if not (graded.graded and graded.fully_exact()):
        raise NoGradedFiberError(
            "the designated graded fiber's table is not fully exact")
    chi = (graded.chi0, graded.chi1, graded.chi2)
    tight = {}
    for v, table in zip(values, tables, strict=True):
        if table not in tight:
            tight[table] = _tighten(table, chi, f"fiber {v}")
    return [tight[table] for table in tables]


# nk0_vanishes is "yes", "no" or "undetermined"; nk_minus1_rank is the
# Bound b^{0,1}; answer_to_bass is "negative", "not_a_counterexample" or
# "undetermined"
BassVerdict = namedtuple("BassVerdict", "nk0_vanishes nk_minus1_rank "
                         "answer_to_bass k0_polynomial_ring_description")


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
