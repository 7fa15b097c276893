#!/usr/bin/env python3
"""Benchmark and parity check of the term-arithmetic kernel backends.

Times full reduced-Groebner-basis runs (plus staircase enumeration) through
every kernel backend that imports, on a small ladder of ideals.  Each
backend's bases and staircases must match digests recorded from the
reference (pure-Python) kernel; with both backends built this also checks
that they agree with each other.  Usage:

    python benchmarks/bench_kernel.py [--quick] [--repeat N]

Exit code 0 when every backend matches every digest (the output then ends
with "identical=yes"), 2 on a mismatch.
"""

import argparse
import hashlib
import sys
import time

from bassinv import kernel
from bassinv.groebner import MonomialOrder, buchberger, staircase
from bassinv.polynomials import parse, partial_derivative
from bassinv.singularity import _lazard_basis

VARS = ("x", "y", "z")
ORDERS = {"grevlex": MonomialOrder.grevlex(), "lex": MonomialOrder.lex()}


def jacobian(text):
    f = parse(text, VARS)
    return [partial_derivative(f, i) for i in range(3)]


def tjurina_case(name, text, order_name, digest):
    """Basis of (f) + Jacobian ideal in a global order."""
    gens = [parse(text, VARS)] + jacobian(text)
    order = ORDERS[order_name]
    return name, order_name, lambda: buchberger(gens, order), digest


def lazard_case(name, text, digest):
    """The 4-variable homogenised Jacobian basis of the local Milnor length."""
    gens = jacobian(text)
    return name, "lazard", lambda: _lazard_basis(gens), digest


CASES = [
    tjurina_case("wahl graded fiber", "z^2+y^3+x^10", "grevlex",
                 "e5ce339311d8ae95"),
    tjurina_case("wahl deformed fiber", "z^2+y^3+x^10+x^7*y", "grevlex",
                 "32c7bf7b8a5b6f97"),
    tjurina_case("wahl deformed fiber", "z^2+y^3+x^10+x^7*y", "lex",
                 "de90375eace163da"),
    lazard_case("wahl deformed fiber", "z^2+y^3+x^10+x^7*y",
                "21318c15aa79a52c"),
    tjurina_case("brieskorn-pham 5,5,5", "x^5+y^5+z^5", "grevlex",
                 "0322eaecb864d352"),
    tjurina_case("elliptic cone + term", "x^3+y^3+z^3+x*y*z", "grevlex",
                 "9000739c60fd994e"),
    tjurina_case("dense quartic mix", "x^4+y^4+z^4+x^2*y^2+x*y*z",
                 "grevlex", "644abb7080bf1185"),
    tjurina_case("cyclic-style cubic", "x^3*y+y^3*z+z^3*x", "grevlex",
                 "6865a31f760fb353"),
    tjurina_case("big staircase 40x40", "x^41+y^41+z^2", "grevlex",
                 "31ddbc5fe72f4d31"),
]

HEAVY_CASES = [
    tjurina_case("big staircase 99x99", "x^100+y^100+z^2", "grevlex",
                 "cdc4461e6a71c9f4"),
    tjurina_case("deformed, heavier", "x^12+y^13+z^3+x^9*y^4", "grevlex",
                 "e4436a9829212b6f"),
    lazard_case("deformed, heavier", "x^12+y^13+z^3+x^9*y^4",
                "e6fd44cf17dc7017"),
]


def digest(basis, stairs):
    text = repr((tuple(str(g) for g in basis.generators), stairs.monomials))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_case(compute, backends, repeat):
    """Best-of-`repeat` time and output digest per backend."""
    timings, digests = {}, {}
    for backend in backends:
        with kernel.use(backend):
            best = None
            for _ in range(repeat):
                t0 = time.perf_counter()
                gb = compute()
                s = staircase(gb)
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            timings[backend] = best
            digests[backend] = digest(gb, s)
    return timings, digests


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true",
                    help="fewer repeats, skip the heavy cases")
    ap.add_argument("--repeat", type=int, default=None)
    args = ap.parse_args(argv)
    repeat = args.repeat or (1 if args.quick else 5)
    cases = CASES if args.quick else CASES + HEAVY_CASES
    backends = kernel.available_backends()

    print(f"kernel benchmark ({repeat} repeat(s), best-of timing; "
          f"backends: {', '.join(backends)})")
    header = f"{'case':30s} {'order':8s}"
    for backend in backends:
        header += f" {backend:>10s}"
    if len(backends) > 1:
        header += f" {'speedup':>8s}"
    print(header + "  identical")
    mismatches = []
    for name, order_name, compute, expected in cases:
        timings, digests = run_case(compute, backends, repeat)
        wrong = [b for b in backends if digests[b] != expected]
        mismatches.extend(f"{name} ({order_name}) on {b}: digest "
                          f"{digests[b]}, recorded {expected}" for b in wrong)
        line = f"{name:30s} {order_name:8s}"
        for backend in backends:
            line += f" {timings[backend] * 1000:8.2f}ms"
        if len(backends) > 1:
            line += f" {timings['python'] / timings['cython']:7.2f}x"
        print(f"{line}  {'NO' if wrong else 'yes'}")
    if mismatches:
        for problem in mismatches:
            print(f"MISMATCH {problem}", file=sys.stderr)
        return 2
    print("identical=yes for every case")
    return 0


if __name__ == "__main__":
    sys.exit(main())
