"""bassinv: exact invariants of isolated surface singularities over Q.

Computes Milnor and Tjurina numbers, geometric genus, du Bois invariant
tables and Euler characteristics with a fraction-free Buchberger engine,
and applies deformation invariance to decide Bass' question
(NK_0 = 0 yet N^2K_0 != 0) for a given singularity.
"""

from .errors import (BassinvError, GraphFormatError, InconsistentDeductionError,
                     InconsistentInputsError, NoGradedFiberError,
                     NotIsolatedError, PolynomialSyntaxError,
                     SingularLocusNotAtOriginError, SmoothInput,
                     StaircaseLimitError, UnknownVariableError, UsageError)
from .groebner import (GroebnerBasis, MonomialOrder, Staircase, buchberger,
                       staircase, supported_only_at_origin)
from .invariants import (BassVerdict, Bound, DuBoisTable, bass_verdict,
                         build_table, deduce_family)
from .polynomials import (Polynomial, WeightSystem, find_weights, parse,
                          partial_derivative, scaling_weights,
                          substitute_parameter)
from .resgraph import (ResolutionGraph, genus_sum, intersection_matrix,
                       is_negative_definite, load_graph, loop_count)
from .singularity import SingularityProfile, analyze, jacobian_ideal

__version__ = "0.1.0"
