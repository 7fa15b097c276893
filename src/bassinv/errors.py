"""Exception hierarchy shared by the whole package.

Every condition the CLI can surface carries a stable process exit code:

  0  success (including the Smooth report, which is not a failure)
  2  input rejected: not an isolated singularity at the origin
  3  malformed input text or file
  4  command-line usage error
  5  domain/consistency error (deduction failure, limits, bad table inputs)
"""


class BassinvError(Exception):
    exit_code = 1


class PolynomialSyntaxError(BassinvError):
    """Raised by the polynomial parser; carries the 0-based offset."""

    exit_code = 3

    def __init__(self, message, position):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class UnknownVariableError(BassinvError):
    exit_code = 3


class GraphFormatError(BassinvError):
    exit_code = 3


class NotIsolatedError(BassinvError):
    exit_code = 2


class SingularLocusNotAtOriginError(BassinvError):
    exit_code = 2


class SmoothInput(BassinvError):
    """The hypersurface is nonsingular.  A report, not a failure."""

    exit_code = 0


class InconsistentInputsError(BassinvError):
    exit_code = 5


class InconsistentDeductionError(BassinvError):
    exit_code = 5


class NoGradedFiberError(BassinvError):
    exit_code = 5


class StaircaseLimitError(BassinvError):
    exit_code = 5

    @classmethod
    def over(cls, cap):
        """The error for a staircase of more than `cap` monomials."""
        return cls(f"staircase exceeds the enumeration cap ({cap}); "
                   f"raise BASSINV_MAX_STAIRCASE to allow larger quotients")


class UsageError(BassinvError):
    exit_code = 4
