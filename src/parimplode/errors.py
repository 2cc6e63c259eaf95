"""Exception types shared across the package.

Every error below signals a distinct failure mode; callers that drive
experiments (the CLI, the labs) map them onto exit codes, so new error
conditions should reuse one of these classes rather than raising bare
ValueError from deep inside a computation.
"""


class ParimplodeError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpecError(ParimplodeError, ValueError):
    """A schedule/system description is malformed or out of range."""


class DegenerateMapError(ParimplodeError):
    """A coefficient matrix lost non-degeneracy (or an exact invariant of
    the composition, such as determinant multiplicativity or the Wronskian,
    failed beyond tolerance)."""


class DegenerateNormalizationError(ParimplodeError):
    """|d| is too small to normalize by; the map is far from the identity."""


class RecurrenceOverflowError(ParimplodeError):
    """A recurrence value left the perturbative regime (|q_k| > 1e100)."""


class IdentityViolationError(ParimplodeError):
    """A numerically verified identity failed beyond tolerance; this is an
    implementation bug or data corruption, not a property of the input."""


class OracleMismatchError(ParimplodeError):
    """Recurrence coefficients and the brute-force composition disagree."""


class NonPositiveValueError(ParimplodeError, ValueError):
    """A log-log fit was requested on values that are not strictly positive."""


class SweepError(ParimplodeError):
    """One or more points of a sweep failed; carries (N, error) pairs."""

    def __init__(self, failures):
        self.failures = list(failures)
        parts = ", ".join(f"N={n}: {e}" for n, e in self.failures)
        super().__init__(f"{len(self.failures)} sweep point(s) failed: {parts}")

    def __reduce__(self):
        # Exception pickles its message as args; rebuild from the pairs instead
        return SweepError, (self.failures,)


class UsageError(ParimplodeError, ValueError):
    """Bad command-line input; maps to exit code 1."""
