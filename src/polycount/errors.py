"""Error types shared across the package.

Every error class carries the process exit code the CLI maps it to, so
library failures and command-line failures stay in sync.
"""


class PolycountError(Exception):
    exit_code = 1


class ValidationError(PolycountError):
    """Bad input: wrong residue class, non-prime modulus, and so on."""

    exit_code = 2


class InvalidPrime(ValidationError):
    pass


class InvalidDegree(ValidationError):
    pass


class InvalidInput(ValidationError):
    pass


class BadResidue(ValidationError):
    pass


class OrderMismatch(ValidationError):
    pass


class ZeroHasNoLog(ValidationError):
    pass


class SubfieldViolation(ValidationError):
    pass


class CapExceeded(PolycountError):
    """An operation would enumerate more elements than its cap allows."""

    exit_code = 3


class EnumerationCapExceeded(CapExceeded):
    pass


class OracleCapExceeded(CapExceeded):
    pass


class ListingCapExceeded(CapExceeded):
    pass


class NotApplicable(PolycountError):
    """A closed form or table was requested outside its hypotheses."""

    exit_code = 4


class TableNotApplicable(NotApplicable):
    pass


class UnsupportedGeneralQ(NotApplicable):
    pass


class OutOfCatalog(NotApplicable):
    pass


class VerificationFailed(PolycountError):
    exit_code = 5


class InvariantError(PolycountError):
    """An internal exactness invariant broke; this is always a bug."""

    exit_code = 6


class NoCandidateMatch(InvariantError):
    pass
