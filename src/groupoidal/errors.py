"""Exception types shared across the workbench."""


class GroupoidalError(Exception):
    """Base class for all workbench errors."""


class UnknownIdError(GroupoidalError):
    """An arrow, unit, or point id is missing from the table it should be in."""


class CarrierMismatchError(GroupoidalError):
    """Algebra elements (or an element and its domain) disagree on carrier."""


class BracketNotFoundError(GroupoidalError):
    """No arrow carries one point to the other (includes anchor mismatches)."""


class StructureBrokenError(GroupoidalError):
    """An internal consistency assertion failed.

    Raised when the input object violates an axiom that the requested
    operation relies on: a bracket that is not unique (broken freeness),
    an orbit measure that depends on the chosen representative (broken
    Haar invariance), or block convolution disagreeing with the direct
    product on the linking groupoid.
    """


class NonFiniteError(GroupoidalError, ValueError):
    """A number left the finite floats.

    Raised for a matrix with non-finite entries before it reaches LAPACK,
    and in place of Python's ``OverflowError`` when a suite's float sums
    overflow, so huge Haar weights or values end in a named error rather
    than a traceback.
    """


class FixtureFormatError(GroupoidalError):
    """A fixture file or inline fixture object is malformed."""
