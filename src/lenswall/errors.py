"""Exception hierarchy shared by all lenswall modules.

The CLI maps these onto exit statuses: ParameterError -> 2,
GenericityError (and subclasses) -> 3, ResourceBoundError -> 4.
NotRationalError is deliberately outside those families: only
Cyclotomic.as_rational raises it, on an element that should be rational
and is not, which is an arithmetic bug, not a user error.  The package's
eta sums are traces, rational by construction, and never raise it.
"""


class LenswallError(Exception):
    pass


class ParameterError(LenswallError):
    """A precondition on user-supplied parameters was violated."""


class OrderMismatchError(ParameterError):
    """Field operation on cyclotomic elements of different orders."""


class ConeError(ParameterError):
    """A period point lies outside the positive cone."""


class GenericityError(LenswallError):
    """A wall evaluation vanished where a generic value is required;
    choose a different starting point."""


class StabilizationError(GenericityError):
    """Wall-side signs did not stabilize within the step budget."""


class UniquenessViolationError(GenericityError):
    """The orbit did not cross the wall exactly once."""


class ResourceBoundError(LenswallError):
    """The requested computation exceeds the configured size budget."""


class NotRationalError(LenswallError):
    """A cyclotomic element expected to be rational has a nonzero
    coefficient above the constant term."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"element is not rational: {element!r}")
