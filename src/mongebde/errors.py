"""Exception types shared across the package."""


class MongeBDEError(Exception):
    """Base class for all package errors."""


class UsageError(MongeBDEError):
    """Invalid arguments: mismatched variable lists, unknown variables, bad flags."""


class ClassificationError(MongeBDEError):
    """The jet is outside the branch a classifier operation requires."""


class InsufficientJetError(ClassificationError):
    """The decision needs jet coefficients beyond the truncation degree."""

    def __init__(self, needed_degree: int, message: str | None = None):
        self.needed_degree = needed_degree
        super().__init__(message or f"classification needs the jet up to degree {needed_degree}")


class NotAnIDEError(MongeBDEError):
    """BDE has a(0,0)=0, so the implicit-differential-equation reduction does not apply."""
