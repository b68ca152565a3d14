"""Exception types shared across the package."""


class ApproxNewtonError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(ApproxNewtonError):
    """Dimension mismatch or empty-size argument."""


class DomainError(ApproxNewtonError):
    """Scalar parameter outside its admissible range."""


class RankDeficient(ApproxNewtonError):
    """Matrix does not have full column rank where strong convexity needs it."""


class LabelDomain(ApproxNewtonError):
    """Classification labels are not in {-1, +1}."""


class ParseError(ApproxNewtonError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnsupportedLabels(ApproxNewtonError):
    """Dataset has more than two classes and no binarization rule was given."""


class NotPositiveDefinite(ApproxNewtonError):
    """A matrix that must be symmetric positive definite is not."""


class ReferenceNotConverged(ApproxNewtonError):
    """Exact Newton failed to reach the reference tolerance for x*."""


class InsufficientData(ApproxNewtonError):
    """Trace too short for rate classification."""
