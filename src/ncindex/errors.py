"""Exception types shared across the package."""


class DomainError(Exception):
    """Base class for all mathematical-domain errors raised here."""


class TruncationOverflow(DomainError):
    """A product left the word-length ball the computation is confined to."""


class NotInvertibleInBudget(DomainError):
    """Neumann series did not converge within the configured budget."""


class NotAProjection(DomainError):
    """Idempotence or self-adjointness residual above tolerance."""


class NotUnitary(DomainError):
    """Unitarity residual above tolerance."""


class BadCover(DomainError):
    """Partition-of-unity or cocycle residual above tolerance."""


class DegreeMismatch(DomainError):
    """Cocycle degree incompatible with the manifold dimension."""


class UnsupportedDegree(DomainError):
    """The requested degree is outside the implemented dictionary range."""


class UnsupportedManifold(DomainError):
    """Only the circle (and gated products of circles) are supported."""


class IllConditioned(DomainError):
    """Singular values cluster at the kernel threshold; result unreliable."""


class PhaseJump(DomainError):
    """Determinant phase moved by >= pi between samples; sampling too coarse."""


class EndpointDegenerate(DomainError):
    """A path endpoint has spectrum inside the crossing window."""


class CrossingUnresolved(DomainError):
    """Adaptive refinement could not resolve the crossings: its budget
    ran out, or the path jumps."""
