"""Exception types shared across the package."""


class MeshCompatibilityError(ValueError):
    """Fields sampled on different meshes were combined."""


class NonFiniteFieldError(ValueError):
    """A nodal or quadrature value is NaN or infinite."""


class BisectionError(RuntimeError):
    """The Luxemburg root search failed to bracket or close, which
    signals an invalid exponent field (the scaled modular must be strictly
    decreasing in the scaling parameter)."""


class BoundViolationError(AssertionError):
    """A certified two-sided bound failed beyond tolerance; this points
    at a quadrature inconsistency, not a modelling choice."""


class SolveError(RuntimeError):
    """Nonlinear solve did not reach the requested residual."""


class DeltaTooLargeError(RuntimeError):
    """Interior positivity of the strip-loaded torsion field failed.
    Callers should halve the strip width and retry."""


class OrderingError(RuntimeError):
    """Lower barrier exceeded upper barrier somewhere; the scale
    constant is too small and should be escalated."""


class MixedSignError(ValueError):
    """A singular exponent changes sign inside the domain."""

    key = None      # set by validate_hypotheses to the exponent, as "alpha[0]"


class EnvelopeError(ValueError):
    """Nonlinearity escapes its two-sided growth envelope."""


class CalibrationError(RuntimeError):
    """Barrier calibration search exhausted without success at this
    resolution."""


class ConfigError(ValueError):
    """Configuration rejected; ``path`` locates the offending key."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")
