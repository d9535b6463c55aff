"""Exception types shared across the toolkit."""


class OscidiffError(Exception):
    """Base class for all toolkit errors."""


class AsymmetricCoefficient(OscidiffError):
    """Coefficient matrix is not symmetric at a sampled point."""


class EllipticityViolation(OscidiffError):
    """Sampled Rayleigh quotient leaves the declared [lambda, Lambda] range."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DimensionMismatch(OscidiffError):
    """Operation requires a different spatial dimension."""


class RegimeMismatch(OscidiffError):
    """Cell solutions / tensors from incompatible regimes were combined."""


class SolverDiverged(OscidiffError):
    """Iterative linear solver exceeded its iteration budget."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class PeriodicityNotReached(OscidiffError):
    """GMRES on the critical period map missed its tolerance; ``defect`` is the true one."""

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class NewtonStalled(OscidiffError):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, message, step=None, residual=None):
        super().__init__(message)
        self.step = step
        self.residual = residual


class StepRejected(OscidiffError):
    """Backtracking line search failed to produce residual decrease."""


class BoundViolated(OscidiffError):
    """A proven a priori bound failed with more than the allowed slack."""


class SymmetryViolated(OscidiffError):
    """Homogenized matrix expected to be symmetric is not."""


class SkewFormulaMismatch(OscidiffError):
    """Skew part of the critical matrix disagrees with the time-coupling integral."""


class ConfigError(OscidiffError):
    """Experiment configuration failed validation."""
