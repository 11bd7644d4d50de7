"""Exception types shared across the toolkit."""


class MaxEntError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(MaxEntError, ValueError):
    """An argument's trailing dimension disagrees with the model."""


class UnsupportedFamilyError(MaxEntError):
    """The requested operation has no closed form for this model family."""


class NotPositiveDefiniteError(MaxEntError, ValueError):
    """A matrix required to be symmetric positive definite is not."""


class DivergedTrajectoryError(MaxEntError):
    """A simulated state became non-finite or left the admissible region."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"trajectory diverged at step {step}")


class NotHurwitzError(MaxEntError):
    """A closed-loop matrix required to be (shifted) Hurwitz is not."""


class NoConvergenceError(MaxEntError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, message, trace=None):
        self.trace = trace if trace is not None else []
        super().__init__(message)


class RankDeficientError(MaxEntError):
    """A regression matrix does not satisfy the required rank condition."""

    def __init__(self, rank, needed):
        self.rank = rank
        self.needed = needed
        super().__init__(f"rank {rank} < required {needed}")


class RankStallError(MaxEntError):
    """Data collection hit its window budget before reaching full rank."""


class AllCharacteristicsBlewUpError(MaxEntError):
    """Every optimizer start produced a blown-up characteristic curve."""


class InfeasibleTransformError(MaxEntError):
    """The Legendre transform is +inf at every probed costate."""


class DegenerateCflError(MaxEntError):
    """The CFL speed estimate vanished for a costate-dependent Hamiltonian."""


class ConfigError(MaxEntError, ValueError):
    """An experiment configuration file or flag is invalid."""
