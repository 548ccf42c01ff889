"""Exception hierarchy shared across the package."""


class EcodriveError(Exception):
    """Base class for all package errors."""


class DomainError(EcodriveError, ValueError):
    """A coordinate falls outside the track or another declared domain."""


class InfeasibleSliceError(EcodriveError):
    """The frozen dynamics have no positive engine-on equilibrium speed."""


class InvalidSegmentError(EcodriveError, ValueError):
    """A speed segment violates its orientation or non-vanishing requirements."""


class InfeasibleCandidateError(EcodriveError):
    """No upper band limit can realize the requested average speed."""


class InfeasibleTargetError(EcodriveError):
    """The target average speed is at or above the engine-on equilibrium."""


class InvalidProfileError(EcodriveError, ValueError):
    """A speed-profile function vanishes or is otherwise unusable."""


class DivergenceRiskError(EcodriveError):
    """The perturbation ratio reaches magnitude one, so the series may diverge."""


class NumericError(EcodriveError):
    """Integration produced a non-finite state or exhausted its budget."""


class ScenarioError(EcodriveError, ValueError):
    """A scenario file is malformed or violates a documented invariant."""
