"""Exception types shared across the package."""


class GencoagError(Exception):
    """Base class for all package errors."""


class DomainError(GencoagError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(GencoagError, ValueError):
    """Inconsistent or invalid run configuration."""


class InitialDataError(GencoagError, ValueError):
    """Initial profile is not admissible (not in the weighted L1 space)."""


class BoundViolation(GencoagError):
    """A run breaks an a-priori bound; the message holds one FAIL line per broken bound."""


class GaugeConstructionError(GencoagError, RuntimeError):
    """Tail data does not support a de la Vallee-Poussin construction."""


class StiffnessError(GencoagError, RuntimeError):
    """Time stepper exhausted its shrink budget.

    Carries the time and the last step tried at failure, which a sweep records.
    """

    def __init__(self, message, time=None, dt=None):
        super().__init__(message)
        self.time = time
        self.dt = dt
