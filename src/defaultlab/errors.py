"""Exception types shared across the package."""


class DefaultLabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(DefaultLabError):
    """A config value is out of range or inconsistent with the rest."""


class GridMismatchError(DefaultLabError):
    """Two objects live on different time grids or have incompatible shapes."""


class DomainError(DefaultLabError):
    """An input leaves the mathematical domain of an operation."""


class NotSupermartingaleError(DefaultLabError):
    """Exact Doob decomposition found a negative compensator increment."""


class BoundaryError(DefaultLabError):
    """A survival process left (0, 1), violating the standing hypotheses."""


class UnsupportedProcessError(DefaultLabError):
    """A process is not expressible in the increment model's drivers."""


class InvalidFamilyError(DefaultLabError):
    """A candidate martingale family breaks monotonicity or normalization."""


class SolverInconsistencyError(DefaultLabError):
    """An exact invariant failed on the oracle, indicating a solver bug.

    ``report`` is the invariant report of the family that failed, when a
    family verification raised: every check with its worst violation.
    """

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report
