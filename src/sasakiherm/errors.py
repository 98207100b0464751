"""Exception hierarchy shared across the package."""


class GeometryError(Exception):
    """Base class for all geometric computation errors."""


class MetricError(GeometryError):
    """A metric argument is unusable for the requested operation."""


class SingularMetricError(MetricError):
    """The metric is numerically singular (non-invertible)."""


class IndefiniteMetricError(MetricError):
    """The metric has a negative direction where positivity is required."""


class InvalidParameterError(GeometryError):
    """A structure parameter is outside its admissible range."""


class ChartDomainError(GeometryError):
    """Coordinates fall outside the valid domain of a chart."""


class ConsistencyError(GeometryError):
    """Two supposedly equivalent computation paths disagree.

    Raised when an internal cross-check fails; indicates a bug, not bad
    user input.
    """
