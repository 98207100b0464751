"""Exception hierarchy shared across the package."""


class GeometryError(Exception):
    """Base class for all geometric computation errors."""


class MetricError(GeometryError):
    """A metric argument is unusable for the requested operation.

    ``index`` locates the offending metric in a stack of metrics, counted
    over the flattened leading axes; it is 0 for a single metric.
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


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
