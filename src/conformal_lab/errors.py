"""Exception hierarchy shared by all conformal_lab modules.

The base classes carry the command-line exit code: a LabError that is a
ValueError means the request itself was unusable (exit 2); every other
LabError is a numerical or geometric breakdown (exit 3).
"""


class LabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(LabError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class RangeError(LabError, ValueError):
    """Evaluation left the region where a field or chart is defined."""


class ConstructionError(LabError, RuntimeError):
    """A geometric object could not be built as requested."""


class TopologyError(LabError, RuntimeError):
    """Mesh gluing or connectivity violated a topological invariant."""


class ParameterError(LabError, ValueError):
    """Family parameters violate a feasibility constraint."""


class NormalizationError(LabError, RuntimeError):
    """Area normalization failed to bracket or converge."""


class MeshQualityError(LabError, RuntimeError):
    """A mesh element is degenerate beyond tolerance."""


class NumericError(LabError, RuntimeError):
    """An iterative numerical routine failed to converge."""


class UsageError(LabError, ValueError):
    """Operation invoked with inconsistent or incomplete arguments."""
