"""Exception hierarchy shared by all haptolab modules."""


class HaptolabError(Exception):
    """Base class for all package errors."""


class OutOfDomainError(HaptolabError):
    """A sample point lies outside the grid rectangle."""


class SolverFailureError(HaptolabError):
    """An inner iterative solver failed to reach its residual target."""


class StabilityViolationError(HaptolabError):
    """A time step produced values outside the a priori bounds; the
    message names the field, t, the worst cell, its value and the bound."""


class InvalidInitialDataError(HaptolabError):
    """Initial data violates one of the construction hypotheses."""


class InvalidCurveError(HaptolabError):
    """A polyline is open, self-intersecting, or otherwise unusable."""


class EmptyLevelSetError(HaptolabError):
    """The requested level does not intersect the field range."""


class InterfaceExtinct(HaptolabError):
    """The zero level set vanished; the run ends gracefully."""


class DegenerateLevelSetError(HaptolabError):
    """|grad phi| collapsed inside the evaluation band; redistance needed."""


class BoundaryContactError(HaptolabError):
    """The interface entered the protective margin along the domain walls."""


class ConstantsInfeasibleError(HaptolabError):
    """No eps0 satisfying the envelope-constant constraints was found."""


class MissingSnapshotError(HaptolabError):
    """A trajectory lacks the snapshot a check requires."""


class ConfigError(HaptolabError):
    """A run configuration failed parsing or validation."""
