"""Exception types raised across the pipeline."""


class ShockGraphError(Exception):
    """Base class for all library errors."""


class DegenerateInputError(ShockGraphError):
    """Input geometry collapses below the coincidence tolerance."""


class InvalidInputError(ShockGraphError):
    """Input violates a structural precondition (e.g. crossing contours)."""


class WriteError(InvalidInputError):
    """An output file could not be written."""


class StructuralError(ShockGraphError):
    """A graph invariant was violated (isolated node, dangling link, ...)."""


class NonterminationError(ShockGraphError):
    """The propagation engine exceeded its event budget."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class FeatureOverflowError(ShockGraphError):
    """A node's degree exceeds what the fixed-length feature layout covers."""


class ResolutionError(ShockGraphError):
    """Grid oracle resolution would produce an excessive cell count."""
