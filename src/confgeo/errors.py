"""Exception hierarchy.

Errors split into two families: bad input (dimension, parameter range,
chart domain) and computation problems discovered mid-pipeline (loss of
regularity, failed internal cross-checks, infeasible constructions).
The CLI maps the first family to exit code 1 and the second to exit 2.
"""


class ConfGeoError(Exception):
    """Base class for all library errors."""


class InputError(ConfGeoError):
    """Invalid user input (malformed point, unknown name, bad file)."""


class DimensionMismatchError(InputError):
    """Operands carry incompatible signatures or dimensions."""


class ValidationError(InputError):
    """Parameter outside its documented range; message names the bound."""


class DomainError(InputError):
    """Point outside a chart's parameter domain or too close to its boundary."""


class ChartDomainError(DomainError):
    """Point outside a conformal map's domain; message names the excluded set."""


class ComputationError(ConfGeoError):
    """Numerical pipeline failure (not a usage error)."""


class RegularityError(ComputationError):
    """Degenerate metric, light-like pivot, or vanishing conformal factor."""


class ConsistencyError(ComputationError):
    """Independent computation routes disagree beyond tolerance."""


class ConstructionError(ComputationError):
    """A requested catalog construction is infeasible; message carries the obstruction."""
