"""Exception hierarchy and value rules shared across the package.

Every error a caller is expected to handle derives from :class:`DocGraphError`,
so the CLI can catch one type and exit with status 1. :func:`is_int`,
:func:`is_count` and :func:`is_finite_real` are the one definition of each
rule that inputs are checked with; each caller raises its own error class.
"""

import numbers
import sys


class DocGraphError(Exception):
    """Base class for all docgraph errors."""


class ShapeError(DocGraphError):
    """Tensor shapes do not conform to an operation's contract."""


class NumericError(DocGraphError):
    """Domain violation or non-finite value in numeric computation."""


class CorpusError(DocGraphError):
    """Malformed corpus file, unknown label, or invalid split request."""


class GraphError(DocGraphError):
    """Invalid adjacency / edge-weight data for a document graph."""


class ModelError(DocGraphError):
    """Model configuration or parameter-set inconsistency."""


class TrainingError(DocGraphError):
    """Invalid training request (empty sets, missing class, zero epochs)."""


class CheckpointError(DocGraphError):
    """Unreadable, truncated, or version-incompatible checkpoint file."""


class EvaluationError(DocGraphError):
    """Evaluation request that cannot be satisfied (empty data, class mismatch)."""


def is_int(value) -> bool:
    """Whether ``value`` is an integer, not a bool (``json`` reads ``true`` as one)."""
    # the exact type first: the ABC check costs about 0.7 us, and set-up runs
    # this for every document it encodes
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def is_count(value) -> bool:
    """Whether ``value`` is an integer from 1 to ``sys.maxsize``: a size that
    can be an array shape, a loop bound or ``str.split``'s C ssize_t maxsplit."""
    return is_int(value) and 1 <= value <= sys.maxsize


def is_finite_real(value) -> bool:
    """Whether ``value`` is a real number, not a bool, within the float range:
    a bound, not ``math.isfinite``, so a huge int is refused, not an
    ``OverflowError``."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)
