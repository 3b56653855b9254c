"""Exception hierarchy shared by every distcov module."""

from __future__ import annotations


class DistCovError(Exception):
    """Base class for all errors raised by this package."""


# -- matrix ---------------------------------------------------------------

class DimensionMismatch(DistCovError):
    """Shape of the supplied values disagrees with the declared dimensions."""


class NonFiniteValue(DistCovError):
    """NaN or infinity encountered where only finite reals are admitted."""


class IndexOutOfRange(DistCovError):
    """A row, column, or site index lies outside the valid range."""


class DuplicateIndex(DistCovError):
    """A column selection names the same index twice."""


# -- covariance -----------------------------------------------------------

class LengthMismatch(DistCovError):
    """Paired columns must have the same number of entries."""


class TooFewRows(DistCovError):
    """Sample covariance needs at least two rows (denominator n-1)."""


class RowCountMismatch(LengthMismatch):
    """All blocks or tables of one dataset must share the row count."""


class SameSite(DistCovError):
    """Cross covariance requires two distinct sites."""


class InvalidCovariance(DistCovError):
    """A covariance matrix invariant (square shape, non-negative diagonal) failed."""


class CoverageError(DistCovError):
    """Block collection does not cover every column pair exactly once."""


class MissingPair(CoverageError):
    """Some unordered column pair is not covered by any block."""


class OverlappingPair(CoverageError):
    """Some unordered column pair is covered by more than one block."""


# -- eigen ----------------------------------------------------------------

class NonConvergence(DistCovError):
    """The eigen solver failed to converge."""


# -- ingest ---------------------------------------------------------------

class IoError(DistCovError):
    """File could not be read or written."""


class RaggedRows(DistCovError):
    """Input rows carry differing field counts."""


class ParseError(DistCovError):
    """A field could not be parsed as a real number."""


class SpecMismatch(DistCovError):
    """Partition spec does not describe the matrix it is applied to."""


class UnsupportedPartitionCount(DistCovError):
    """No preset exists for the requested number of partitions."""


# -- wire -----------------------------------------------------------------

class MalformedFrame(DistCovError):
    """Frame is truncated, has a bad magic, or is structurally inconsistent."""


class UnknownKind(DistCovError):
    """Frame kind byte does not name a known message type."""


# -- runtime --------------------------------------------------------------

class TransportError(DistCovError):
    """Message transport failed."""


class TimeoutError(TransportError):
    """A site failed to deliver within the configured deadline."""


# -- cost model -----------------------------------------------------------

class WidthMismatch(DistCovError):
    """Per-site widths disagree with the schedule's site count."""


# -- comparison -----------------------------------------------------------

class MismatchError(DistCovError):
    """Centralized and distributed results differ (never expected)."""
