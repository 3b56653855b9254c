"""The package's exceptions: one class per failure outcome the CLI reports."""

from __future__ import annotations


class DistCovError(Exception):
    """Base class for all errors raised by this package; on its own, bad
    input data, arguments or files (CLI exit 3)."""


class ProtocolError(DistCovError):
    """The exchange failed: a frame that is malformed, unexpected, never
    read or never arrived, blocks that do not cover every pair of sites
    exactly once, or a transport or kernel failure (CLI exit 4)."""


class MismatchError(DistCovError):
    """Centralized and distributed results differ (CLI exit 5; never expected)."""
