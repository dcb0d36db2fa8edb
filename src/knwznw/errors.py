"""Exception types shared across the package."""


class KNError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(KNError):
    """A mathematically invalid request (bad weights, critical level, ...)."""


class ConfigError(KNError):
    """Malformed configuration input (CLI / JSON level)."""


class BasisConstructionError(KNError):
    """A basis expansion failed to reproduce its section (internal error)."""


class CriticalLevelError(DomainError):
    """Level c with c + dual Coxeter number = 0."""


class TruncationOverflow(KNError):
    """An operation produced terms below the module's depth window.

    Never silent: carries the exact set of lost degrees (and, for width
    truncation, lost creation-string lengths).
    """

    def __init__(self, lost_degrees=(), lost_widths=()):
        self.lost_degrees = tuple(sorted(set(lost_degrees)))
        self.lost_widths = tuple(sorted(set(lost_widths)))
        parts = []
        if self.lost_degrees:
            parts.append("degrees %s" % (list(self.lost_degrees),))
        if self.lost_widths:
            parts.append("string lengths %s" % (list(self.lost_widths),))
        super().__init__("truncation overflow: lost " + ", ".join(parts))
