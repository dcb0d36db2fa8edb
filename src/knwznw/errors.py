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
    """An operation produced creation strings longer than a verma module's
    width bound.

    Never silent: carries the exact set of lost string lengths.  Nothing
    is cut off by degree, so no degree is ever lost.
    """

    def __init__(self, lost_widths=()):
        self.lost_widths = tuple(sorted(set(lost_widths)))
        super().__init__("truncation overflow: lost string lengths %s"
                         % (list(self.lost_widths),))
