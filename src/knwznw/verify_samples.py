"""The marked points the verify checks sample.

A check asks `sample_config` for its configuration.  Called alone, from a
test or an oracle, it builds a fresh `Config` each time.  While
`verify._run_registry` runs a suite it holds `shared_configs()` open, and
then every request for one point set returns one `Config`, so a unit
entry or basis record one check caches serves the checks after it; the
configs are dropped when the suite ends.  Every cached value is exact and
never mutated, so sharing changes no verdict and no detail (a tier-1
oracle compares every check run both ways).
"""

from __future__ import annotations

from contextlib import contextmanager

from .basis import Config

SAMPLE_POINTS = {1: ("0",), 2: ("0", "1"), 3: ("0", "1", "-1")}
NRANGE = (1, 2, 3)
LAMS = (-1, 0, 1, 2)

_SHARES = []  # the open share, if any: {point tuple: Config}


def sample_config(points):
    """The Config at points: N for the sample points SAMPLE_POINTS[N], or
    a tuple of point strings."""
    points = SAMPLE_POINTS.get(points, points)
    if not _SHARES:
        return Config(points)
    share = _SHARES[-1]
    cfg = share.get(points)
    if cfg is None:
        cfg = share[points] = Config(points)
    return cfg


@contextmanager
def shared_configs():
    """Within the block, `sample_config` returns one Config per point
    set; the configs are dropped when the block ends."""
    _SHARES.append({})
    try:
        yield
    finally:
        _SHARES.pop()
