"""The marked points and modules the verify checks sample.

A check asks `sample_config` for its configuration and `sample_module`
for an induced module.  Called alone, from a test or an oracle, each
builds a fresh one.  While `verify._run_registry` runs a suite it holds
`shared_configs()` open, and then every request for one point set returns
one `Config` and for one module one handle, so a unit entry, basis record
or module action one check caches serves the checks after it; all are
dropped when the suite ends.  Every cached entry is exact and never
mutated, so sharing changes no verdict and no detail (a tier-1 oracle
compares every check run both ways).
"""
from __future__ import annotations

from contextlib import contextmanager

from .basis import Config
from .modules import induce_module

SAMPLE_POINTS = {1: ("0",), 2: ("0", "1"), 3: ("0", "1", "-1")}
NRANGE = (1, 2, 3)
LAMS = (-1, 0, 1, 2)

_SHARES = []  # the open share, if any: {points: Config, module key: handle}


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


def sample_module(alg, points, spec):
    """`induce_module` over `sample_config(points)`: while a share is open,
    one handle per algebra, points and spec, whose memos later checks read."""
    cfg = sample_config(points)
    share = _SHARES[-1] if _SHARES else {}
    key = ("module", alg.kind, cfg.points, spec)
    if key not in share:
        share[key] = induce_module(alg, cfg, spec)
    return share[key]


@contextmanager
def shared_configs():
    """Within the block, `sample_config` and `sample_module` share their
    results; these are dropped when the block ends."""
    _SHARES.append({})
    try:
        yield
    finally:
        _SHARES.pop()
