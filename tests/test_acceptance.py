"""Acceptance criteria, run from the verify registry.

Each criterion names the registry checks that establish it and a time
budget; test_registry_check runs every other registry check, so each
check runs exactly once alone in this file and a failure names the check
and its detail.  Alone, a check builds fresh configurations; each run is
also compared with what the same check returned inside
`run_suite("all")`, where a suite shares one Config per point set and
one handle per module, so sharing is shown to change no verdict and no
detail.  Run with
`pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import time

import pytest

from knwznw import Rat, verify_samples
from knwznw.finite_lie import make_algebra
from knwznw.modules import ModuleSpec
from knwznw.verify import CHECKS, run_suite
from knwznw.verify_samples import sample_config, sample_module, shared_configs

FNS = {name: fn for name, _suite, fn in CHECKS}

# criterion number -> (budget in seconds, registry checks)
CRITERIA = {
    1: (1, ("classical-virasoro",)),
    2: (1, ("classical-affine",)),
    3: (30, ("duality-grid",)),
    4: (60, ("almost-grading-locality", "cocycle-vanishing")),
    5: (30, ("cohomologous-connections",)),
    6: (10, ("psi-homomorphism", "partition-of-unity")),
    7: (120, ("representation-property",)),
    8: (600, ("classical-central-charge",)),
    9: (600, ("multipoint-centrality",)),
    10: (900, ("kz-classical-agreement", "kz-flatness")),
    11: (600, ("coinvariant-clebsch-gordan",)),
}
COVERED = [name for _budget, names in CRITERIA.values() for name in names]
OTHERS = [name for name, _suite, _fn in CHECKS if name not in COVERED]
SHARED = {}  # name -> (passed, detail) inside run_suite("all")


@pytest.fixture(scope="module", autouse=True)
def shared_run():
    """Run every suite once, on shared configs, before the checks run
    alone (and outside their time budgets)."""
    results = run_suite("all")
    assert [r.name for r in results] == [name for name, _s, _f in CHECKS]
    SHARED.update((r.name, (r.passed, r.detail)) for r in results)


def _run(name):
    ok, detail = FNS[name]()
    assert ok, "%s: %s" % (name, detail)
    assert (bool(ok), detail) == SHARED[name], (
        "%s returns another result on the configs its suite shares" % name)
    return detail


def _criterion(number):
    budget, names = CRITERIA[number]
    t0 = time.monotonic()
    details = [_run(name) for name in names]
    elapsed = time.monotonic() - t0
    print("ACCEPTANCE %2d PASS (%6.2fs < %ds): %s"
          % (number, elapsed, budget, "; ".join(details)))
    assert elapsed < budget, "criterion %d exceeded its %ds budget" % (
        number, budget)


def test_acceptance_01_classical_virasoro():
    _criterion(1)


def test_acceptance_02_classical_affine():
    _criterion(2)


def test_acceptance_03_duality_grid():
    _criterion(3)


def test_acceptance_04_grading_and_locality():
    _criterion(4)


def test_acceptance_05_cohomologous_connections():
    _criterion(5)


def test_acceptance_06_psi_and_unity():
    _criterion(6)


def test_acceptance_07_module_representation():
    _criterion(7)


def test_acceptance_08_sugawara_central_charges():
    _criterion(8)


def test_acceptance_09_multipoint_centrality():
    _criterion(9)


def test_acceptance_10_kz_reproduction():
    _criterion(10)


def test_acceptance_11_coinvariant_stabilization():
    _criterion(11)


def test_every_check_runs_once():
    assert len(FNS) == len(CHECKS), "check names must be unique"
    assert len(set(COVERED)) == len(COVERED)
    assert set(COVERED) <= set(FNS)


@pytest.mark.parametrize("name", OTHERS)
def test_registry_check(name):
    _run(name)


def test_a_suite_shares_one_config_per_point_set(monkeypatch):
    # alone, every request builds a fresh Config; inside a share, one
    # Config serves each point set, asked for by N or by its points, and
    # none outlives the share
    assert sample_config(2) is not sample_config(2)
    with shared_configs():
        cfg = sample_config(2)
        assert sample_config(("0", "1")) is cfg
        assert sample_config(3) is not cfg
    assert sample_config(2) is not cfg
    made = []
    real = verify_samples.Config

    def counting(points):
        made.append(points)
        return real(points)

    monkeypatch.setattr(verify_samples, "Config", counting)
    assert all(r.passed for r in run_suite("kz"))
    # the kz checks sample seven point sets, each built once
    assert len(made) == len(set(made)) == 7


def test_a_suite_shares_one_module_handle_per_spec():
    # alone, every request induces a fresh module; inside a share, one
    # handle serves each algebra, point set and spec, over the shared
    # Config, and none outlives the share
    sl2, spec = make_algebra("sl2"), ModuleSpec("weyl", (1, 1), Rat(1))
    assert sample_module(sl2, 2, spec) is not sample_module(sl2, 2, spec)
    with shared_configs():
        module = sample_module(sl2, 2, spec)
        assert module.cfg is sample_config(2)
        assert sample_module(sl2, ("0", "1"), spec) is module
        assert sample_module(sl2, 2, spec._replace(level=Rat(2))) \
            is not module
        assert sample_module(sl2, ("0", "2"), spec) is not module
    assert sample_module(sl2, 2, spec) is not module


class _ShareByN(dict):
    """A wrong share: one Config per number of points, not per point set."""

    def get(self, points):
        return super().get(len(points))

    def __setitem__(self, points, cfg):
        super().__setitem__(len(points), cfg)


@pytest.mark.parametrize("name", ("translation-covariance", "kz-abelian",
                                  "coinvariant-clebsch-gordan"))
def test_a_kz_check_fails_on_a_share_keyed_by_n(name, monkeypatch):
    # after the sample points of N = 1..3 entered the share, as they do
    # in a suite, a share keyed by N hands each of these checks a Config
    # at other points than it asked for; each reads its points back
    share = _ShareByN()
    monkeypatch.setattr(verify_samples, "_SHARES", [share])
    for n in (1, 2, 3):
        sample_config(n)
    assert sample_config(("5", "6")) is sample_config(2)
    passed, _detail = FNS[name]()
    assert not passed
