"""Acceptance criteria, run from the verify registry.

Each criterion names the registry checks that establish it and a time
budget; test_registry_check runs every other registry check, so each
check runs exactly once in this file and a failure names the check and
its detail.  Run with `pytest tests/test_acceptance.py -v -s` to see one
PASS line per criterion.
"""

import time

import pytest

from knwznw.verify import CHECKS

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


def _run(name):
    ok, detail = FNS[name]()
    assert ok, "%s: %s" % (name, detail)
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
