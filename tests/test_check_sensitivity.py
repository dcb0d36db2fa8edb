"""Registry checks on the pairing and unit-entry paths can fail.

A fault is one line of a function's source rewritten (`mutant`) and bound
in place of the function in every module that holds it.  Each check runs
alone, on fresh configurations: it passes first and returns False under
its fault, with the detail naming where it failed.
"""

import inspect

import pytest

import knwznw
from knwznw import algebras, basis, verify


def mutant(module, name, old, new):
    """module.name recompiled from its source with the single occurrence of
    old replaced by new; it runs in module's namespace."""
    src = inspect.getsource(getattr(module, name))
    assert src.count(old) == 1, (name, old)
    out = {}
    exec(compile(src.replace(old, new), module.__file__, "exec"),
         module.__dict__, out)
    return out[name]


# check -> (module, function, line rewritten, its fault, detail under it)
FAULTS = {
    # a monomial residue read as 0 at sum K = -1 drops the residue at
    # infinity, which is what a dual pair at one point pairs through
    "duality-grid": (basis, "monomial_residue", "s < -1", "s < 0",
                     "failed at (1,"),
    # the pairing drops g's constant's denominator: basis constants at 0, 1
    # are +-1, the rescaled ones (5/3)^n are not
    "rescaling-invariance": (basis, "kn_pairing", "ff.den * gf.den",
                             "ff.den", "not scale invariant"),
    # a monomial form read at the wrong weight shifts every product down
    "almost-grading-locality": (basis, "at_weight", "e + lam - 1",
                                "e + lam - 2", "lower shift violated"),
    # a gamma (or chi connection) sum that drops its last term
    "cocycle-vanishing": (algebras, "_residue_combination",
                          "for w, k in terms:", "for w, k in terms[:-1]:",
                          "gamma on block pair"),
}

CHECKS = {name: fn for name, _suite, fn in verify.CHECKS}


@pytest.mark.parametrize("check", sorted(FAULTS))
def test_a_planted_fault_fails_the_check(check, monkeypatch):
    module, name, old, new, detail = FAULTS[check]
    run = CHECKS[check]
    assert run()[0] is True
    orig = getattr(module, name)
    fault = mutant(module, name, old, new)
    for ns in (knwznw, basis, algebras, verify):
        if getattr(ns, name, None) is orig:
            monkeypatch.setattr(ns, name, fault)
    ok, got = run()
    assert ok is False and detail in got, got
    monkeypatch.undo()
    assert run()[0] is True
