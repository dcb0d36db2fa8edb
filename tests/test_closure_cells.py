"""The functions read mostly as cache hits make no closure cells.

In CPython 3.11 a local that a nested comprehension or generator
expression reads is a cell, and every call makes its cells before its
first line runs, cache hits included: a stand-alone copy of the hit path
of `basis.kn_basis_record` took 0.18 us a call with its two cells and
0.13-0.14 us without them.  So these functions keep no nested scope over
their locals, and their misses are written as loops.
"""

import pytest

from knwznw import basis, modules, sugawara
from knwznw.modules import InducedModule


@pytest.mark.parametrize("fn", [
    basis.kn_basis_record, basis.monomial_residue, basis._monomial_form,
    InducedModule._act_block, InducedModule._by_string, modules._join,
    sugawara.apply_L_raw, sugawara._apply_plan], ids=lambda fn: fn.__name__)
def test_a_cache_hit_path_makes_no_cells(fn):
    assert fn.__code__.co_cellvars == ()
