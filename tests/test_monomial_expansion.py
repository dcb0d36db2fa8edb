"""The closed-form monomial expansion against the jet solver.

`basis.monomial_expansion` expands M_K = prod_i (z - P_i)^K_i in the basis
by splitting z - P_j = (z - P_i) + (P_i - P_j) until K is flat, then by
partial fractions.  `expand_in_basis` peels the Laurent jets of the same
section and checks its reconstruction exactly, so it is the oracle; a
wide K is checked against the value of M_K at a point off the
configuration.  The residues read off these expansions are checked in
`test_monomial_residues.py`.
"""

import time
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from knwznw import Rat
from knwznw.basis import (Config, DivisorForm, Section, expand_in_basis,
                          monomial_expansion)


rationals = st.builds(Rat, st.integers(-9, 9), st.integers(1, 5))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data(),
       points=st.lists(rationals, min_size=1, max_size=4, unique=True),
       lam=st.sampled_from((-1, 0, 1, 2)))
def test_closed_form_matches_the_jet_solver(data, points, lam):
    cfg = Config(points)
    n_pts = cfg.n_points
    k = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=n_pts,
                                 max_size=n_pts)))
    den, nums = monomial_expansion(cfg, k, lam)
    assert den > 0 and all(nums.values()) and gcd(den, *nums.values()) == 1
    monomial = DivisorForm(cfg.points, 1, (1,), k)
    assert {key: Rat(x, den) for key, x in nums.items()} \
        == expand_in_basis(cfg, Section(lam, monomial)).terms


def test_a_wide_spread_is_fast_and_exact():
    cfg = Config(["0", "1", "-1", "2"])
    k = (40, -40, 3, 1)
    t0 = time.perf_counter()
    den, nums = monomial_expansion(cfg, k, 1)  # no RecursionError
    assert time.perf_counter() - t0 < 1
    # sum over (e, p) of c A^1_{e,p}, A^1_{e,p} = prod_{q != p}
    # (P_p - P_q)^-e M_{e 1 - e_p}, evaluated at a point off the configuration
    z0 = Rat(1, 3)
    pts = cfg.points
    value = Rat(0)
    for (e, p), x in nums.items():
        b = Rat(x, den)
        for q, a in enumerate(pts, start=1):
            b = b * (z0 - a) ** (e - (q == p))
            if q != p:
                b = b * (pts[p - 1] - a) ** -e
        value = value + b
    want = Rat(1)
    for a, e in zip(pts, k):
        want = want * (z0 - a) ** e
    assert value == want
