"""Unit structure constants as exact rescales of one base per point pair.

At genus zero B_{e,s} = V_s^-e M_{e 1 - e_s}, V_s = prod_{q != s}
(P_s - P_q), and Pi = prod_i (z - P_i) shifts it exactly:
Pi^c B_{e,s} = V_s^c B_{e+c,s}.  `algebras` builds every product, Lie
derivative and gamma of a point pair by rescaling the cached expansions
of a few monomials at K0 = -e_p - e_r.  The reference here is the route
that route replaced: the basis expansion of c sum_j w_j M_{k_j} summed
from one `_monomial_form` per exponent, and each gamma the residue sum
c sum_j k_g,j res(M_{K - e_j}) in Fractions.  Points are random
rationals from fixed seeds, N = 1..5, |n| <= 7.
"""

import random
from fractions import Fraction

import pytest

from knwznw import Rat, algebras
from knwznw._kernel import add_scaled, canonical
from knwznw.basis import (Config, _monomial_form, _v_powers,
                          monomial_residue)

WEIGHTS = range(-2, 4)


def _ref_entry(cfg, lam, c, terms):
    """c sum_j w_j M_{k_j} dz^lam over (w_j, k_j) in terms, as a canonical
    integer form over the A_{n,p}: one monomial form per k_j, summed, then
    read at weight lam (B_{e,p} dz^lam is A_{e+lam-1,p})."""
    cn, cd = c
    den, acc = 1, {}
    for w, k in terms:
        if w:
            den = add_scaled(den, acc, *_monomial_form(cfg, k), cn * w, cd)
    den, nums = canonical(den, acc)
    return den, {(e + lam - 1, p): x for (e, p), x in nums.items()}


def _ref_product(cfg, lams, a, b):
    c, ka, kb = algebras._unit_pair(cfg, lams[0], a, lams[1], b)
    return _ref_entry(cfg, sum(lams), c,
                      [(1, tuple(x + y for x, y in zip(ka, kb)))])


def _ref_lie_derivative(cfg, a, lam, b):
    return _ref_entry(cfg, lam, *algebras._lie_terms(cfg, a, lam, b))


def _ref_gamma(cfg, a, b):
    (cn, cd), ka, kb = algebras._unit_pair(cfg, 0, a, 0, b)
    out = sum((Fraction(monomial_residue(cfg, k).num,
                        monomial_residue(cfg, k).den) * w
               for w, k in algebras._lowered(ka, kb, kb) if w), Fraction(0))
    return out * Fraction(cn, cd)


def _random_config(rng, n_pts):
    points = set()
    while len(points) < n_pts:
        points.add(Rat(rng.randint(-9, 9), rng.randint(1, 5)))
    return Config(sorted(points))


@pytest.mark.parametrize("n_pts", [1, 2, 3, 4, 5])
def test_unit_entries_equal_the_monomial_route(n_pts):
    rng = random.Random(5000 + n_pts)
    cfg = _random_config(rng, n_pts)
    ref = Config(cfg.points)
    for _ in range(150):
        a, b = ((rng.randint(-7, 7), rng.randint(1, n_pts)) for _ in "ab")
        lams = (rng.choice(WEIGHTS), rng.choice(WEIGHTS))
        assert algebras._unit_product(cfg, lams, a, b) == \
            _ref_product(ref, lams, a, b), (lams, a, b)
        lam = rng.choice(WEIGHTS)
        assert algebras._unit_lie_derivative(cfg, a, lam, b) == \
            _ref_lie_derivative(ref, a, lam, b), (a, lam, b)
        g = algebras._unit_gamma(cfg, a, b)
        assert Fraction(g.num, g.den) == _ref_gamma(ref, a, b), (a, b)


def test_the_entries_cover_every_weight_and_both_signs_of_the_shift():
    # at one pair of points: every weight of a Lie derivative, and unit
    # pairs whose E = e_a + e_b runs from negative through 0 to positive
    cfg, ref = Config(("1/2", "-7/3", "5")), Config(("1/2", "-7/3", "5"))
    for lam in WEIGHTS:
        for n in range(-7, 8, 2):
            for m in (-7, -1, 0, 6):
                a, b = (n, 1), (m, 3)
                assert algebras._unit_lie_derivative(cfg, a, lam, b) == \
                    _ref_lie_derivative(ref, a, lam, b), (a, lam, b)
                assert algebras._unit_product(cfg, (lam, 0), a, b) == \
                    _ref_product(ref, (lam, 0), a, b), (a, lam, b)
                g = algebras._unit_gamma(cfg, b, a)
                assert Fraction(g.num, g.den) == _ref_gamma(ref, b, a)


@pytest.mark.parametrize("n_pts", [1, 2, 3, 4, 5])
def test_a_shift_by_pi_rescales_the_monomial_form(n_pts):
    # M_{K + c 1} = Pi^c M_K, and Pi^c B_{e,s} = V_s^c B_{e+c,s} with the
    # cached powers V_s^c
    rng = random.Random(5100 + n_pts)
    cfg = _random_config(rng, n_pts)
    for _ in range(25):
        k = tuple(rng.randint(-3, 1) for _ in range(n_pts))
        c = rng.randint(-4, 4)
        vd, vn = _v_powers(cfg, c)
        den, nums = _monomial_form(cfg, k)
        want = {(e + c, s): Fraction(x * vn[s - 1], den * vd)
                for (e, s), x in nums.items()}
        den, nums = _monomial_form(cfg, tuple(x + c for x in k))
        assert {key: Fraction(x, den) for key, x in nums.items()} == want, \
            (k, c)


def test_the_v_powers_are_the_point_differences():
    cfg = Config(("1/2", "-7/3", "5", "0"))
    for c in range(-3, 4):
        d, nums = _v_powers(cfg, c)
        for s, p in enumerate(cfg.points):
            v = Fraction(1)
            for q in cfg.points:
                if q != p:
                    v *= Fraction(p.num, p.den) - Fraction(q.num, q.den)
            assert Fraction(nums[s], d) == v ** c
