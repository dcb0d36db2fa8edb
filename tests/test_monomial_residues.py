"""Cached monomial residues against the Laurent-jet and rational-function
residues.

`basis.monomial_residue` reads the residue sum of M_K dz, M_K =
prod_i (z - P_i)^K_i, off the degree-0 coefficients of the closed-form
monomial expansion.  Three independent oracles check it: `residue_sum`
over the jets of the divisor form, `ratfield.residue_at` of the reduced
rational function at every marked point, and the degree-0 coefficients of
`expand_in_basis` at weight 1.  The pairing, the unit gamma entry, the
Sugawara triple coefficient and chi's third-derivative part used to be
residue sums of products of basis forms; those formulas are kept below
as the oracles of their monomial or single-residue versions.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from knwznw import Rat
from knwznw._kernel import RAT0
from knwznw.algebras import R_ZERO, _unit_chi, _unit_gamma
from knwznw.basis import (Config, DivisorForm, KNIndex, Section,
                          expand_in_basis, kn_basis_element, kn_pairing,
                          monomial_residue, residue_sum)
from knwznw.ratfield import residue_at
from knwznw.sugawara import _triple_coefficient


integers = st.builds(Rat, st.integers(-9, 9))
rationals = st.builds(Rat, st.integers(-9, 9), st.integers(1, 7))


def monomial(cfg, k):
    return DivisorForm(cfg.points, 1, (1,), k)


def one(cfg):
    return monomial(cfg, (0,) * cfg.n_points)


def unit_form(cfg, lam, n, p):
    return kn_basis_element(cfg, KNIndex(lam, n, p)).form(cfg)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), points=st.one_of(
    st.lists(integers, min_size=1, max_size=4, unique=True),
    st.lists(rationals, min_size=1, max_size=4, unique=True)))
def test_monomial_residue_matches_the_jets_and_the_function(data, points):
    cfg = Config(points)
    k = tuple(data.draw(st.lists(st.integers(-30, 6), min_size=len(points),
                                 max_size=len(points))))
    got = monomial_residue(cfg, k)
    assert got == residue_sum(cfg, monomial(cfg, k), one(cfg))
    f = monomial(cfg, k).function()
    assert got == sum((residue_at(f, a) for a in cfg.points), RAT0)
    # A^1_{n,p} has residue sum 1 for n = 0 and 0 otherwise
    exp = expand_in_basis(cfg, Section(1, monomial(cfg, k)))
    assert got == sum((exp.coefficient(0, p)
                       for p in range(1, cfg.n_points + 1)), RAT0)
    # read off the residue at infinity for sum k <= -1, else cached per k
    if min(k) < 0 and sum(k) >= 0:
        assert cfg.cache[("mres", k)] is got
    else:
        assert ("mres", k) not in cfg.cache


def test_monomial_residue_covers_the_corner_cases():
    cfg = Config(["1/2", "-7/3", "5", "3/4"])
    for k in [(-30, -30, -30, -30), (-1, 0, 0, 0), (-2, 0, 0, 0),
              (-30, 0, 0, 29), (-30, 0, 0, 30), (-2, 1, 1, 0), (-1, 2, -3, 1),
              (0, 0, 0, 0), (5, 3, 1, 0)]:
        assert monomial_residue(cfg, k) == \
            residue_sum(cfg, monomial(cfg, k), one(cfg)), k
    # sum K = -2 and -1 need no entry, sum K = 0 is a cached residue
    assert ("mres", (-2, 0, 0, 0)) not in cfg.cache
    assert ("mres", (-30, 0, 0, 29)) not in cfg.cache
    assert ("mres", (-30, 0, 0, 30)) in cfg.cache
    # a simple pole alone has residue one, a double pole alone none
    assert monomial_residue(Config(["3/4"]), (-1,)) == Rat(1)
    assert monomial_residue(Config(["3/4"]), (-2,)) == RAT0
    # 1/((z - a)(z - b)) has residues 1/(a - b) and 1/(b - a)
    assert monomial_residue(cfg, (-1, -1, 0, 0)) == RAT0


POINT_SETS = [("0",), ("0", "1"), ("1/2", "-7/3", "5"),
              ("0", "1", "-1", "2"), ("2/3", "-1", "1/4", "5/2")]


def test_pairing_matches_the_residue_of_the_product():
    for points in POINT_SETS:
        cfg = Config(points)
        pts = range(1, cfg.n_points + 1)
        for lam in (-1, 0, 2):
            for n in range(-3, 4):
                for m in range(-3, 4):
                    for p in pts:
                        for r in pts:
                            a = kn_basis_element(cfg, KNIndex(lam, n, p))
                            b = kn_basis_element(cfg,
                                                 KNIndex(1 - lam, m, r))
                            want = residue_sum(cfg, a.form(cfg), b.form(cfg))
                            assert kn_pairing(cfg, a, b) == want
                            assert want == (Rat(1) if (m, r) == (-n, p)
                                            else RAT0)


def test_unit_gamma_matches_the_residue_of_f_dg():
    for points in POINT_SETS:
        cfg = Config(points)
        units = [(n, p) for n in range(-4, 4)
                 for p in range(1, cfg.n_points + 1)]
        for a in units:
            for b in units:
                want = RAT0 if a == b else residue_sum(
                    cfg, unit_form(cfg, 0, *a), unit_form(cfg, 0, *b), dg=1)
                assert _unit_gamma(cfg, a, b) == want, (points, a, b)


def test_unit_chi_matches_the_two_third_derivative_residues():
    # (1/24) res(e'''f - e f''') as two jet residue sums
    for points in POINT_SETS:
        cfg = Config(points)
        units = [(n, p) for n in range(-4, 4)
                 for p in range(1, cfg.n_points + 1)]
        for a in units:
            for b in units:
                e, f = unit_form(cfg, -1, *a), unit_form(cfg, -1, *b)
                want = RAT0 if a == b else (
                    residue_sum(cfg, e, f, df=3)
                    - residue_sum(cfg, e, f, dg=3)) * Rat(1, 24)
                assert _unit_chi(cfg, a, b, R_ZERO) == want, (points, a, b)


def test_triple_coefficient_matches_the_residue_of_the_product():
    for points in POINT_SETS[:4]:
        cfg = Config(points)
        pts = range(1, cfg.n_points + 1)
        nonzero = 0
        for k, r in [(-2, 1), (0, 1), (2, cfg.n_points)]:
            for n in range(-3, 3):
                for m in range(-3, 3):
                    for p in pts:
                        for s in pts:
                            w1 = unit_form(cfg, 1, -n, p)
                            w2 = unit_form(cfg, 1, -m, s)
                            e = unit_form(cfg, -1, k, r)
                            want = residue_sum(cfg, w1 * w2, e)
                            got = _triple_coefficient(cfg, k, r, n, p, m, s)
                            assert got == want, (points, k, r, n, p, m, s)
                            nonzero += want.num != 0
        assert nonzero


@settings(derandomize=True, max_examples=60, deadline=None)
@given(points=st.lists(rationals, min_size=1, max_size=4, unique=True),
       seed=st.integers(0, 2 ** 32))
def test_the_degree_bounds_settle_only_zeros(points, seed):
    # `kn_pairing` settles two monomial forms as 0 by their exponent sums
    # and minima, `_unit_chi` its third-derivative part by the exponent
    # sums; against the jets, neither reads 0 where the residue is not
    cfg = Config(points)
    n = cfg.n_points
    rng = random.Random(seed)

    def monomial_form():  # c M_k
        c = Rat(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
        k = tuple(rng.randint(-4, 4) for _ in cfg.points)
        return DivisorForm(cfg.points, c.den, (c.num,), k)

    for _ in range(20):
        f, g = monomial_form(), monomial_form()
        lam = rng.randint(-1, 2)
        assert kn_pairing(cfg, Section(lam, f), Section(1 - lam, g)) == \
            residue_sum(cfg, f, g), (f.k, g.k)
        a, b = ((rng.randint(-4, 4), rng.randint(1, n)) for _ in range(2))
        e, h = unit_form(cfg, -1, *a), unit_form(cfg, -1, *b)
        assert _unit_chi(cfg, a, b, R_ZERO) == \
            -residue_sum(cfg, e, h, dg=3) * Rat(1, 12), (a, b)
