"""The integer forms of the basis layer against its former Rat arithmetic.

The oracles below are the Rat versions of the local series, the linear
combinations, the residue sums and the reduced rational function that
`knwznw.basis` computed before it moved to integer forms (den, nums).
Each integer path must agree with them exactly, and every integer form the
layer caches must be canonical.
"""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import form_of
from knwznw import Rat
from knwznw._kernel import (RAT0, RAT1, poly_add, poly_deriv, poly_mul,
                            poly_scale)
from knwznw.algebras import cocycle_gamma, multiply, vf_bracket
from knwznw.basis import (Config, DivisorForm, GradedElement, KNIndex,
                          _binomial_product, _power_series, kn_basis_element,
                          kn_pairing, linear_combination, residue_sum)
from knwznw.ratfield import Poly, RationalFunction, local_expansion


# ------------------------------------------------------------ oracles --

def rat_q(form):
    return tuple(Rat(x, form.den) for x in form.nums)


def rat_series_mul(a, b, length):
    if len(a) == 1:
        c = a[0]
        return [c * x for x in b[:length]]
    la = len(a)
    out = []
    for t in range(length):
        acc = RAT0
        for s in range(min(t + 1, la)):
            acc = acc + a[s] * b[t - s]
        out.append(acc)
    return out


def rat_binomial_product(points, i, k, length):
    a = points[i]
    out = [RAT1] + [RAT0] * (length - 1)
    for j, e in enumerate(k):
        if j == i or e == 0:
            continue
        d = a - points[j]
        inv = RAT1 / d
        ser = [d ** e]
        for t in range(length - 1):
            ser.append(ser[-1] * inv * Rat(e - t, t + 1))
        out = rat_series_mul(out, ser, length)
    return out


def rat_qjet(form, i):
    q = rat_q(form)
    if len(q) == 1:
        return 0, q
    t = Poly._raw(q).shifted(form.points[i])
    z = 0
    while t[z].num == 0:
        z += 1
    return z, t[z:]


def rat_order(form, i):
    return form.k[i] + rat_qjet(form, i)[0]


def rat_jet(form, i, length):
    tail = rat_qjet(form, i)[1]
    return rat_series_mul(
        tail, rat_binomial_product(form.points, i, form.k, length), length)


def rat_derived(coeffs, order, times):
    for _ in range(times):
        coeffs = [c * (order + t) for t, c in enumerate(coeffs)]
        order -= 1
    return coeffs


def rat_local_jet(cfg, f, i, length, d):
    if isinstance(f, DivisorForm):
        cs, order = rat_jet(f, i, length), rat_order(f, i)
    else:
        o, coeffs = local_expansion(f, cfg.points[i], length)
        cs, order = [RAT0] * o + coeffs, 0
    return rat_derived(cs[:length], order, d) if d else cs


def rat_residue_sum(cfg, f, g, df=0, dg=0):
    total = RAT0
    for i in range(cfg.n_points):
        m = -1 + df + dg
        for h in (f, g):
            if isinstance(h, DivisorForm):
                m -= rat_order(h, i)
        if m < 0:
            continue
        a = rat_local_jet(cfg, f, i, m + 1, df)
        b = rat_local_jet(cfg, g, i, m + 1, dg)
        for t in range(m + 1):
            total = total + a[t] * b[m - t]
    return total


def rat_linear_combination(points, terms):
    """(q, kmin) of sum c f."""
    live = [(c, f) for c, f in terms if c.num != 0 and f.nums]
    if not live:
        return (), (0,) * len(points)
    kmin = tuple(min(f.k[i] for _c, f in live) for i in range(len(points)))
    total = ()
    for c, f in live:
        q = poly_scale(rat_q(f), c)
        for a, e, e0 in zip(points, f.k, kmin):
            for _ in range(e - e0):
                q = poly_mul(q, (-a, RAT1))
        total = poly_add(total, q)
    return total, kmin


def rat_deriv(form):
    """(q, k) of the z-derivative."""
    pts, k, q = form.points, form.k, rat_q(form)
    live = [i for i, e in enumerate(k) if e]
    lin = {i: (-pts[i], RAT1) for i in live}
    out = poly_deriv(q)
    for i in live:
        out = poly_mul(out, lin[i])
    for i in live:
        term = poly_scale(q, Rat(k[i]))
        for j in live:
            if j != i:
                term = poly_mul(term, lin[j])
        out = poly_add(out, term)
    return out, tuple(e - 1 if e else 0 for e in k)


def rat_function(form):
    q = rat_q(form)
    if not q:
        return RationalFunction.zero()
    num = Poly._raw(q)
    den = Poly._raw((RAT1,))
    for i, (a, e) in enumerate(zip(form.points, form.k)):
        lin = Poly._raw((-a, RAT1))
        if e < 0:
            z = min(rat_qjet(form, i)[0], -e)
            if z:
                num = num // (lin ** z)
                e += z
        if e > 0:
            num = num * (lin ** e)
        elif e < 0:
            den = den * (lin ** -e)
    return RationalFunction._raw(num, den)


# ----------------------------------------------------------- fixtures --

def canonical(den, nums, trimmed=True):
    return (den > 0 and gcd(den, *nums) == 1
            and not (trimmed and nums and nums[-1] == 0))


def random_points(rng, n):
    out = []
    while len(out) < n:
        p = Rat(rng.randint(-9, 9), rng.randint(1, 7))
        if p not in out:
            out.append(p)
    return tuple(out)


def random_form(rng, points):
    """A nonzero form with rational coefficients of denominators up to 7,
    exponents of both signs, and q vanishing at a marked point about
    every other time."""
    deg = rng.randint(0, 3)
    q = (Rat(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(deg))
    q = tuple(q) + (Rat(rng.choice([-5, -2, -1, 1, 3]), rng.randint(1, 7)),)
    if rng.random() < 0.5:
        a = rng.choice(points)
        for _ in range(rng.randint(1, 2)):
            q = poly_mul(q, (-a, RAT1))
    k = tuple(rng.randint(-3, 3) for _ in points)
    return form_of(points, q, k)


def cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        cfg = Config(random_points(rng, rng.randint(1, 4)))
        yield rng, cfg, random_form(rng, cfg.points), \
            random_form(rng, cfg.points)


def cached_forms(cfg, forms):
    yield from cfg.series.values()
    for f in forms:
        yield f.den, f.nums
        for _z, den, tail in f._taylor.values():
            yield den, tail
        yield from f._jets.values()


# -------------------------------------------------------------- tests --

@pytest.mark.parametrize("dn,dd", [(3, 1), (-3, 1), (-7, 4), (5, 6),
                                   (-1, 7), (1, 1)])
@pytest.mark.parametrize("e", [-5, -2, -1, 0, 1, 4])
def test_power_series_matches_the_binomial_series(dn, dd, e):
    d = Rat(dn, dd)
    length = 6
    den, nums = _power_series(dn, dd, e, length)
    assert den > 0
    want = [d ** e]
    for t in range(length - 1):
        want.append(want[-1] / d * Rat(e - t, t + 1))
    assert [Rat(x, den) for x in nums] == want


def test_local_series_match_the_rat_oracle():
    forms = []
    for _rng, cfg, f, g in cases(1301, 40):
        for form in (f, g):
            forms.append(form)
            for i in range(cfg.n_points):
                assert form.order(i) == rat_order(form, i)
                length = 7
                assert form.jet(cfg, i, length) == rat_jet(form, i, length)
                den, nums = _binomial_product(cfg, i, form.k, length)
                assert [Rat(x, den) for x in nums[:length]] == \
                    rat_binomial_product(cfg.points, i, form.k, length)
            assert form.order_infinity() == 1 - len(form.nums) - sum(form.k)
        for den, nums in cached_forms(cfg, (f, g)):
            assert canonical(den, nums, trimmed=False)
        for form in (f, g):
            assert canonical(form.den, form.nums)
    assert any(f.order(i) > f.k[i] for f in forms
               for i in range(len(f.k))), "no case vanishes at a point"


def test_products_derivatives_and_functions_match_the_rat_oracle():
    for _rng, cfg, f, g in cases(1302, 40):
        h = f * g
        assert canonical(h.den, h.nums)
        assert rat_q(h) == poly_mul(rat_q(f), rat_q(g))
        assert h.k == tuple(a + b for a, b in zip(f.k, g.k))
        form = f
        for _ in range(3):
            d = form.deriv()
            assert canonical(d.den, d.nums)
            assert (rat_q(d), d.k) == rat_deriv(form)
            form = d
        for form in (f, g, h):
            got, want = form.function(), rat_function(form)
            assert (got.num, got.den) == (want.num, want.den)
            assert got == RationalFunction(want.num, want.den)


def test_linear_combinations_match_the_rat_oracle():
    rng = random.Random(1303)
    for _ in range(40):
        cfg = Config(random_points(rng, rng.randint(1, 4)))
        terms = [(Rat(rng.randint(-9, 9), rng.randint(1, 7)),
                  random_form(rng, cfg.points))
                 for _ in range(rng.randint(1, 4))]
        got = linear_combination(cfg.points, terms)
        assert canonical(got.den, got.nums)
        assert (rat_q(got), got.k) == rat_linear_combination(cfg.points,
                                                             terms)
        # a combination that cancels leaves the empty numerator
        back = linear_combination(cfg.points,
                                  [(RAT1, got)] + [(-c, f) for c, f in terms])
        assert back.is_zero() and back.den == 1


@pytest.mark.parametrize("df,dg", [(0, 0), (0, 1), (1, 2), (3, 0), (0, 3),
                                   (2, 3)])
def test_residue_sums_match_the_rat_oracle(df, dg):
    for rng, cfg, f, g in cases(1304 + 10 * df + dg, 12):
        assert residue_sum(cfg, f, g, df, dg) == \
            rat_residue_sum(cfg, f, g, df, dg)
        # a rational function regular at the marked points, as R is
        r = RationalFunction(Poly((Rat(3), RAT1)),
                             Poly((Rat(rng.randint(1, 5)), RAT0, RAT1)))
        assert residue_sum(cfg, r, g, df, dg) == \
            rat_residue_sum(cfg, r, g, df, dg)
        for den, nums in cached_forms(cfg, (f, g)):
            assert canonical(den, nums, trimmed=False)


def test_basis_elements_match_the_rat_oracle():
    cfg = Config(["1/2", "-7/3", "5", "3/4"])
    for lam in (-1, 0, 2):
        for n in (-3, 0, 2):
            for p in (1, 4):
                form = kn_basis_element(cfg, KNIndex(lam, n, p)).form(cfg)
                assert canonical(form.den, form.nums)
                for i in range(cfg.n_points):
                    assert form.jet(cfg, i, 5) == rat_jet(form, i, 5)
                got, want = form.function(), rat_function(form)
                assert (got.num, got.den) == (want.num, want.den)


# -------------------------------------------------- translation oracle --
# z -> z + b carries A_{n,p} at the points P_i to A_{n,p} at P_i + b, so
# every structure constant is unchanged; the integer forms clear other
# denominators at the moved points.

rationals = st.builds(Rat, st.integers(-6, 6), st.integers(1, 5))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(points=st.lists(rationals, min_size=1, max_size=3, unique=True),
       shift=rationals.filter(lambda b: b.num != 0))
def test_translation_leaves_the_structure_constants_unchanged(points,
                                                              shift):
    cfg = Config(points)
    moved = Config([p + shift for p in points])
    units = [(n, p) for n in (-1, 0, 1) for p in range(1, len(points) + 1)]
    unit = GradedElement.unit
    for lam in (-1, 0, 2):
        for n, p in units:
            for m, r in units:
                pair = [kn_pairing(c, kn_basis_element(c, KNIndex(lam, n, p)),
                                   kn_basis_element(c, KNIndex(1 - lam, m, r)))
                        for c in (cfg, moved)]
                assert pair[0] == pair[1] == \
                    (RAT1 if (m, r) == (-n, p) else RAT0)
    for a in units:
        for b in units:
            for op, lam in ((multiply, 0), (vf_bracket, -1),
                            (cocycle_gamma, 0)):
                got = [op(c, unit(lam, *a), unit(lam, *b))
                       for c in (cfg, moved)]
                assert got[0] == got[1], (op.__name__, a, b)
