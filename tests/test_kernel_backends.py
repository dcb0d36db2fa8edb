"""The arithmetic kernel against an outside oracle, ``fractions.Fraction``."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knwznw._kernel import (RAT0, RAT1, Rat, poly_add, poly_divmod, poly_gcd,
                            poly_mul, poly_trim)

nonzero = st.integers(min_value=-200, max_value=200).filter(lambda x: x != 0)
anyint = st.integers(min_value=-200, max_value=200)
fracs = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
fpolys = st.lists(fracs, max_size=6)


def rat(f):
    return Rat(f.numerator, f.denominator)


def frac(r):
    return Fraction(r.num, r.den)


def to_poly(fs):
    return poly_trim([rat(f) for f in fs])


def to_fracs(p):
    return [frac(c) for c in p]


# Reference polynomial arithmetic on Fraction coefficient lists, ascending
# powers, no trailing zeros; written here so it shares nothing with _pure.

def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b):
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b):
        k = len(r) - len(b)
        q[k] = c = r[-1] / b[-1]
        for i, y in enumerate(b):
            r[k + i] -= c * y
        r = ref_trim(r)
    return ref_trim(q), r


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else []


def test_normalization():
    r = Rat(6, -4)
    assert (r.num, r.den) == (-3, 2)
    assert (Rat(0, 7).num, Rat(0, 7).den) == (0, 1)
    with pytest.raises(ZeroDivisionError):
        Rat(1, 0)


def test_parse_and_str():
    assert str(Rat.parse("-3/6")) == "-1/2"
    assert str(Rat.parse("14")) == "14"
    assert Rat.parse(" 7/2 ") == Rat(7, 2)


@given(n=anyint, d=st.integers(min_value=1, max_value=200),
       pad=st.sampled_from(["", " ", "  "]), whole=st.booleans())
@settings(max_examples=150, deadline=None)
def test_parse_and_str_match_fraction(n, d, pad, whole):
    text = pad + (str(n) if whole else "%d/%d" % (n, d)) + pad
    r = Rat.parse(text)
    assert frac(r) == Fraction(text)
    assert str(r) == str(Fraction(text))


def test_int_interop():
    r = Rat(3, 4)
    assert r + 1 == Rat(7, 4)
    assert 1 + r == Rat(7, 4)
    assert 2 - r == Rat(5, 4)
    assert r * 2 == Rat(3, 2) == 2 * r
    assert 3 / Rat(3, 4) == Rat(4)
    assert Rat(5) == 5
    assert hash(Rat(5)) == hash(5)
    assert Rat(1, 2) < 1 and Rat(1, 2) > 0


def test_pow():
    assert Rat(2, 3) ** 3 == Rat(8, 27)
    assert Rat(-2, 3) ** -2 == Rat(9, 4)
    with pytest.raises(ZeroDivisionError):
        Rat(0) ** -1


@given(a=anyint, b=nonzero, c=anyint, d=nonzero, e=anyint, f=nonzero)
@settings(max_examples=150, deadline=None)
def test_field_axioms(a, b, c, d, e, f):
    x = Rat(a, b)
    y = Rat(c, d)
    z = Rat(e, f)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    assert x + RAT0 == x and x * RAT1 == x
    assert x + (-x) == RAT0
    if x.num != 0:
        assert x * (RAT1 / x) == RAT1


ARITH = (operator.add, operator.sub, operator.mul, operator.truediv)
COMPARE = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt,
           operator.ge)


@given(x=fracs, y=fracs, k=anyint, e=st.integers(min_value=-4, max_value=4))
@settings(max_examples=200, deadline=None)
def test_field_ops_match_fraction(x, y, k, e):
    rx, ry = rat(x), rat(y)
    for op in ARITH:
        for (p, q), (fp, fq) in (((rx, ry), (x, y)), ((rx, k), (x, k)),
                                 ((k, rx), (k, x))):
            if op is operator.truediv and fq == 0:
                with pytest.raises(ZeroDivisionError):
                    op(p, q)
                continue
            got, want = op(p, q), op(fp, fq)
            assert isinstance(got, Rat)
            assert (got.num, got.den) == (want.numerator, want.denominator)
    assert frac(-rx) == -x and frac(abs(rx)) == abs(x)
    assert bool(rx) == bool(x)
    if x == 0 and e < 0:
        with pytest.raises(ZeroDivisionError):
            rx ** e
    else:
        assert frac(rx ** e) == x ** e


@given(x=fracs, y=fracs, k=anyint)
@settings(max_examples=200, deadline=None)
def test_comparisons_match_fraction(x, y, k):
    rx, ry = rat(x), rat(y)
    for op in COMPARE:
        assert op(rx, ry) == op(x, y)
        assert op(rx, k) == op(x, k)
        assert op(k, rx) == op(k, x)
    if x == y:
        assert hash(rx) == hash(ry)


@given(fpolys, fpolys)
@settings(max_examples=100, deadline=None)
def test_poly_mul_agree(xs, ys):
    a, b = to_poly(xs), to_poly(ys)
    assert to_fracs(poly_mul(a, b)) == ref_mul(to_fracs(a), to_fracs(b))


@given(fpolys, fpolys.filter(lambda ys: any(ys)))
@settings(max_examples=100, deadline=None)
def test_poly_divmod_identity(xs, ys):
    a, b = to_poly(xs), to_poly(ys)
    q, r = poly_divmod(a, b)
    assert poly_add(poly_mul(q, b), r) == a
    assert len(r) < len(b)
    assert (to_fracs(q), to_fracs(r)) == ref_divmod(to_fracs(a), to_fracs(b))


def test_poly_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_divmod((RAT1,), ())


def test_poly_gcd_monic():
    R = Rat
    # (z-1)(z-2) and (z-1)(z-3): gcd z-1
    a = poly_mul((R(-1), R(1)), (R(-2), R(1)))
    b = poly_mul((R(-1), R(1)), (R(-3), R(1)))
    assert poly_gcd(a, b) == (R(-1), R(1))


@given(st.lists(fracs, max_size=3), st.lists(fracs, max_size=4),
       st.lists(fracs, max_size=4))
@settings(max_examples=100, deadline=None)
def test_poly_gcd_agree(cs, xs, ys):
    # a shared factor c makes the gcd non-trivial in most examples
    c = to_poly(cs)
    a, b = poly_mul(c, to_poly(xs)), poly_mul(c, to_poly(ys))
    assert to_fracs(poly_gcd(a, b)) == ref_gcd(to_fracs(a), to_fracs(b))


def test_backend_selected():
    import knwznw
    assert knwznw.BACKEND == "python"
