"""Exact rational function field in one global coordinate z on the sphere.

Provides dense polynomials over Q, reduced rational functions with a monic
denominator, the point type (finite rational coordinate or infinity), and
the local analysis used everywhere else: vanishing orders, Laurent
expansions and residues, at finite points and at z = infinity (local
coordinate w = 1/z).

The residue at infinity is normalized so that the residues of f dz over
all poles of the sphere sum to zero; this single convention fixes every
sign downstream.
"""

from __future__ import annotations

from ._kernel import (RAT0, RAT1, Rat, poly_add, poly_deriv, poly_divmod,
                      poly_eval, poly_gcd, poly_mul, poly_neg, poly_scale,
                      poly_sub, poly_trim)
from .errors import DomainError


class _Infinity:
    """The point z = infinity; a singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def as_rat(x):
    if isinstance(x, Rat):
        return x
    if isinstance(x, int):
        return Rat(x)
    if isinstance(x, str):
        return Rat.parse(x)
    raise TypeError("cannot interpret %r as a rational" % (x,))


class Poly:
    """Dense univariate polynomial over Q, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = poly_trim(as_rat(c) for c in coeffs)

    @classmethod
    def _raw(cls, trimmed):
        p = cls.__new__(cls)
        p.coeffs = trimmed
        return p

    @classmethod
    def const(cls, c):
        return cls((as_rat(c),))

    @classmethod
    def x(cls):
        return cls((RAT0, RAT1))

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self):
        if not self.coeffs:
            return RAT0
        return self.coeffs[-1]

    def __add__(self, other):
        return Poly._raw(poly_add(self.coeffs, self._co(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return Poly._raw(poly_sub(self.coeffs, self._co(other)))

    def __rsub__(self, other):
        return Poly._raw(poly_sub(self._co(other), self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (Rat, int)):
            return Poly._raw(poly_scale(self.coeffs, as_rat(other)))
        return Poly._raw(poly_mul(self.coeffs, self._co(other)))

    __rmul__ = __mul__

    def __neg__(self):
        return Poly._raw(poly_neg(self.coeffs))

    def __pow__(self, n):
        if n < 0:
            raise DomainError("negative power of a polynomial")
        out = (RAT1,)
        base = self.coeffs
        while n:
            if n & 1:
                out = poly_mul(out, base)
            base = poly_mul(base, base)
            n >>= 1
        return Poly._raw(out)

    def __divmod__(self, other):
        q, r = poly_divmod(self.coeffs, self._co(other))
        return Poly._raw(q), Poly._raw(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def gcd(self, other):
        return Poly._raw(poly_gcd(self.coeffs, self._co(other)))

    def deriv(self):
        return Poly._raw(poly_deriv(self.coeffs))

    def __call__(self, x):
        return poly_eval(self.coeffs, as_rat(x))

    def shifted(self, a):
        """Taylor coefficients of p at a, i.e. p(a + xi) as a tuple in xi.

        Repeated synthetic division by (z - a); full length deg + 1, no
        trimming (callers index positionally).
        """
        a = as_rat(a)
        cs = list(self.coeffs)
        out = []
        while cs:
            acc = RAT0
            new = [RAT0] * (len(cs) - 1)
            for i in range(len(cs) - 1, 0, -1):
                acc = acc * a + cs[i]
                new[i - 1] = acc
            out.append(acc * a + cs[0])
            cs = new
        return tuple(out) if out else (RAT0,)

    def mult_at(self, a):
        """Multiplicity of the root a (0 if p(a) != 0); p must be nonzero."""
        a = as_rat(a)
        cs = self.coeffs
        mult = 0
        while cs and poly_eval(cs, a).num == 0:
            cs, rem = poly_divmod(cs, (-a, RAT1))
            assert not rem
            mult += 1
        return mult

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (Rat, int)):
            return self.coeffs == poly_trim((as_rat(other),))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.num == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*z" % c)
            else:
                parts.append("%s*z^%d" % (c, i))
        return " + ".join(parts)

    def __repr__(self):
        return "Poly(%r)" % (list(self.coeffs),)

    def _co(self, other):
        if isinstance(other, Poly):
            return other.coeffs
        if isinstance(other, (Rat, int)):
            return poly_trim((as_rat(other),))
        raise TypeError("expected a polynomial, got %r" % (other,))


P_ZERO = Poly(())
P_ONE = Poly((1,))


class RationalFunction:
    """Reduced ratio of polynomials; denominator monic and coprime to num.
    Immutable, so its hash is computed once (it keys the connection
    caches)."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=P_ONE):
        if not isinstance(num, Poly):
            num = Poly.const(num) if isinstance(num, (Rat, int, str)) else Poly(num)
        if not isinstance(den, Poly):
            den = Poly.const(den) if isinstance(den, (Rat, int, str)) else Poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = P_ZERO
            self.den = P_ONE
            return
        g = num.gcd(den)
        if g.degree() > 0:
            num = num // g
            den = den // g
        lead = den.leading()
        if lead != RAT1:
            inv = RAT1 / lead
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, num, den):
        f = cls.__new__(cls)
        f.num = num
        f.den = den
        return f

    @classmethod
    def const(cls, c):
        return cls(Poly.const(c))

    @classmethod
    def zero(cls):
        return cls(P_ZERO)

    @classmethod
    def one(cls):
        return cls(P_ONE)

    @classmethod
    def z(cls):
        return cls(Poly.x())

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        other = self._co(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._co(other)
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __rsub__(self, other):
        return self._co(other).__sub__(self)

    def __mul__(self, other):
        other = self._co(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._co(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._co(other).__truediv__(self)

    def __neg__(self):
        return RationalFunction._raw(-self.num, self.den)

    def __pow__(self, n):
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("zero function to a negative power")
            inv = RationalFunction(self.den, self.num)
            return inv ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)

    def deriv(self):
        return RationalFunction(
            self.num.deriv() * self.den - self.num * self.den.deriv(),
            self.den * self.den)

    def __call__(self, x):
        x = as_rat(x)
        d = self.den(x)
        if d.num == 0:
            raise ZeroDivisionError("evaluation at a pole")
        return self.num(x) / d

    def __eq__(self, other):
        if isinstance(other, (RationalFunction, Poly, Rat, int)):
            other = self._co(other)
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash((self.num, self.den))
            return h

    def __str__(self):
        if self.den == P_ONE:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "RationalFunction(%r, %r)" % (self.num, self.den)

    def _co(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (Poly, Rat, int)):
            return RationalFunction(other if isinstance(other, Poly)
                                    else Poly.const(other))
        raise TypeError("expected a rational function, got %r" % (other,))


def order_at(f, p):
    """Vanishing order of f at p (negative at a pole).

    At infinity this is deg(den) - deg(num).  Undefined on the zero
    function.
    """
    if f.is_zero():
        raise DomainError("order of zero undefined")
    if p is INFINITY:
        return f.den.degree() - f.num.degree()
    a = as_rat(p)
    return f.num.mult_at(a) - f.den.mult_at(a)


def _series_div(a, b, terms):
    """First `terms` coefficients of a(xi)/b(xi) with b(0) != 0."""
    inv0 = RAT1 / b[0]
    out = []
    acc = list(a[:terms]) + [RAT0] * max(0, terms - len(a))
    for k in range(terms):
        c = acc[k] * inv0
        out.append(c)
        if c.num != 0:
            for j in range(1, min(len(b), terms - k)):
                acc[k + j] = acc[k + j] - c * b[j]
    return out


def _expansion_at_zero_coord(num, den, terms):
    """Laurent data of num/den in the local coordinate, num, den tuples."""
    a_shift = 0
    while num[a_shift].num == 0:
        a_shift += 1
    b_shift = 0
    while den[b_shift].num == 0:
        b_shift += 1
    order = a_shift - b_shift
    coeffs = _series_div(num[a_shift:], den[b_shift:], terms)
    return order, coeffs


def local_expansion(f, p, terms):
    """First `terms` Laurent coefficients of f at p.

    Returns (order, coeffs): coefficients in the local coordinate
    xi = z - p (or w = 1/z at infinity), starting at order_at(f, p).
    """
    if terms < 1:
        raise DomainError("need at least one term")
    if f.is_zero():
        raise DomainError("expansion of zero undefined")
    if p is INFINITY:
        dn, dd = f.num.degree(), f.den.degree()
        num_w = tuple(reversed(f.num.coeffs))
        den_w = tuple(reversed(f.den.coeffs))
        shift = dd - dn
        order, coeffs = _expansion_at_zero_coord(num_w, den_w, terms)
        return order + shift, coeffs
    a = as_rat(p)
    num_s = f.num.shifted(a)
    den_s = f.den.shifted(a)
    return _expansion_at_zero_coord(num_s, den_s, terms)


def residue_at(f, p):
    """Residue of the one-form f dz at p.

    At infinity: minus the z^{-1} coefficient of the expansion of f, so
    that the residues over the whole sphere sum to zero.
    """
    if f.is_zero():
        return RAT0
    if p is INFINITY:
        o = order_at(f, p)
        # need the coefficient of w^1 in f(1/w)
        if o > 1:
            return RAT0
        order, coeffs = local_expansion(f, p, 2 - o)
        return -coeffs[1 - order]
    o = order_at(f, p)
    if o >= 0:
        return RAT0
    order, coeffs = local_expansion(f, p, -o)
    return coeffs[-1 - order]
