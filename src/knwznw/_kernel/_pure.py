"""Pure-Python arithmetic kernel: exact rationals, dense polynomial helpers
and dict-keyed integer forms.

``knwznw._kernel`` re-exports this module; everything downstream imports
from there.

Polynomials are plain tuples of Rat, ascending powers, no trailing zeros
(the zero polynomial is the empty tuple).

An integer form (D, {key: int}) is the dict {key: int / D} over one
denominator D > 0; every helper takes and returns D before the
numerators.  A canonical form has no zero numerator and
gcd(D, numerators) = 1, and every canonical zero is ``ZERO_FORM``.
"""

from math import gcd as _gcd
from math import lcm as _lcm


def _mk(num, den):
    r = Rat.__new__(Rat)
    r.num = num
    r.den = den
    return r


class Rat:
    """Rational number p/q in lowest terms with q > 0; zero is 0/1."""

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        if den == 0:
            raise ZeroDivisionError("rational with zero denominator")
        if den < 0:
            num = -num
            den = -den
        g = _gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        self.num = num
        self.den = den

    @classmethod
    def parse(cls, text):
        """Parse "p/q" or "p" with optional sign."""
        s = text.strip()
        if "/" in s:
            a, b = s.split("/", 1)
            return cls(int(a), int(b))
        return cls(int(s))

    def __add__(self, other):
        if isinstance(other, Rat):
            da, db = self.den, other.den
            g = _gcd(da, db)
            if g == 1:
                return _mk(self.num * db + other.num * da, da * db)
            s = da // g
            t = self.num * (db // g) + other.num * s
            g2 = _gcd(t, g)
            if g2 == 1:
                return _mk(t, s * db)
            return _mk(t // g2, s * (db // g2))
        if isinstance(other, int):
            return _mk(self.num + other * self.den, self.den)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Rat):
            return self.__add__(_mk(-other.num, other.den))
        if isinstance(other, int):
            return _mk(self.num - other * self.den, self.den)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return _mk(other * self.den - self.num, self.den)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Rat):
            na, da = self.num, self.den
            nb, db = other.num, other.den
            g1 = _gcd(na, db)
            if g1 > 1:
                na //= g1
                db //= g1
            g2 = _gcd(nb, da)
            if g2 > 1:
                nb //= g2
                da //= g2
            return _mk(na * nb, da * db)
        if isinstance(other, int):
            g = _gcd(other, self.den)
            if g > 1:
                return _mk(self.num * (other // g), self.den // g)
            return _mk(self.num * other, self.den)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Rat):
            if other.num == 0:
                raise ZeroDivisionError("division by zero rational")
            na, da = self.num, self.den
            nb, db = other.num, other.den
            g1 = _gcd(na, nb)
            if g1 > 1:
                na //= g1
                nb //= g1
            g2 = _gcd(db, da)
            if g2 > 1:
                db //= g2
                da //= g2
            if nb < 0:
                na, nb = -na, -nb
            return _mk(na * db, da * nb)
        if isinstance(other, int):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self.__truediv__(_mk(other, 1))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, int):
            return Rat(other).__truediv__(self)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n >= 0:
            return _mk(self.num ** n, self.den ** n)
        if self.num == 0:
            raise ZeroDivisionError("zero to a negative power")
        if self.num < 0:
            return _mk((-self.den) ** -n, (-self.num) ** -n)
        return _mk(self.den ** -n, self.num ** -n)

    def __neg__(self):
        return _mk(-self.num, self.den)

    def __abs__(self):
        return _mk(abs(self.num), self.den)

    def __bool__(self):
        return self.num != 0

    def __eq__(self, other):
        if isinstance(other, Rat):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == 1 and self.num == other
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, Rat):
            return self.num * other.den < other.num * self.den
        if isinstance(other, int):
            return self.num < other * self.den
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, Rat):
            return self.num * other.den <= other.num * self.den
        if isinstance(other, int):
            return self.num <= other * self.den
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, Rat):
            return self.num * other.den > other.num * self.den
        if isinstance(other, int):
            return self.num > other * self.den
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, Rat):
            return self.num * other.den >= other.num * self.den
        if isinstance(other, int):
            return self.num >= other * self.den
        return NotImplemented

    def __hash__(self):
        if self.den == 1:
            return hash(self.num)
        return hash((self.num, self.den))

    def __str__(self):
        if self.den == 1:
            return str(self.num)
        return "%d/%d" % (self.num, self.den)

    def __repr__(self):
        return "Rat(%d, %d)" % (self.num, self.den)


RAT0 = Rat(0)
RAT1 = Rat(1)


def poly_trim(coeffs):
    """Normalize a coefficient list to a trimmed tuple."""
    cs = list(coeffs)
    while cs and cs[-1].num == 0:
        cs.pop()
    return tuple(cs)


def poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return poly_trim(out)


def poly_neg(a):
    return tuple(-c for c in a)


def poly_sub(a, b):
    return poly_add(a, poly_neg(b))


def poly_scale(a, c):
    if c.num == 0:
        return ()
    return tuple(x * c for x in a)


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [RAT0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.num == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return poly_trim(out)


def poly_divmod(a, b):
    """Exact division with remainder; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return (), ()
    q = [RAT0] * max(0, len(a) - len(b) + 1)
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(r) >= len(b):
        c = r[-1] / lead
        k = len(r) - 1 - db
        q[k] = c
        for i in range(len(b)):
            r[k + i] = r[k + i] - c * b[i]
        while r and r[-1].num == 0:
            r.pop()
    return poly_trim(q), poly_trim(r)


def poly_gcd(a, b):
    """Monic gcd by the Euclidean algorithm."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return ()
    lead = a[-1]
    if lead == RAT1:
        return a
    return tuple(c / lead for c in a)


def poly_deriv(a):
    return poly_trim(a[i] * i for i in range(1, len(a)))


def poly_eval(a, x):
    acc = RAT0
    for c in reversed(a):
        acc = acc * x + c
    return acc


# the integer form of every zero; never mutated
ZERO_FORM = (1, {})


def form(terms):
    """The integer form of a {key: Rat} dict without zero values."""
    if not terms:
        return ZERO_FORM
    den = 1
    for c in terms.values():
        if den % c.den:
            den = _lcm(den, c.den)
    return den, {k: c.num * (den // c.den) for k, c in terms.items()}


def add_scaled(den, acc, tden, terms, a, b):
    """acc/den += (a/b) * terms/tden over integer numerators, in place;
    returns the new denominator.  When den is no multiple of b * tden, it
    widens to their lcm and acc's numerators with it.  Zero numerators
    stay until `canonical`."""
    e = b * tden
    if den % e:
        w = e // _gcd(den, e)
        for k in acc:
            acc[k] *= w
        den *= w
    f = a * (den // e)
    get = acc.get
    for k, x in terms.items():
        acc[k] = get(k, 0) + f * x
    return den


def canonical(den, acc):
    """The canonical integer form of acc/den: zero numerators dropped, the
    common gcd divided out, and `ZERO_FORM` for zero."""
    nums = {k: x for k, x in acc.items() if x}
    if not nums:
        return ZERO_FORM
    if den > 1:
        g = _gcd(den, *nums.values())
        if g > 1:
            den //= g
            nums = {k: x // g for k, x in nums.items()}
    return den, nums


def rats(den, nums):
    """The {key: Rat} dict of nums/den, zero numerators dropped."""
    return {k: Rat(x, den) for k, x in nums.items() if x}


def merge(acc, terms, scale=None):
    """acc += scale * terms over {key: Rat} dicts, in place, dropping the
    sums that cancel; returns acc.  Without a scale, terms are added as
    they are."""
    get = acc.get
    for k, c in terms.items():
        if scale is not None:
            c = c * scale
        w = get(k, RAT0) + c
        if w.num:
            acc[k] = w
        else:
            acc.pop(k, None)
    return acc
