"""Krichever-Novikov bases for tensor powers of the canonical bundle.

A weight-h section is f(z) dz^h with f rational.  Its order at a finite
point is the order of f; at infinity the order picks up the chart factor
(dz = -dw/w^2), so ord_inf = order_at(f, inf) - 2h.  For a marked-point
configuration (P_1, ..., P_N; infinity) the basis element of weight h,
degree n and point index p is pinned by

    ord_{P_p} = n - h,   ord_{P_i} = n - h + 1 (i != p),
    ord_inf  >= -N(n + 1 - h) - 2h + 1,

normalized so the expansion at P_p is xi^(n-h) (1 + O(xi)) dxi^h.  At
genus zero the order count is tight, so the element is the product

    A_{n,p} = c (z - P_p)^(n-h) prod_{i != p} (z - P_i)^(n-h+1) dz^h,
    c = prod_{i != p} (P_p - P_i)^(-(n-h+1)),

which attains every prescribed order exactly, the one at infinity too.

Sections are held in divisor form relative to a configuration: a
numerator polynomial q and an exponent vector k over the marked points,
meaning q(z) prod_i (z - P_i)^k_i.  Products add exponents, and the
order at P_i is k_i plus the leading zeros of q's Taylor jet there.  The
Laurent jet at P_j is xi^k_j q(P_j + xi) prod_{i != j} (P_j - P_i + xi)^k_i:
q's Taylor jet is cached per section and point, the binomial series of
the other factors per configuration.  Residues are read off these jets;
`expand_in_basis` peels them degree by degree and is checked by exact
reconstruction.  A monomial M_k (q = 1) needs neither: it expands in
closed form (`monomial_expansion`), and its residue sum is the sum of the
expansion's degree-0 coefficients (`monomial_residue`, direct from the
residue at infinity or at poles of order at most two), through which
the pairing of weights h and 1 - h that realizes the duality takes a
basis pair.  The pairing, `section_from_graded`, `expand_in_basis` and
the unit entries in `algebras` take a basis element's form straight off
the cached Section, with no `Section.form` point check on one made for
the same Config.

Every polynomial and truncated series here, q and the jets included, is
an integer form (den, nums): den > 0, coefficient t is nums[t] / den and
gcd(den, nums) = 1.  A point P = n/d enters through the integer linear
d z - n.  q's Taylor jet at P is a Horner step on n + d xi per
coefficient, and (a/b + xi)^e is the binomial polynomial of
(a + b xi)^e over b^e for e >= 0, or for e = -E < 0 the series with
coefficient binom(e, t) b^(E+t) a^(L-1-t) over a^(E+L-1) (L terms).
Products, derivatives, linear combinations and residue sums run in
Python ints and divide by one gcd per result.  A Rat is built only at
the boundary: `DivisorForm.jet`, `residue_sum`, the coefficients of a
`GradedElement` and `DivisorForm.function`.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add
from typing import NamedTuple

from ._kernel import (RAT0, RAT1, Rat, add_scaled, canonical, form,
                      merge)
from .errors import BasisConstructionError, DomainError
from .ratfield import (INFINITY, Poly, RationalFunction, as_rat,
                       local_expansion)


class Config:
    """Marked points: N distinct finite rational coordinates; reference
    point fixed at z = infinity; genus 0.

    Carries a memo table for constructed basis elements and derived
    structure constants, and one for the local series shared by all
    sections relative to these points.  Their values are immutable, so
    concurrent lookups are benign (same key always maps to the same
    value).
    """

    genus = 0

    def __init__(self, points):
        pts = tuple(as_rat(p) for p in points)
        if not pts:
            raise DomainError("need at least one marked point")
        if len(set(pts)) != len(pts):
            raise DomainError("marked points must be pairwise distinct")
        self.points = pts
        self.n_points = len(pts)
        self.cache = {}
        self.series = {}

    def __eq__(self, other):
        return isinstance(other, Config) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return "Config(%s)" % (", ".join(str(p) for p in self.points),)


class KNIndex(NamedTuple):
    lam: int
    n: int
    p: int


# ------------------------------------------------------- integer forms --
# A polynomial or truncated series with rational coefficients is held as
# (den, nums): den > 0 and coefficient t is nums[t] / den.

def _reduced(den, nums):
    """(den, nums) divided by their gcd, den > 0; (1, ()) for no nums."""
    g = gcd(den, *nums)
    if g == 1:
        return den, nums
    return den // g, tuple(x // g for x in nums)


def _trimmed(nums):
    """nums without trailing zeros, as a tuple."""
    end = len(nums)
    while end and not nums[end - 1]:
        end -= 1
    return tuple(nums[:end])


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _times_linear(p, an, ad, e):
    """p (ad z - an)^e, one linear factor at a time."""
    for _ in range(e):
        out = [-an * x for x in p]
        out.append(0)
        for j, x in enumerate(p, 1):
            out[j] += ad * x
        p = out
    return p


def _divide_linear(p, an, ad):
    """p / (ad z - an) for an integer polynomial p that it divides; the
    quotient has integer coefficients (Gauss's lemma)."""
    out = [0] * (len(p) - 1)
    r = p[-1]
    for j in range(len(p) - 2, -1, -1):
        out[j] = c = r // ad
        r = p[j] + an * c
    return out


# ---------------------------------------------------------- local series --

def _series_mul(a, b, length):
    """First `length` coefficients of a(xi) b(xi); b has at least that many."""
    if len(a) == 1:
        c = a[0]
        return [c * x for x in b[:length]]
    la = len(a)
    out = []
    for t in range(length):
        acc = 0
        for s in range(min(t + 1, la)):
            acc += a[s] * b[t - s]
        out.append(acc)
    return out


def _power_series(dn, dd, e, length):
    """(den, nums): the first `length` Taylor coefficients of
    (dn/dd + xi)^e, dn != 0, dd > 0.

    For e >= 0 this is (dn + dd xi)^e over dd^e: coefficient t is
    binom(e, t) dd^t dn^(e - t).  For e = -E < 0 it is
    sum_t binom(e, t) (dn/dd)^(e - t) xi^t over dn^(E + length - 1):
    coefficient t is binom(e, t) dd^(E + t) dn^(length - 1 - t).
    """
    if e >= 0:
        top, hi, den, p = min(e, length - 1), e, dd ** e, 1
    else:
        top, hi, den, p = length - 1, length - 1, dn ** (length - 1 - e), \
            dd ** -e
    pw = [dn ** (hi - top)]  # pw[j] = dn^(hi - top + j)
    for _ in range(top):
        pw.append(pw[-1] * dn)
    nums = [0] * length
    b = 1  # binom(e, t)
    for t in range(top + 1):
        nums[t] = b * p * pw[top - t]
        b = b * (e - t) // (t + 1)
        p *= dd
    if den < 0:
        return -den, [-x for x in nums]
    return den, nums


def _binomial_product(cfg, i, k, length):
    """(den, nums) with at least `length` Taylor coefficients at P_i of
    prod_{j != i} (z - P_j)^k_j; cached per configuration."""
    key = (i, k[:i] + k[i + 1:])
    got = cfg.series.get(key)
    if got is not None and len(got[1]) >= length:
        return got
    length = max(length, 1)
    pts = cfg.points
    a = pts[i]
    den, out = 1, None
    for j, e in enumerate(k):
        if j == i or e == 0:
            continue
        d = a - pts[j]
        sd, ser = _power_series(d.num, d.den, e, length)
        out = ser if out is None else _series_mul(out, ser, length)
        den *= sd
    if out is None:
        out = [1] + [0] * (length - 1)
    got = _reduced(den, tuple(out))
    cfg.series[key] = got
    return got


def _function_jet(cfg, f, i, length):
    """(den, nums) with at least `length` Taylor coefficients at P_i of a
    rational function regular there, from order 0 on; cached per
    configuration."""
    key = ("function", f, i)
    got = cfg.series.get(key)
    if got is None or len(got[1]) < length:
        o, coeffs = local_expansion(f, cfg.points[i], length)
        if o < 0:
            raise DomainError("pole at marked point P_%d" % (i + 1))
        den = 1
        for c in coeffs:
            if den % c.den:
                den = lcm(den, c.den)
        got = (den, (0,) * o + tuple(c.num * (den // c.den) for c in coeffs))
        cfg.series[key] = got
    return got


def _derived(coeffs, order, times):
    """Coefficients of the times-th derivative of sum_t c_t xi^(order+t),
    which starts at order - times."""
    for _ in range(times):
        coeffs = [c * (order + t) for t, c in enumerate(coeffs)]
        order -= 1
    return coeffs


class DivisorForm:
    """q(z) prod_i (z - P_i)^k_i over the points of one configuration.

    q is the integer form (den, nums): nums is trimmed, empty for the zero
    function, and gcd(den, nums) = 1.  q may vanish at a marked point:
    the order there counts its leading zeros.
    """

    __slots__ = ("points", "den", "nums", "k", "_taylor", "_jets")

    def __init__(self, points, den, nums, k):
        self.points = points
        self.den = den
        self.nums = nums
        self.k = k
        self._taylor = {}
        self._jets = {}

    def is_zero(self):
        return not self.nums

    def _qjet(self, i):
        """(z, den, tail): the leading zeros of q's Taylor jet at P_i and
        the integer form of the coefficients from the first nonzero one
        on."""
        got = self._taylor.get(i)
        if got is None:
            nums = self.nums
            a = self.points[i]
            an, ad = a.num, a.den
            p = 1
            if len(nums) == 1 or not an:
                acc = nums
            else:
                # Horner in x = an + ad xi: q(a + xi) ad^deg is
                # sum_t nums[t] ad^(deg - t) x^t
                acc = [nums[-1]]
                for c in reversed(nums[:-1]):
                    p *= ad
                    acc = _times_linear(acc, -an, ad, 1)
                    acc[0] += c * p
            z = 0
            while not acc[z]:
                z += 1
            if z or p != 1:
                got = (z,) + _reduced(self.den * p, tuple(acc[z:]))
            else:
                got = (0, self.den, tuple(acc))
            self._taylor[i] = got
        return got

    def order(self, i):
        """Order of the function at P_i (0-based index)."""
        if len(self.nums) == 1:
            return self.k[i]
        return self.k[i] + self._qjet(i)[0]

    def order_infinity(self):
        """Order of the function at infinity, without the chart factor."""
        return 1 - len(self.nums) - sum(self.k)

    def _jet(self, cfg, i, length):
        """(den, nums) with at least `length` Laurent coefficients at P_i,
        from order(i) on."""
        got = self._jets.get(i)
        if got is None or len(got[1]) < length:
            _z, qd, tail = self._qjet(i)
            bd, ser = _binomial_product(cfg, i, self.k, length)
            got = _reduced(qd * bd, tuple(_series_mul(tail, ser, length)))
            self._jets[i] = got
        return got

    def jet(self, cfg, i, length):
        """The first `length` Laurent coefficients at P_i, from order(i)
        on, as rationals."""
        den, nums = self._jet(cfg, i, length)
        return [Rat(x, den) for x in nums[:length]]

    def __mul__(self, other):
        return DivisorForm(self.points,
                           *_reduced(self.den * other.den,
                                     tuple(_poly_mul(self.nums, other.nums))),
                           tuple(a + b for a, b in zip(self.k, other.k)))

    def deriv(self):
        """The z-derivative: with S the points of nonzero exponent and
        (z - P_i) = l_i / d_i for l_i = d_i z - n_i, P_i = n_i / d_i,
        f' = prod_S (z - P_i)^(k_i - 1) (q' prod_S l_i
             + q sum_{i in S} k_i d_i prod_{S - i} l_l) / prod_S d_i."""
        pts, k, nums = self.points, self.k, self.nums
        live = [i for i, e in enumerate(k) if e]
        out = [t * nums[t] for t in range(1, len(nums))]
        den = self.den
        for i in live:
            out = _times_linear(out, pts[i].num, pts[i].den, 1)
            den *= pts[i].den
        for i in live:
            term = [k[i] * pts[i].den * x for x in nums]
            for j in live:
                if j != i:
                    term = _times_linear(term, pts[j].num, pts[j].den, 1)
            if len(term) > len(out):
                out, term = term, out
            for t, x in enumerate(term):
                out[t] += x
        return DivisorForm(pts, *_reduced(den, _trimmed(out)),
                           tuple(e - 1 if e else 0 for e in k))

    def function(self):
        """The reduced rational function: zeros of q at points of negative
        exponent are cancelled into the denominator."""
        if not self.nums:
            return RationalFunction.zero()
        # f = (num / nden) / (den / dden), den monic over dden
        num, nden = list(self.nums), self.den
        den, dden = [1], 1
        for i, (a, e) in enumerate(zip(self.points, self.k)):
            an, ad = a.num, a.den
            if e < 0:
                # q / (z - a)^z = ad^z q / (ad z - an)^z
                z = min(self._qjet(i)[0], -e)
                if z:
                    for _ in range(z):
                        num = _divide_linear(num, an, ad)
                    num = [x * ad ** z for x in num]
                    e += z
            if e > 0:
                num = _times_linear(num, an, ad, e)
                nden *= ad ** e
            elif e < 0:
                den = _times_linear(den, an, ad, -e)
                dden *= ad ** -e
        return RationalFunction._raw(
            Poly._raw(tuple(Rat(x, nden) for x in num)),
            Poly._raw(tuple(Rat(x, dden) for x in den)))


def linear_combination(points, terms):
    """sum c f over (c, f) pairs of forms relative to `points`, as one form
    whose exponents are the least of the terms'."""
    live = [(c, f) for c, f in terms if c.num != 0 and f.nums]
    if not live:
        return DivisorForm(points, 1, (), (0,) * len(points))
    kmin = tuple(min(f.k[i] for _c, f in live) for i in range(len(points)))
    parts = []
    den = 1
    for c, f in live:
        q = [c.num * x for x in f.nums]
        d = c.den * f.den
        for a, e, e0 in zip(points, f.k, kmin):
            if e > e0:
                q = _times_linear(q, a.num, a.den, e - e0)
                d *= a.den ** (e - e0)
        parts.append((d, q))
        if den % d:
            den = lcm(den, d)
    total = [0] * max(len(q) for _d, q in parts)
    for d, q in parts:
        s = den // d
        for t, x in enumerate(q):
            total[t] += s * x
    return DivisorForm(points, *_reduced(den, _trimmed(total)), kmin)


def _local_jet(cfg, f, i, length, d):
    """(den, nums) with at least `length` coefficients of f^(d) at P_i,
    starting at the order of f there (0 for a function) minus d."""
    if isinstance(f, DivisorForm):
        (den, cs), order = f._jet(cfg, i, length), f.order(i)
    else:
        (den, cs), order = _function_jet(cfg, f, i, length), 0
    return den, (_derived(cs[:length], order, d) if d else cs)


def residue_sum(cfg, f, g, df=0, dg=0):
    """Sum over the marked points of the residues of f^(df) g^(dg) dz.

    f and g are nonzero divisor forms relative to cfg, or rational
    functions regular at every marked point; df and dg count
    z-derivatives.
    """
    num, den = 0, 1
    for i in range(cfg.n_points):
        m = -1 + df + dg
        for h in (f, g):
            if isinstance(h, DivisorForm):
                m -= h.order(i)
        if m < 0:
            continue
        ad, a = _local_jet(cfg, f, i, m + 1, df)
        bd, b = _local_jet(cfg, g, i, m + 1, dg)
        s = 0
        for t in range(m + 1):
            s += a[t] * b[m - t]
        if s:
            d = ad * bd
            num = num * d + s * den
            den *= d
    return Rat(num, den)


def monomial_expansion(cfg, k, lam):
    """The basis expansion of M_k dz^lam, M_k = prod_i (z - P_i)^k_i, as a
    canonical integer form (den, {(n, p): int}) over the A_{n,p}: the
    weight-free `_monomial_form` of k, read `at_weight` lam."""
    return at_weight(_monomial_form(cfg, k), lam)


def at_weight(mform, lam):
    """A weight-free form (den, {(e, p): int}) over the B_{e,p} as one over
    the A_{n,p} at weight lam, where B_{e,p} dz^lam is A_{e+lam-1,p}."""
    den, nums = mform
    return den, {(e + lam - 1, p): x for (e, p), x in nums.items()}


def _monomial_form(cfg, k):
    """M_k as a canonical integer form (den, {(e, p): int}) over
    B_{e,p} = prod_{q != p} (P_p - P_q)^-e M_{e 1 - e_p}; cached per k.

    While max k - min k >= 2, with j at a highest and i at a lowest
    exponent, M_k = M_{k - e_j + e_i} + (P_i - P_j) M_{k - e_j}: each step
    keeps the exponents in [min k, max k] and lowers sum k or, at equal
    sum, N sum k^2 - (sum k)^2.  A flat k = e 1 - 1_S (S the points at
    min k) expands by partial fractions into sum_{i in S} `_leading` B_{e,i}.
    The work grows with the spread, not with |k|: unit entries and residues
    pass spreads of at most 3, block expansions their pole bound.
    """
    key = ("mexp", k)
    hit = cfg.cache.get(key)
    if hit is not None:
        return hit
    pts = cfg.points
    lo, hi = min(k), max(k)
    if hi - lo >= 2:
        j, i = k.index(hi), k.index(lo)
        kj = k[:j] + (hi - 1,) + k[j + 1:]
        den, acc = _monomial_form(cfg, kj[:i] + (lo + 1,) + kj[i + 1:])
        acc, x = dict(acc), pts[i] - pts[j]
        hit = canonical(add_scaled(den, acc, *_monomial_form(cfg, kj),
                                   x.num, x.den), acc)
    else:
        hit = form({(lo + 1, i + 1): _leading(pts, k, i)
                    for i in range(len(k)) if k[i] == lo})
    cfg.cache[key] = hit
    return hit


def _leading(pts, k, i):
    """prod_{q != i} (P_i - P_q)^k_q, M_k / (z - P_i)^k_i at P_i."""
    an, ad = pts[i].num, pts[i].den
    num = den = 1
    for q, (b, e) in enumerate(zip(pts, k)):
        if e and q != i:
            x, y = an * b.den - b.num * ad, ad * b.den
            if e < 0:
                x, y, e = y, x, -e
            num, den = num * x ** e, den * y ** e
    return Rat(num, den)


def _double_pole_residue(pts, k, i):
    """The residue of M_k dz at P_i when k_i = -2: the derivative at P_i
    of M_k (z - P_i)^2, that is `_leading` times sum_{q != i} k_q /
    (P_i - P_q), the sum taken in ints."""
    an, ad = pts[i].num, pts[i].den
    num, den = 0, 1
    for q, (b, e) in enumerate(zip(pts, k)):
        if e and q != i:  # P_i - P_q = x / y
            x, y = an * b.den - b.num * ad, ad * b.den
            num, den = num * x + e * y * den, den * x
    return _leading(pts, k, i) * Rat(num, den)


def monomial_residue(cfg, k):
    """Sum over the marked points of the residues of M_k dz; cached per k.

    0 when M_k has no pole at a marked point.  Else the residues of M_k dz
    over the sphere sum to 0 and M_k = z^s (1 - sum_i k_i P_i / z + ...)
    at infinity, s = sum k: so 0 for s <= -2, 1 for s = -1 and
    -sum_i k_i P_i for s = 0.  For s > 0 and poles of order at most two,
    the sum of `_leading` over the simple poles and of
    `_double_pole_residue` over the double ones; else the sum of the
    degree-0 coefficients of the expansion at weight 1, since A^1_{n,p}
    has residue sum 1 for n = 0 and 0 otherwise (no pole at a marked point
    for n > 0, no residue at infinity for n < 0)."""
    lo, s = min(k), sum(k)
    if lo >= 0 or s < -1:
        return RAT0
    if s == -1:
        return RAT1
    key = ("mres", k)
    hit = cfg.cache.get(key)
    if hit is None:
        pts = cfg.points
        if s == 0:
            hit = -sum((a * e for a, e in zip(pts, k) if e), RAT0)
        elif lo >= -2:
            hit = sum((_leading(pts, k, i) if e == -1
                       else _double_pole_residue(pts, k, i)
                       for i, e in enumerate(k) if e < 0), RAT0)
        else:
            den, nums = _monomial_form(cfg, k)  # B_{e,p} dz is A_{e,p}
            hit = Rat(sum(nums.get((0, p), 0)
                          for p in range(1, cfg.n_points + 1)), den)
        cfg.cache[key] = hit
    return hit


# --------------------------------------------------------------- sections --

class Section:
    """A weight-lam differential f(z) dz^lam, with f held as one divisor
    form relative to the marked points it was made for."""

    __slots__ = ("lam", "_form")

    def __init__(self, lam, form):
        self.lam = lam
        self._form = form

    @property
    def value(self):
        """f as a reduced rational function, rebuilt on each call; for
        output only."""
        return self._form.function()

    def form(self, cfg):
        """The divisor form; DomainError unless cfg has its points."""
        form = self._form
        if form.points is not cfg.points and form.points != cfg.points:
            raise DomainError("section of %s used with %r"
                              % (Config(form.points), cfg))
        return form

    def is_zero(self):
        return self._form.is_zero()

    def order_at(self, p):
        """Order at a marked point of the form, or at INFINITY with the
        chart factor."""
        form = self._form
        if form.is_zero():
            raise DomainError("order of zero undefined")
        if p is INFINITY:
            return form.order_infinity() - 2 * self.lam
        if p not in form.points:
            raise DomainError("%s is not a marked point of %s"
                              % (p, Config(form.points)))
        return form.order(form.points.index(p))

    def __repr__(self):
        return "Section(lam=%d, %s)" % (self.lam, self.value)


class Combination:
    """Finite exact linear combination {key: Rat}; zero coefficients are
    never stored.  The arithmetic of `GradedElement`, `AffineElement` and
    `ModuleVector`: a subclass says how to build one of its own kind
    (`_like`) and what besides the terms tells two apart (`_tag`)."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        src = terms if isinstance(terms, dict) else dict(terms)
        self.terms = {k: v for k, v in src.items() if v.num != 0}

    def _like(self, terms):
        return type(self)(terms)

    def _tag(self):
        return None

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return self._like(merge(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def scale(self, c):
        c = as_rat(c)
        if c.num == 0:
            return self._like({})
        return self._like({k: v * c for k, v in self.terms.items()})

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return (type(other) is type(self) and self._tag() == other._tag()
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self._tag(), frozenset(self.terms.items())))


class GradedElement(Combination):
    """Finite linear combination of basis elements of one weight lam;
    terms maps (n, p) -> coefficient."""

    __slots__ = ("lam",)

    def __init__(self, lam, terms=()):
        self.lam = lam
        super().__init__(terms)

    def _like(self, terms):
        return GradedElement(self.lam, terms)

    def _tag(self):
        return self.lam

    @classmethod
    def unit(cls, lam, n, p):
        return cls(lam, {(n, p): RAT1})

    def support_degrees(self):
        return sorted({n for (n, _p) in self.terms})

    def coefficient(self, n, p):
        return self.terms.get((n, p), RAT0)

    def __add__(self, other):
        if self.lam != other.lam:
            raise DomainError("weight mismatch in graded sum")
        return super().__add__(other)

    def __repr__(self):
        body = " + ".join("%s*f[%d,%d]" % (v, n, p)
                          for (n, p), v in self.items())
        return "GradedElement(lam=%d, %s)" % (self.lam, body or "0")


def kn_basis_record(cfg, idx):
    """The basis element as a Section, one form c M_k whose exponents k
    are its orders at the points; memoized per Config.

    idx is a KNIndex or any (lam, n, p) sequence.  The cache is read
    first: a KNIndex and the plain tuple of its fields are equal keys, and
    only validated indices are ever stored."""
    hit = cfg.cache.get(("basis",
                         idx if isinstance(idx, tuple) else tuple(idx)))
    if hit is not None:
        return hit
    idx = KNIndex(*idx)
    if not 1 <= idx.p <= cfg.n_points:
        raise DomainError("point index %d out of range" % idx.p)
    lam, n, p = idx
    e = n - lam + 1
    k = tuple(e - 1 if i == p else e for i in range(1, cfg.n_points + 1))
    c = _leading(cfg.points, (-e,) * cfg.n_points, p - 1)
    sec = cfg.cache[("basis", idx)] = Section(
        lam, DivisorForm(cfg.points, c.den, (c.num,), k))
    return sec


def kn_basis_element(cfg, idx):
    """The unique normalized section for (weight, degree, point index)."""
    return kn_basis_record(cfg, idx)


def kn_pairing(cfg, f, g):
    """Residue pairing of sections of weights h and 1 - h.

    Computed as the sum of residues of f*g over the marked points; equals
    minus the residue at infinity by the residue theorem.  Two monomial
    forms c_f M_{k_f} and c_g M_{k_g}, basis elements among them, pair to
    c_f c_g times the cached `monomial_residue` of K = k_f + k_g; other
    forms go through their Laurent jets (`residue_sum`).  A form not made
    for cfg goes to `Section.form`.

    Most monomial pairs are 0 by degree alone, and are settled before K is
    built.  sum K = sum k_f + sum k_g, and min K is at least
    min k_f + min k_g; so sum k_f + sum k_g < -1 (M_K dz has no residue
    at infinity, and so none in all at the marked points) or
    min k_f + min k_g at least 0 (M_K has no pole at a marked point) are
    `monomial_residue`'s two zero tests on K.
    """
    if not isinstance(f, Section) or not isinstance(g, Section):
        raise DomainError("pairing expects sections")
    if f.lam + g.lam != 1:
        raise DomainError("weight mismatch: %d + %d != 1" % (f.lam, g.lam))
    ff, gf = f._form, g._form
    if ff.points is not cfg.points or gf.points is not cfg.points:
        ff, gf = f.form(cfg), g.form(cfg)
    if not ff.nums or not gf.nums:
        return RAT0
    if len(ff.nums) == 1 and len(gf.nums) == 1:
        kf, kg = ff.k, gf.k
        if sum(kf) + sum(kg) < -1 or min(kf) + min(kg) >= 0:
            return RAT0
        res = monomial_residue(cfg, tuple(map(add, kf, kg)))
        if res.num == 0:  # most pairs: skip the constant's Rat
            return RAT0
        return res * Rat(ff.nums[0] * gf.nums[0], ff.den * gf.den)
    return residue_sum(cfg, ff, gf)


def section_from_graded(cfg, ge):
    """Realize a graded element as an actual section."""
    return Section(ge.lam, linear_combination(cfg.points, [
        (c, kn_basis_record(cfg, (ge.lam, n, p))._form)
        for (n, p), c in ge.terms.items()]))


def expand_in_basis(cfg, s):
    """Exact expansion of a section in the basis of its weight.

    Degree by degree from the lowest, the coefficient of A_{n,p} is the
    xi^(n-lam) coefficient at P_p of the section minus the terms found so
    far (A_{n,p} has order n - lam there, the other A_{n,r} one more).
    The reconstruction is verified to reproduce the input exactly.
    """
    if not isinstance(s, Section):
        raise DomainError("expected a section")
    form = s.form(cfg)
    lam = s.lam
    if form.is_zero():
        return GradedElement(lam, {})
    n_pts = cfg.n_points
    orders = [form.order(i) for i in range(n_pts)]
    o_inf = form.order_infinity() - 2 * lam
    n_min = lam + min(orders)
    n_max = (n_pts * lam - 2 * lam - o_inf) // n_pts
    top = n_max - lam
    jets = [form._jet(cfg, i, max(0, top - orders[i] + 1))
            for i in range(n_pts)]
    terms = {}
    found = []  # (coefficient, basis form) in the order found
    for n in range(n_min, n_max + 1):
        t = n - lam
        new = []
        for i in range(n_pts):
            # the coefficient num / den, peeled in ints
            den, js = jets[i]
            num = js[t - orders[i]] if t >= orders[i] else 0
            for c2, a in found:
                j = t - a.k[i]
                if j >= 0:
                    ad, ajs = a._jet(cfg, i, top - a.k[i] + 1)
                    x = ajs[j]
                    if x:
                        d2 = c2.den * ad
                        g = gcd(den, d2)
                        num = num * (d2 // g) - c2.num * x * (den // g)
                        den = den // g * d2
            if num:
                new.append(((n, i + 1), Rat(num, den)))
        for key, c in new:
            terms[key] = c
            found.append((c, kn_basis_record(cfg, (lam, *key))._form))
    rest = linear_combination(cfg.points, [(RAT1, form)]
                              + [(-c, a) for c, a in found])
    if not rest.is_zero():
        raise BasisConstructionError(
            "expansion failed to reproduce the section (internal error)")
    return GradedElement(lam, terms)


def homogeneous_dimension(cfg, lam, n):
    """Dimension of the weight-lam degree-n subspace: the number of
    distinct points at which A_{n,1..N} attain their lowest order, the
    rank of their leading terms, as elements led at distinct points are
    independent."""
    orders = (kn_basis_record(cfg, (lam, n, p))._form.order
              for p in range(1, cfg.n_points + 1))
    return len({min(range(cfg.n_points), key=order) for order in orders})
