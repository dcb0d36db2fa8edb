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
the other factors per configuration.  Residues, hence the pairing of
weights h and 1 - h that realizes the duality, are read off these jets;
basis expansion peels them degree by degree and is checked by exact
reconstruction.
"""

from __future__ import annotations

from typing import NamedTuple

from ._kernel import (RAT0, RAT1, Rat, poly_add, poly_deriv, poly_mul,
                      poly_scale)
from .errors import BasisConstructionError, DomainError
from .ratfield import (INFINITY, Poly, RationalFunction, as_rat,
                       local_expansion)


class Config:
    """Marked points: N distinct finite rational coordinates; reference
    point fixed at z = infinity; genus 0.

    Carries a memo table for constructed basis elements and derived
    structure constants, and one for the local series shared by all
    sections relative to these points.  Values are immutable, so
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

    def point(self, p):
        """1-based access, matching the index convention of the basis."""
        if not 1 <= p <= self.n_points:
            raise DomainError("point index %d out of range 1..%d"
                              % (p, self.n_points))
        return self.points[p - 1]

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


# ---------------------------------------------------------- local series --

def _series_mul(a, b, length):
    """First `length` coefficients of a(xi) b(xi); b has at least that many."""
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


def _binomial_product(cfg, i, k, length):
    """At least `length` Taylor coefficients at P_i of
    prod_{j != i} (z - P_j)^k_j; cached per configuration."""
    key = (i, k[:i] + k[i + 1:])
    got = cfg.series.get(key)
    if got is not None and len(got) >= length:
        return got
    pts = cfg.points
    a = pts[i]
    out = [RAT1] + [RAT0] * (length - 1)
    for j, e in enumerate(k):
        if j == i or e == 0:
            continue
        # (d + xi)^e = d^e sum_t binom(e, t) (xi/d)^t
        d = a - pts[j]
        inv = RAT1 / d
        ser = [d ** e]
        for t in range(length - 1):
            ser.append(ser[-1] * inv * Rat(e - t, t + 1))
        out = _series_mul(out, ser, length)
    got = tuple(out)
    cfg.series[key] = got
    return got


def _function_jet(cfg, f, i, length):
    """At least `length` Taylor coefficients at P_i of a rational function
    regular there, from order 0 on; cached per configuration."""
    key = ("function", f, i)
    got = cfg.series.get(key)
    if got is None or len(got) < length:
        o, coeffs = local_expansion(f, cfg.points[i], length)
        if o < 0:
            raise DomainError("pole at marked point P_%d" % (i + 1))
        got = tuple([RAT0] * o + coeffs)
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

    q is a trimmed coefficient tuple, empty for the zero function.  It may
    vanish at a marked point: the order there counts its leading zeros.
    """

    __slots__ = ("points", "q", "k", "_taylor", "_jets")

    def __init__(self, points, q, k):
        self.points = points
        self.q = q
        self.k = k
        self._taylor = {}
        self._jets = {}

    def is_zero(self):
        return not self.q

    def _qjet(self, i):
        """(z, tail): the leading zeros of q's Taylor jet at P_i and the
        coefficients from the first nonzero one on."""
        got = self._taylor.get(i)
        if got is None:
            q = self.q
            if len(q) == 1:
                got = (0, q)
            else:
                t = Poly._raw(q).shifted(self.points[i])
                z = 0
                while t[z].num == 0:
                    z += 1
                got = (z, t[z:])
            self._taylor[i] = got
        return got

    def order(self, i):
        """Order of the function at P_i (0-based index)."""
        return self.k[i] + self._qjet(i)[0]

    def order_infinity(self):
        """Order of the function at infinity, without the chart factor."""
        return 1 - len(self.q) - sum(self.k)

    def jet(self, cfg, i, length):
        """At least `length` Laurent coefficients at P_i, from order(i) on."""
        got = self._jets.get(i)
        if got is None or len(got) < length:
            tail = self._qjet(i)[1]
            got = _series_mul(tail, _binomial_product(cfg, i, self.k, length),
                              length)
            self._jets[i] = got
        return got

    def __mul__(self, other):
        return DivisorForm(self.points, poly_mul(self.q, other.q),
                           tuple(a + b for a, b in zip(self.k, other.k)))

    def deriv(self):
        """The z-derivative: with S the points of nonzero exponent,
        f' = prod_S (z - P_i)^(k_i - 1) (q' prod_S (z - P_i)
             + q sum_{i in S} k_i prod_{S - i} (z - P_l))."""
        pts, k = self.points, self.k
        live = [i for i, e in enumerate(k) if e]
        lin = {i: (-pts[i], RAT1) for i in live}
        out = poly_deriv(self.q)
        for i in live:
            out = poly_mul(out, lin[i])
        for i in live:
            term = poly_scale(self.q, Rat(k[i]))
            for j in live:
                if j != i:
                    term = poly_mul(term, lin[j])
            out = poly_add(out, term)
        return DivisorForm(pts, out, tuple(e - 1 if e else 0 for e in k))

    def function(self):
        """The reduced rational function: zeros of q at points of negative
        exponent are cancelled into the denominator."""
        if not self.q:
            return RationalFunction.zero()
        num = Poly._raw(self.q)
        den = Poly._raw((RAT1,))
        for i, (a, e) in enumerate(zip(self.points, self.k)):
            lin = Poly._raw((-a, RAT1))
            if e < 0:
                z = min(self._qjet(i)[0], -e)
                if z:
                    num = num // (lin ** z)
                    e += z
            if e > 0:
                num = num * (lin ** e)
            elif e < 0:
                den = den * (lin ** -e)
        return RationalFunction._raw(num, den)


def linear_combination(points, terms):
    """sum c f over (c, f) pairs of forms relative to `points`, as one form
    whose exponents are the least of the terms'."""
    live = [(c, f) for c, f in terms if c.num != 0 and f.q]
    if not live:
        return DivisorForm(points, (), (0,) * len(points))
    kmin = tuple(min(f.k[i] for _c, f in live) for i in range(len(points)))
    total = ()
    for c, f in live:
        q = poly_scale(f.q, c)
        for a, e, e0 in zip(points, f.k, kmin):
            for _ in range(e - e0):
                q = poly_mul(q, (-a, RAT1))
        total = poly_add(total, q)
    return DivisorForm(points, total, kmin)


def _local_jet(cfg, f, i, length, d):
    """At least `length` coefficients of f^(d) at P_i, starting at the
    order of f there (0 for a function) minus d."""
    if isinstance(f, DivisorForm):
        cs, order = f.jet(cfg, i, length), f.order(i)
    else:
        cs, order = _function_jet(cfg, f, i, length), 0
    return _derived(cs[:length], order, d) if d else cs


def residue_sum(cfg, f, g, df=0, dg=0):
    """Sum over the marked points of the residues of f^(df) g^(dg) dz.

    f and g are nonzero divisor forms relative to cfg, or rational
    functions regular at every marked point; df and dg count
    z-derivatives.
    """
    total = RAT0
    for i in range(cfg.n_points):
        m = -1 + df + dg
        for h in (f, g):
            if isinstance(h, DivisorForm):
                m -= h.order(i)
        if m < 0:
            continue
        a = _local_jet(cfg, f, i, m + 1, df)
        b = _local_jet(cfg, g, i, m + 1, dg)
        for t in range(m + 1):
            total = total + a[t] * b[m - t]
    return total


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


class GradedElement:
    """Finite linear combination of basis elements of one weight.

    terms maps (n, p) -> coefficient; zero coefficients are never stored.
    """

    __slots__ = ("lam", "terms")

    def __init__(self, lam, terms=()):
        self.lam = lam
        self.terms = {k: v for k, v in dict(terms).items() if v.num != 0}

    @classmethod
    def unit(cls, lam, n, p):
        return cls(lam, {(n, p): RAT1})

    def is_zero(self):
        return not self.terms

    def support_degrees(self):
        return sorted({n for (n, _p) in self.terms})

    def coefficient(self, n, p):
        return self.terms.get((n, p), RAT0)

    def __add__(self, other):
        if self.lam != other.lam:
            raise DomainError("weight mismatch in graded sum")
        out = dict(self.terms)
        for k, v in other.terms.items():
            w = out.get(k, RAT0) + v
            if w.num == 0:
                out.pop(k, None)
            else:
                out[k] = w
        return GradedElement(self.lam, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GradedElement(self.lam, {k: -v for k, v in self.terms.items()})

    def scale(self, c):
        c = as_rat(c)
        if c.num == 0:
            return GradedElement(self.lam, {})
        return GradedElement(self.lam, {k: v * c for k, v in self.terms.items()})

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return (isinstance(other, GradedElement) and self.lam == other.lam
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.lam, frozenset(self.terms.items())))

    def __repr__(self):
        body = " + ".join("%s*f[%d,%d]" % (v, n, p)
                          for (n, p), v in self.items())
        return "GradedElement(lam=%d, %s)" % (self.lam, body or "0")


class BasisRecord(NamedTuple):
    section: Section
    orders: dict          # point index (1-based) -> attained order
    order_infinity: int   # attained order at the reference point


def kn_basis_record(cfg, idx):
    """Construct the basis element with its orders; memoized per Config."""
    idx = KNIndex(*idx)
    if not 1 <= idx.p <= cfg.n_points:
        raise DomainError("point index %d out of range" % idx.p)
    key = ("basis", idx)
    hit = cfg.cache.get(key)
    if hit is not None:
        return hit

    lam, n, p = idx
    e = n - lam + 1
    pts = cfg.points
    home = pts[p - 1]
    c = RAT1
    for i, a in enumerate(pts, start=1):
        if i != p:
            c = c * (home - a)
    k = tuple(e - 1 if i == p else e for i in range(1, cfg.n_points + 1))
    form = DivisorForm(pts, (c ** -e,), k)
    rec = BasisRecord(Section(lam, form),
                      dict(enumerate(k, start=1)),
                      -sum(k) - 2 * lam)
    cfg.cache[key] = rec
    return rec


def kn_basis_element(cfg, idx):
    """The unique normalized section for (weight, degree, point index)."""
    return kn_basis_record(cfg, idx).section


def kn_pairing(cfg, f, g):
    """Residue pairing of sections of weights h and 1 - h.

    Computed as the sum of residues of f*g over the marked points; equals
    minus the residue at infinity by the residue theorem.
    """
    if not isinstance(f, Section) or not isinstance(g, Section):
        raise DomainError("pairing expects sections")
    if f.lam + g.lam != 1:
        raise DomainError("weight mismatch: %d + %d != 1" % (f.lam, g.lam))
    ff, gf = f.form(cfg), g.form(cfg)
    if ff.is_zero() or gf.is_zero():
        return RAT0
    return residue_sum(cfg, ff, gf)


def section_from_graded(cfg, ge):
    """Realize a graded element as an actual section."""
    return Section(ge.lam, linear_combination(cfg.points, [
        (c, kn_basis_element(cfg, KNIndex(ge.lam, n, p)).form(cfg))
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
    jets = [form.jet(cfg, i, max(0, top - orders[i] + 1))
            for i in range(n_pts)]
    terms = {}
    found = []  # (coefficient, basis form) in the order found
    for n in range(n_min, n_max + 1):
        t = n - lam
        new = []
        for i in range(n_pts):
            c = jets[i][t - orders[i]] if t >= orders[i] else RAT0
            for c2, a in found:
                j = t - a.k[i]
                if j >= 0:
                    c = c - c2 * a.jet(cfg, i, top - a.k[i] + 1)[j]
            if c.num != 0:
                new.append(((n, i + 1), c))
        for key, c in new:
            terms[key] = c
            found.append(
                (c, kn_basis_element(cfg, KNIndex(lam, *key)).form(cfg)))
    rest = linear_combination(cfg.points, [(RAT1, form)]
                              + [(-c, a) for c, a in found])
    if not rest.is_zero():
        raise BasisConstructionError(
            "expansion failed to reproduce the section (internal error)")
    return GradedElement(lam, terms)


def homogeneous_dimension(cfg, lam, n):
    """Dimension of the degree-n homogeneous subspace: N at genus 0."""
    return cfg.n_points
