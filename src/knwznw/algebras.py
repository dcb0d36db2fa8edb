"""Function and vector-field algebras on the marked sphere.

At genus zero every basis element is c M_k dz^lam for a constant c and a
monomial M_k = prod_i (z - P_i)^k_i, read off its cached form
(`basis.kn_basis_record`, with no `Section.form` point check).  So the
structure constants of unit pairs are short combinations of monomials:
with K = k_a + k_b and e_j the j-th unit vector,

    A_a A_b         = c_a c_b M_K,
    M_k'            = sum_j k_j M_{k - e_j},
    e s' + lam e' s = c_e c_s sum_j (k_s,j + lam k_e,j) M_{K - e_j},

the last being the Lie derivative of a weight-lam s along e d/dz; at
lam = -1 it is the bracket e s' - s e' of vector fields.  A unit at P_p
is B_{e,p} = V_p^-e M_{e 1 - e_p} (`basis`), so K = E 1 + K0 with
E = e_a + e_b, K0 = -e_p - e_r, and each entry of a point pair (p, r)
is c Pi^E times M_K0 (products) or (e_s + lam e_e) S0 - R0 - lam P0
(Lie derivatives at any weight) for S0 = sum_j M_{K0 - e_j},
R0 = M_{K0 - e_r} and P0 = M_{K0 - e_p}.  Their weight-free closed forms
(`basis._monomial_form`) are cached once per (p, r) ("ubase"); a unit
entry ("prod", or "lied", which at lam = -1 holds the brackets) is their
exact rescale Pi^E B_{e,s} = V_s^E B_{e+E,s} (`_rescaled`).
Products, brackets and Lie derivatives of combinations share one
integer-form core, `_bilinear_raw`: it sums the scaled unit entries over
one common denominator, into a caller's accumulator or a fresh one, and
returns (den, {key: int}).  The loop-algebra bracket
`affine.affine_bracket` is the same core over its own unit entry.  Rat
is built only at the public boundary (`multiply`, `vf_bracket`,
`lie_derivative`, `affine_bracket`), one per output key;
`vf_bracket_sum` exposes the core for vector fields, on integer forms in
and one canonical integer form of a sum of brackets out, for callers
that only add brackets and test the sum for zero.
Cocycles are residue sums.  A unit gamma entry f dg = c Pi^E (e_g S0 -
R0) reads at most N coefficients of the same base forms, since B_{e,s} dz
has residue sum 1 at e = 0 and 0 otherwise; the connection part of chi
uses the bracket identity with one cached residue of R M_K per (R, K)
("Rmono"), summed in Python ints into one Rat.  Chi's
third-derivative part stays on local jets, except where its degree at
infinity settles it as 0 (`_unit_chi`).  The two
geometric cocycles are

    gamma(f, g) = sum of residues of f dg over the marked points,
    chi_R(e, f) = (1/12) sum of residues of
                  (1/2)(e'''f - e f''') - R (e'f - e f')

with R a projective connection (any rational function regular at the
marked points and at infinity; R = 0 is admissible on the sphere).
Both integrals run over a cycle separating the marked points from
infinity, hence the residue sums.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from ._kernel import RAT0, RAT1, Rat, add_scaled, canonical, form, rats
from .basis import (DivisorForm, GradedElement, _monomial_form, _v_powers,
                    kn_basis_element, kn_basis_record, linear_combination,
                    residue_sum, section_from_graded)
from .errors import DomainError
from .ratfield import INFINITY, RationalFunction, order_at


class ProjectiveConnection(NamedTuple):
    """Global representative of a projective connection in the z-chart."""

    value: RationalFunction

    def validate(self, cfg):
        """Raise DomainError if R has a pole at a marked point or at
        infinity; a connection that passes is remembered in cfg.cache."""
        key = ("R-valid", self.value)
        if self.value.is_zero() or key in cfg.cache:
            return
        for i, pt in enumerate(cfg.points, start=1):
            if order_at(self.value, pt) < 0:
                raise DomainError(
                    "projective connection has a pole at marked point P_%d" % i)
        if order_at(self.value, INFINITY) < 0:
            raise DomainError(
                "projective connection has a pole at the reference point")
        cfg.cache[key] = True


R_ZERO = ProjectiveConnection(RationalFunction.zero())


def _as_graded(x):
    if not isinstance(x, GradedElement):
        raise DomainError("expected a graded element")
    return x


def _bracket_form(cfg, e, f):
    """e f' - f e' for forms e, f."""
    return linear_combination(cfg.points, ((RAT1, e * f.deriv()),
                                           (-RAT1, f * e.deriv())))


def _unit_pair(cfg, lam_a, a, lam_b, b):
    """(c, k_a, k_b) for A_a = c_a M_{k_a} and A_b = c_b M_{k_b}, with
    c = c_a c_b as (num, den)."""
    fa = kn_basis_record(cfg, (lam_a, *a))._form
    fb = kn_basis_record(cfg, (lam_b, *b))._form
    return (fa.nums[0] * fb.nums[0], fa.den * fb.den), fa.k, fb.k


def _lowered(ka, kb, weights):
    """(w_j, K - e_j) over the points j, for K = k_a + k_b: the terms of
    sum_j w_j M_{K - e_j}."""
    k = tuple(x + y for x, y in zip(ka, kb))
    return [(w, k[:j] + (k[j] - 1,) + k[j + 1:])
            for j, w in enumerate(weights)]


def _unit_base(cfg, p, r):
    """(den, {e: {s: (M_K0, S0, R0, P0)}}): the weight-free forms over the
    B_{e,s} at K0 = -e_p - e_r, one denominator; cached per (p, r)."""
    key = ("ubase", p, r)
    hit = cfg.cache.get(key)
    if hit is None:
        k0 = tuple(-(q == p) - (q == r) for q in range(1, cfg.n_points + 1))
        low = [_monomial_form(cfg, k0)] + [
            _monomial_form(cfg, k0[:j] + (k0[j] - 1,) + k0[j + 1:])
            for j in range(cfg.n_points)]
        den, acc = lcm(*(d for d, _ in low)), {}
        for j, (d, nums) in enumerate(low):  # M_K0, then M_{K0 - e_j}
            for (e, s), x in nums.items():
                x *= den // d
                row = acc.setdefault(e, {})
                f, y, t, u = row.get(s, (0, 0, 0, 0))
                row[s] = (f + x * (j == 0), y + x * (j > 0), t + x * (j == r),
                          u + x * (j == p))
        hit = cfg.cache[key] = den, acc
    return hit


def _rescaled(cfg, p, ea, r, eb, lam, base, w):
    """c_a c_b Pi^E F dz^lam over the A_{n,s}, canonical, for A_a = B_{ea,p},
    A_b = B_{eb,r}, E = ea + eb and F the combination with weights w of a
    `_unit_base` of (p, r), or of some of its rows."""
    e = ea + eb
    (ad, an), (bd, bn) = _v_powers(cfg, -ea), _v_powers(cfg, -eb)
    vd, vn = _v_powers(cfg, e)
    m = [an[p - 1] * bn[r - 1] * x for x in vn.values()]
    (den, rows), (wf, ws, wt, wu) = base, w
    return canonical(den * ad * bd * vd, {
        (k + e + lam - 1, s): (wf * f + ws * x + wt * y + wu * z) * m[s - 1]
        for k, row in rows.items() for s, (f, x, y, z) in row.items()})


def _unit_product(cfg, lams, a, b):
    key = ("prod", lams, a, b) if (lams[0], a) <= (lams[1], b) \
        else ("prod", (lams[1], lams[0]), b, a)
    hit = cfg.cache.get(key)
    if hit is None:
        (n, p), (m, r) = a, b  # A_a A_b = c_a c_b Pi^E M_K0
        hit = cfg.cache[key] = _rescaled(
            cfg, p, n - lams[0] + 1, r, m - lams[1] + 1, sum(lams),
            _unit_base(cfg, p, r), (1, 0, 0, 0))
    return hit


def _lie_terms(cfg, a, lam, b):
    """c and the terms of e s' + lam e' s = c sum_j (k_s,j + lam k_e,j)
    M_{K - e_j} for e = A_a and s = A_b of weight lam; at lam = -1 it is
    the bracket e s' - s e' of two vector fields."""
    c, ke, ks = _unit_pair(cfg, -1, a, lam, b)
    return c, _lowered(ke, ks, [y + lam * x for x, y in zip(ke, ks)])


def _unit_lie_derivative(cfg, a, lam, b):
    """The Lie derivative of A_b of weight lam along A_a; at lam = -1 the
    bracket [A_a, A_b], which is asked for with a < b."""
    key = ("lied", a, lam, b)
    hit = cfg.cache.get(key)
    if hit is None:
        # e s' + lam e' s = c Pi^E ((e_s + lam e_e) S0 - R0 - lam P0)
        (n, p), (m, r) = a, b
        hit = cfg.cache[key] = _rescaled(
            cfg, p, n + 2, r, m - lam + 1, lam, _unit_base(cfg, p, r),
            (0, m - lam + 1 + lam * (n + 2), -1, -lam))
    return hit


def _bilinear_raw(f, g, unit_fn, antisymmetric=False, into=None):
    """Sum of ca cb unit_fn(a, b) over the terms of integer forms f and g,
    as an integer form (den, {key: int}) that may hold zero numerators.

    unit_fn returns a unit entry as an integer form (D, numerators).  The
    sum runs in Python ints over one common denominator (`add_scaled`),
    added into the caller's accumulator into = (den, out) when one is
    given (out is extended in place) and into a fresh one otherwise.
    For an antisymmetric unit_fn it is asked only for pairs a < b: a
    reversed pair takes the same entry with the sign folded into its
    coefficient, and a == b contributes nothing.
    """
    fd, fn = f
    gd, gn = g
    den, out = into or (1, {})
    e = fd * gd
    for a, ca in fn.items():
        for b, cb in gn.items():
            if antisymmetric and a >= b:
                if a == b:
                    continue
                d, nums = unit_fn(b, a)
                c = -(ca * cb)
            else:
                d, nums = unit_fn(a, b)
                c = ca * cb
            den = add_scaled(den, out, d, nums, c, e)
    return den, out


def _bilinear(f, g, lam_out, unit_fn, antisymmetric=False):
    """`_bilinear_raw` on graded elements; one Rat is built per output
    key."""
    return GradedElement(lam_out, rats(*_bilinear_raw(
        form(f.terms), form(g.terms), unit_fn, antisymmetric)))


def multiply(cfg, f, g):
    """Product F^a x F^b -> F^(a+b), expanded in the basis."""
    f = _as_graded(f)
    g = _as_graded(g)
    lams = (f.lam, g.lam)
    return _bilinear(f, g, f.lam + g.lam,
                     lambda a, b: _unit_product(cfg, lams, a, b))


def vf_bracket(cfg, e, f):
    """Lie bracket of vector fields: [e, f] = (e f' - f e') d/dz."""
    e = _as_graded(e)
    f = _as_graded(f)
    if e.lam != -1 or f.lam != -1:
        raise DomainError("vector fields have weight -1")
    return _bilinear(e, f, -1,
                     lambda a, b: _unit_lie_derivative(cfg, a, -1, b),
                     antisymmetric=True)


def vf_bracket_sum(cfg, pairs):
    """The sum of [e, f] over the pairs (e, f) of integer forms
    (den, {(n, p): int}) of weight -1 elements, as a canonical integer
    form: every bracket is added into one accumulator, and `canonical`
    runs once.  One pair gives the bracket of `vf_bracket` without its
    Rat boundary."""
    unit = lambda a, b: _unit_lie_derivative(cfg, a, -1, b)
    acc = (1, {})
    for e, f in pairs:
        acc = _bilinear_raw(e, f, unit, True, acc)
    return canonical(*acc)


def lie_derivative(cfg, e, s):
    """Lie derivative of a weight-h element along a vector field."""
    e = _as_graded(e)
    if e.lam != -1:
        raise DomainError("vector fields have weight -1")
    s = _as_graded(s)
    return _bilinear(e, s, s.lam,
                     lambda a, b: _unit_lie_derivative(cfg, a, s.lam, b))


def _residue_combination(cfg, c, terms, residue, *args):
    """c sum_j w_j residue(cfg, k_j, *args) over (w_j, k_j) in terms,
    c = (num, den), summed in ints over one denominator into one Rat."""
    num, den = 0, 1
    for w, k in terms:
        if w:
            r = residue(cfg, k, *args)
            if r.num:  # num/den + w r over lcm(den, r.den)
                g = r.den // gcd(den, r.den)
                num, den = num * g + w * r.num * (den * g // r.den), den * g
    return Rat(num * c[0], den * c[1])


def _unit_gamma(cfg, a, b):
    if a == b:
        return RAT0
    if a > b:
        return -_unit_gamma(cfg, b, a)
    key = ("gammau", a, b)
    hit = cfg.cache.get(key)
    if hit is None:
        # f dg = c Pi^E (e_g S0 - R0); A^1_{n,s} has residue sum [n = 0]
        (n, p), (m, r), e = a, b, -a[0] - b[0] - 2
        den, rows = _unit_base(cfg, p, r)
        d, out = _rescaled(cfg, p, n + 1, r, m + 1, 1,
                           (den, {e: rows.get(e, {})}), (0, m + 1, -1, 0))
        hit = cfg.cache[key] = Rat(sum(out.values()), d)
    return hit


def cocycle_gamma(cfg, f, g):
    """Function-algebra cocycle: residue sum of f dg over the marked points."""
    f = _as_graded(f)
    g = _as_graded(g)
    if f.lam != 0 or g.lam != 0:
        raise DomainError("gamma is defined on functions")
    total = RAT0
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            total = total + _unit_gamma(cfg, a, b) * ca * cb
    return total


def _connection_residue(cfg, k, rv):
    """Residue sum over the marked points of R M_k dz; cached per (R, k)."""
    key = ("Rmono", rv, k)
    hit = cfg.cache.get(key)
    if hit is None:
        hit = residue_sum(cfg, rv, DivisorForm(cfg.points, 1, (1,), k))
        cfg.cache[key] = hit
    return hit


def _chi_connection_part(cfg, a, b, rv):
    """Residue sum of R (e f' - f e') for e = A_a, f = A_b and R = rv != 0:
    c sum_j w_j res(R M_{K - e_j}) by the bracket identity."""
    return _residue_combination(cfg, *_lie_terms(cfg, a, -1, b),
                                _connection_residue, rv)


def _unit_chi(cfg, a, b, R):
    if a == b:
        return RAT0
    if a > b:
        return -_unit_chi(cfg, b, a, R)
    key = ("chiu", a, b, R.value)
    hit = cfg.cache.get(key)
    if hit is None:
        # (1/12) residue sum of (1/2)(e'''f - e f''') + R (e f' - f e');
        # a derivative has no residue, so res(e'''f) = -res(e f''') at
        # each point and the first part is -res(e f'''), which is 0 when
        # e f''' has degree sum k_e + sum k_f - 3 < -1 (no residue at
        # infinity, so none in all at the marked points)
        e = kn_basis_record(cfg, (-1, *a))._form
        f = kn_basis_record(cfg, (-1, *b))._form
        if sum(e.k) + sum(f.k) < 2:
            hit = RAT0
        else:
            hit = -residue_sum(cfg, e, f, dg=3)
        if not R.value.is_zero():
            hit = hit + _chi_connection_part(cfg, a, b, R.value)
        hit = hit * Rat(1, 12)
        cfg.cache[key] = hit
    return hit


def cocycle_chi(cfg, e, f, R=R_ZERO):
    """Vector-field cocycle with projective connection R."""
    e = _as_graded(e)
    f = _as_graded(f)
    if e.lam != -1 or f.lam != -1:
        raise DomainError("chi is defined on vector fields")
    R.validate(cfg)
    total = RAT0
    for a, ca in e.terms.items():
        for b, cb in f.terms.items():
            total = total + _unit_chi(cfg, a, b, R) * ca * cb
    return total


def coboundary_compare(cfg, e, f, R, R2):
    """Witness that chi_R and chi_R2 are cohomologous.

    Returns (chi_R(e,f) - chi_R2(e,f), value of the coboundary of the
    linear functional attached to R - R2 on [e, f]); the two agree
    identically.  The functional pairs the quadratic-differential
    difference against a vector field, which is a one-form, integrated
    over the separating cycle.
    """
    R.validate(cfg)
    R2.validate(cfg)
    diff = cocycle_chi(cfg, e, f, R) - cocycle_chi(cfg, e, f, R2)
    key = ("Rdiff", R.value, R2.value)
    delta = cfg.cache.get(key)
    if delta is None:
        delta = cfg.cache[key] = R.value - R2.value
    br = _bracket_form(cfg, section_from_graded(cfg, e).form(cfg),
                       section_from_graded(cfg, f).form(cfg))
    witness = RAT0
    if not (delta.is_zero() or br.is_zero()):
        witness = residue_sum(cfg, delta, br) * Rat(1, 12)
    return diff, witness


class AlmostGradingReport(NamedTuple):
    """Empirical grading data over a degree window.

    For products/brackets: nonzero output degrees of homogeneous inputs
    lie in [n + m + lower, n + m + upper] with lower = 0.  For cocycles:
    nonzero values only for lower <= n + m <= upper (upper = 0).
    """

    kind: str
    window: tuple
    lower_shift: int
    upper_shift: int
    band_witnesses: list
    violations: list

    @property
    def ok(self):
        return not self.violations


def _pairs(cfg, window):
    """The unit pairs (n, p, m, r) of a window, n outermost, then m, p, r."""
    lo, hi = window
    for n in range(lo, hi + 1):
        for m in range(lo, hi + 1):
            for p in range(1, cfg.n_points + 1):
                for r in range(1, cfg.n_points + 1):
                    yield n, p, m, r


def _unit_support(cfg, algebra, a, b):
    """The sorted degrees of A_a A_b ('A') or [A_a, A_b] ('L') read off
    the cached unit entry."""
    if algebra == "A":
        nums = _unit_product(cfg, (0, 0), a, b)[1]
    elif a == b:
        return []
    else:
        nums = _unit_lie_derivative(cfg, min(a, b), -1, max(a, b))[1]
    return sorted({n for (n, _p) in nums})


def grading_report(cfg, algebra, window, R=R_ZERO):
    """Measure shifts over a finite window for 'A', 'L', 'gamma' or 'chi'.

    Every unit pair of the window is read from its cached unit entry
    (`_unit_product`, `_unit_lie_derivative` at weight -1 for 'L',
    `_unit_gamma`, `_unit_chi`), without the graded-element round trip of
    `multiply` and its kin; R is validated once per report.
    """
    lo, hi = window
    if lo > hi:
        raise DomainError("empty degree window")
    if algebra in ("A", "L"):
        lower = None
        upper = None
        witnesses = []
        violations = []
        for n, p, m, r in _pairs(cfg, window):
            degs = _unit_support(cfg, algebra, (n, p), (m, r))
            if not degs:
                continue
            lo_shift = degs[0] - (n + m)
            hi_shift = degs[-1] - (n + m)
            if lo_shift < 0:
                violations.append(((n, p), (m, r), degs))
            if lower is None or lo_shift < lower:
                lower = lo_shift
            if upper is None or hi_shift > upper:
                upper = hi_shift
                witnesses = [(((n, p), (m, r)), degs)]
            elif hi_shift == upper and len(witnesses) < 4:
                witnesses.append((((n, p), (m, r)), degs))
        return AlmostGradingReport(algebra, window, lower or 0, upper or 0,
                                   witnesses, violations)
    if algebra in ("gamma", "chi"):
        if algebra == "chi":
            R.validate(cfg)
        lower = 0
        witnesses = []
        violations = []
        for n, p, m, r in _pairs(cfg, window):
            if algebra == "gamma":
                v = _unit_gamma(cfg, (n, p), (m, r))
            else:
                v = _unit_chi(cfg, (n, p), (m, r), R)
            if v.num == 0:
                continue
            if n + m > 0:
                violations.append(((n, p), (m, r), v))
            if n + m < lower:
                lower = n + m
                witnesses = [(((n, p), (m, r)), v)]
            elif len(witnesses) < 4:
                witnesses.append((((n, p), (m, r)), v))
        return AlmostGradingReport(algebra, window, lower, 0,
                                   witnesses, violations)
    raise DomainError("unknown algebra %r" % algebra)


class TriangularDecomposition(NamedTuple):
    """Plus/strip/minus split of a degree window of A or L.

    plus: elements vanishing to the required order at every marked point;
    minus: vanishing to the required order at infinity; the critical strip
    is the finite-dimensional remainder.  Lists hold (degree, point-index)
    labels of basis elements inside the window (plus and minus parts are
    infinite; only the window slice is materialized).
    """

    algebra: str
    window: tuple
    plus: list
    strip: list
    minus: list


def triangular_decompose(cfg, algebra, window):
    """Order-driven triangular decomposition over a degree window."""
    lo, hi = window
    if algebra == "L":
        lam, need_pts, need_inf, strip_cover = -1, 2, 2, (-2, 1)
    elif algebra == "A":
        lam, need_pts, need_inf, strip_cover = 0, 1, 1, (-1, 1)
    else:
        raise DomainError("unknown algebra %r" % algebra)
    if lo > strip_cover[0] or hi < strip_cover[1]:
        raise DomainError(
            "window %s too small to cover the critical strip; need at least "
            "[%d, %d]" % (list(window), strip_cover[0], strip_cover[1]))
    plus, strip, minus = [], [], []
    for n in range(lo, hi + 1):
        for p in range(1, cfg.n_points + 1):
            sec = kn_basis_element(cfg, (lam, n, p))
            o_pts = min(sec.order_at(pt) for pt in cfg.points)
            o_inf = sec.order_at(INFINITY)
            if o_pts >= need_pts:
                plus.append((n, p))
            elif o_inf >= need_inf:
                minus.append((n, p))
            else:
                strip.append((n, p))
    return TriangularDecomposition(algebra, window, plus, strip, minus)
