"""Function and vector-field algebras on the marked sphere.

At genus zero every basis element is c M_k dz^lam for a constant c and a
monomial M_k = prod_i (z - P_i)^k_i (`basis.kn_basis_record`).  So the
structure constants of unit pairs are short combinations of monomials:
with K = k_a + k_b and e_j the j-th unit vector,

    A_a A_b         = c_a c_b M_K,
    M_k'            = sum_j k_j M_{k - e_j},
    e s' + lam e' s = c_e c_s sum_j (k_s,j + lam k_e,j) M_{K - e_j},

the last being the Lie derivative of a weight-lam s along e d/dz; at
lam = -1 it is the bracket e s' - s e' of vector fields.  The basis
expansion of each monomial M_K dz^lam is `basis.monomial_expansion`, a
closed form (a split recursion down to partial fractions) cached once
per K for every weight under "mexp"; a unit entry ("prod", or "lied",
which at lam = -1 holds the brackets) is the sum of at most N of them
as an integer form.  No unit entry is reconstructed at run time: the
tests check the closed form against `expand_in_basis`.
Products, brackets and Lie derivatives of combinations share one
integer-form core, `_bilinear_raw`: it sums the scaled unit entries over
one common denominator, into a caller's accumulator or a fresh one, and
returns (den, {(n, p): int}).  Rat is built only at the public boundary
(`multiply`, `vf_bracket`, `lie_derivative`), one per output key;
`vf_bracket_sum` exposes the core for vector fields, on integer forms in
and one canonical integer form of a sum of brackets out, for callers
that only add brackets and test the sum for zero.
Cocycles are residue sums.  A unit gamma entry f dg = c_f c_g sum_j
k_g,j M_{K - e_j} sums at most N cached `basis.monomial_residue`s
("mres", read off the monomial expansions); the connection part of chi
uses the bracket identity with one cached residue of R M_K per (R, K)
("Rmono"); chi's third-derivative part stays on local jets.  The two
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

from typing import NamedTuple

from ._kernel import RAT0, RAT1, Rat, add_scaled, canonical, form, rats
from .basis import (DivisorForm, GradedElement, KNIndex,
                    kn_basis_element, linear_combination, monomial_expansion,
                    monomial_residue, residue_sum, section_from_graded)
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


def _unit_form(cfg, lam, a):
    return kn_basis_element(cfg, KNIndex(lam, *a)).form(cfg)


def _bracket_form(cfg, e, f):
    """e f' - f e' for forms e, f."""
    return linear_combination(cfg.points, ((RAT1, e * f.deriv()),
                                           (-RAT1, f * e.deriv())))


def _unit_pair(cfg, lam_a, a, lam_b, b):
    """(c, k_a, k_b) for A_a = c_a M_{k_a} and A_b = c_b M_{k_b}, with
    c = c_a c_b as (num, den)."""
    fa = _unit_form(cfg, lam_a, a)
    fb = _unit_form(cfg, lam_b, b)
    return (fa.nums[0] * fb.nums[0], fa.den * fb.den), fa.k, fb.k


def _lowered(ka, kb, weights):
    """(w_j, K - e_j) over the points j, for K = k_a + k_b: the terms of
    sum_j w_j M_{K - e_j}."""
    k = tuple(x + y for x, y in zip(ka, kb))
    return [(w, k[:j] + (k[j] - 1,) + k[j + 1:])
            for j, w in enumerate(weights)]


def _unit_entry(cfg, lam, c, terms):
    """The basis expansion of c sum_j w_j M_{k_j} dz^lam over (w_j, k_j)
    in terms, as a canonical integer form summed from the cached monomial
    expansions."""
    cn, cd = c
    den, acc = 1, {}
    for w, k in terms:
        if w:
            den = add_scaled(den, acc, *monomial_expansion(cfg, k, lam),
                             cn * w, cd)
    return canonical(den, acc)


def _unit_product(cfg, lams, a, b):
    key = ("prod", lams, a, b) if (lams[0], a) <= (lams[1], b) \
        else ("prod", (lams[1], lams[0]), b, a)
    hit = cfg.cache.get(key)
    if hit is None:
        c, ka, kb = _unit_pair(cfg, lams[0], a, lams[1], b)
        hit = _unit_entry(cfg, lams[0] + lams[1], c,
                          [(1, tuple(x + y for x, y in zip(ka, kb)))])
        cfg.cache[key] = hit
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
        hit = _unit_entry(cfg, lam, *_lie_terms(cfg, a, lam, b))
        cfg.cache[key] = hit
    return hit


def _bilinear_raw(f, g, unit_fn, antisymmetric=False, into=None):
    """Sum of ca cb unit_fn(a, b) over the terms of integer forms f and g,
    as an integer form (den, {(n, p): int}) that may hold zero numerators.

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


def _residue_combination(c, terms, residue):
    """c sum_j w_j residue(k_j) over (w_j, k_j) in terms, c = (num, den)."""
    out = RAT0
    for w, k in terms:
        if w:
            out = out + residue(k) * w
    return out * Rat(*c)


def _unit_gamma(cfg, a, b):
    if a == b:
        return RAT0
    if a > b:
        return -_unit_gamma(cfg, b, a)
    key = ("gammau", a, b)
    hit = cfg.cache.get(key)
    if hit is None:
        # f dg = c sum_j k_g,j M_{K - e_j}
        c, ka, kb = _unit_pair(cfg, 0, a, 0, b)
        hit = _residue_combination(c, _lowered(ka, kb, kb),
                                   lambda k: monomial_residue(cfg, k))
        cfg.cache[key] = hit
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


def _connection_residue(cfg, rv, k):
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
    return _residue_combination(*_lie_terms(cfg, a, -1, b),
                                lambda k: _connection_residue(cfg, rv, k))


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
        # each point and the first part is -res(e f''')
        e, f = _unit_form(cfg, -1, a), _unit_form(cfg, -1, b)
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
    delta = R.value - R2.value
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

    @property
    def strip_dimension(self):
        return len(self.strip)


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
            sec = kn_basis_element(cfg, KNIndex(lam, n, p))
            o_pts = min(sec.order_at(pt) for pt in cfg.points)
            o_inf = sec.order_at(INFINITY)
            if o_pts >= need_pts:
                plus.append((n, p))
            elif o_inf >= need_inf:
                minus.append((n, p))
            else:
                strip.append((n, p))
    return TriangularDecomposition(algebra, window, plus, strip, minus)
