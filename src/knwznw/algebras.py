"""Function and vector-field algebras on the marked sphere.

Products, brackets and Lie-derivative module actions are computed on the
divisor forms of the basis elements and expanded back into the graded
basis; cocycles are residue sums over their local jets.  The two
geometric cocycles live here as well:

    gamma(f, g) = sum of residues of f dg over the marked points,
    chi_R(e, f) = (1/12) sum of residues of
                  (1/2)(e'''f - e f''') - R (e'f - e f')

with R a projective connection (any rational function regular at the
marked points and at infinity; R = 0 is admissible on the sphere).
Both integrals run over a cycle separating the marked points from
infinity, hence the residue sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from ._kernel import RAT0, RAT1, Rat
from .basis import (GradedElement, KNIndex, Section, expand_in_basis,
                    kn_basis_element, linear_combination, residue_sum,
                    section_from_graded)
from .errors import DomainError
from .ratfield import INFINITY, RationalFunction, order_at


@dataclass(frozen=True)
class ProjectiveConnection:
    """Global representative of a projective connection in the z-chart."""

    value: RationalFunction

    def validate(self, cfg):
        if self.value.is_zero():
            return
        for i, pt in enumerate(cfg.points, start=1):
            if order_at(self.value, pt) < 0:
                raise DomainError(
                    "projective connection has a pole at marked point P_%d" % i)
        if order_at(self.value, INFINITY) < 0:
            raise DomainError(
                "projective connection has a pole at the reference point")


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


def _integer_form(terms):
    """(D, {key: numerator}) for a dict of Rat coefficients: D is the lcm
    of their denominators and each coefficient is numerator / D."""
    den = 1
    for v in terms.values():
        if den % v.den:
            den = lcm(den, v.den)
    return den, {k: v.num * (den // v.den) for k, v in terms.items()}


def _unit_entry(cfg, lam, form):
    """A cached unit entry: the basis expansion of a form as an integer
    form (D, numerators), in the order of the expansion's terms."""
    return _integer_form(
        expand_in_basis(cfg, Section(lam, form)).terms)


def _unit_product(cfg, lams, a, b):
    key = ("prod", lams, a, b) if (lams[0], a) <= (lams[1], b) \
        else ("prod", (lams[1], lams[0]), b, a)
    hit = cfg.cache.get(key)
    if hit is None:
        fa = _unit_form(cfg, lams[0], a)
        fb = _unit_form(cfg, lams[1], b)
        hit = _unit_entry(cfg, lams[0] + lams[1], fa * fb)
        cfg.cache[key] = hit
    return hit


def _unit_vf_bracket(cfg, a, b):
    """[A_a, A_b] for vector-field indices a < b."""
    key = ("vfbr", a, b)
    hit = cfg.cache.get(key)
    if hit is None:
        hit = _unit_entry(cfg, -1, _bracket_form(
            cfg, _unit_form(cfg, -1, a), _unit_form(cfg, -1, b)))
        cfg.cache[key] = hit
    return hit


def _unit_lie_derivative(cfg, a, lam, b):
    key = ("lied", a, lam, b)
    hit = cfg.cache.get(key)
    if hit is None:
        ev = _unit_form(cfg, -1, a)
        sv = _unit_form(cfg, lam, b)
        hit = _unit_entry(cfg, lam, linear_combination(
            cfg.points, ((RAT1, ev * sv.deriv()),
                         (Rat(lam), ev.deriv() * sv))))
        cfg.cache[key] = hit
    return hit


def _bilinear(f, g, lam_out, unit_fn, antisymmetric=False):
    """Sum of ca cb unit_fn(a, b) over the terms of f and g.

    unit_fn returns a unit entry as an integer form (D, numerators).  The
    sum runs in Python ints over one common denominator, and one Rat is
    built per output key.  For an antisymmetric unit_fn it is asked only
    for pairs a < b: a reversed pair takes the same entry with the sign
    folded into its coefficient, and a == b contributes nothing.
    """
    fd, fn = _integer_form(f.terms)
    gd, gn = _integer_form(g.terms)
    den = 1
    out = {}
    for a, ca in fn.items():
        for b, cb in gn.items():
            if antisymmetric and a >= b:
                if a == b:
                    continue
                c = -(ca * cb)
                d, nums = unit_fn(b, a)
            else:
                c = ca * cb
                d, nums = unit_fn(a, b)
            if den % d:
                # widen the common denominator of out to lcm(den, d)
                s = lcm(den, d) // den
                for k in out:
                    out[k] *= s
                den *= s
            c *= den // d
            for k, v in nums.items():
                out[k] = out.get(k, 0) + c * v
    den *= fd * gd
    return GradedElement(lam_out, {k: Rat(v, den) for k, v in out.items()})


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
    return _bilinear(e, f, -1, lambda a, b: _unit_vf_bracket(cfg, a, b),
                     antisymmetric=True)


def lie_derivative(cfg, e, s):
    """Lie derivative of a weight-h element along a vector field."""
    e = _as_graded(e)
    if e.lam != -1:
        raise DomainError("vector fields have weight -1")
    s = _as_graded(s)
    return _bilinear(e, s, s.lam,
                     lambda a, b: _unit_lie_derivative(cfg, a, s.lam, b))


def _unit_gamma(cfg, a, b):
    if a == b:
        return RAT0
    if a > b:
        return -_unit_gamma(cfg, b, a)
    key = ("gammau", a, b)
    hit = cfg.cache.get(key)
    if hit is None:
        hit = residue_sum(cfg, _unit_form(cfg, 0, a), _unit_form(cfg, 0, b),
                          dg=1)
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


def _chi_residues(cfg, e, f, rv):
    """Residue sum over the marked points of the chi integrand
    (1/2)(e'''f - e f''') + R (e f' - f e'), for forms e, f and R."""
    out = (residue_sum(cfg, e, f, df=3)
           - residue_sum(cfg, e, f, dg=3)) * Rat(1, 2)
    if not rv.is_zero():
        br = _bracket_form(cfg, e, f)
        if not br.is_zero():
            out = out + residue_sum(cfg, rv, br)
    return out


def _unit_chi(cfg, a, b, R):
    if a == b:
        return RAT0
    if a > b:
        return -_unit_chi(cfg, b, a, R)
    key = ("chiu", a, b, R.value)
    hit = cfg.cache.get(key)
    if hit is None:
        hit = _chi_residues(cfg, _unit_form(cfg, -1, a),
                            _unit_form(cfg, -1, b), R.value) * Rat(1, 12)
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


@dataclass
class AlmostGradingReport:
    """Empirical grading data over a degree window.

    For products/brackets: nonzero output degrees of homogeneous inputs
    lie in [n + m + lower, n + m + upper] with lower = 0.  For cocycles:
    nonzero values only for lower <= n + m <= upper (upper = 0).
    """

    kind: str
    window: tuple
    lower_shift: int
    upper_shift: int
    band_witnesses: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def _pairs(cfg, window):
    lo, hi = window
    for n in range(lo, hi + 1):
        for m in range(lo, hi + 1):
            for p in range(1, cfg.n_points + 1):
                for r in range(1, cfg.n_points + 1):
                    yield n, p, m, r


def grading_report(cfg, algebra, window, R=R_ZERO):
    """Measure shifts over a finite window for 'A', 'L', 'gamma' or 'chi'."""
    lo, hi = window
    if lo > hi:
        raise DomainError("empty degree window")
    if algebra in ("A", "L"):
        lam = 0 if algebra == "A" else -1
        op = multiply if algebra == "A" else vf_bracket
        lower = None
        upper = None
        witnesses = []
        violations = []
        for n, p, m, r in _pairs(cfg, window):
            a = GradedElement.unit(lam, n, p)
            b = GradedElement.unit(lam, m, r)
            out = op(cfg, a, b)
            if out.is_zero():
                continue
            degs = out.support_degrees()
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
        lower = 0
        witnesses = []
        violations = []
        for n, p, m, r in _pairs(cfg, window):
            if algebra == "gamma":
                v = cocycle_gamma(cfg, GradedElement.unit(0, n, p),
                                  GradedElement.unit(0, m, r))
            else:
                v = cocycle_chi(cfg, GradedElement.unit(-1, n, p),
                                GradedElement.unit(-1, m, r), R)
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


@dataclass
class TriangularDecomposition:
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
