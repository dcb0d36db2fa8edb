"""Helpers shared by the test modules."""

from knwznw.basis import DivisorForm, Section


def section_of(cfg, lam, f):
    """The weight-lam section f(z) dz^lam relative to cfg, built from the
    rational function f directly, independently of the basis: the exponent
    at each marked point is minus its multiplicity in the denominator."""
    pts = cfg.points
    if f.is_zero():
        return Section(lam, DivisorForm(pts, (), (0,) * len(pts)))
    k = tuple(-f.den.mult_at(a) for a in pts)
    # the denominator is monic, so it is prod (z - P_i)^(-k_i) exactly
    # when the degrees agree
    assert sum(k) == -f.den.degree(), "pole off the marked points"
    return Section(lam, DivisorForm(pts, f.num.coeffs, k))
