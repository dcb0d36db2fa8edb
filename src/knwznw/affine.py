"""Multi-point loop algebra and its central extension.

Elements are finitely supported sums of x (x) A_{n,p} plus a central
coefficient; the bracket is

    [x (x) f, y (x) g] = [x, y] (x) (f g) - (x|y) gamma(f, g) t,

with f g expanded back into the function basis and gamma the geometric
function cocycle; `affine_bracket` and the module engine both read it
from the unit entry `_unit_loop_bracket`.  The block algebra of g-valued
functions regular at infinity (poles confined to the marked points)
embeds with vanishing cocycle; projecting its degree-zero part
pointwise gives the evaluation homomorphism onto N copies of the gauge
algebra.
"""

from __future__ import annotations

from typing import NamedTuple

from ._kernel import RAT0, RAT1, Rat, add_scaled, canonical, form, rats
from .algebras import _bilinear_raw, _unit_gamma, _unit_product
from .basis import (Combination, DivisorForm, GradedElement, Section,
                    monomial_expansion)
from .errors import DomainError
from .ratfield import as_rat


class AffineElement(Combination):
    """Loop part as a map (g-basis index, degree n, point index p) -> Rat,
    plus the coefficient of the central element t, held under the key
    None of the terms; `items` and `degrees` show the loop part only."""

    __slots__ = ()

    def __init__(self, loop=(), central=RAT0):
        if central.num != 0:
            loop = {**dict(loop), None: central}
        super().__init__(loop)

    @property
    def loop(self):
        return {k: v for k, v in self.terms.items() if k is not None}

    @property
    def central(self):
        return self.terms.get(None, RAT0)

    @classmethod
    def loop_term(cls, i, n, p, c=RAT1):
        return cls({(i, n, p): as_rat(c)})

    @classmethod
    def center(cls, c=RAT1):
        return cls({}, as_rat(c))

    def degrees(self):
        return sorted({n for (_i, n, _p) in self.loop})

    def items(self):
        return sorted(self.loop.items())

    def __repr__(self):
        body = " + ".join("%s*x%d(%d,%d)" % (c, i, n, p)
                          for (i, n, p), c in self.items())
        if self.central.num != 0:
            body = (body + " + " if body else "") + "%s*t" % self.central
        return "AffineElement(%s)" % (body or "0")


def _unit_loop_bracket(cfg, alg, x, y):
    """[x_i (x) A_{n,p}, x_j (x) A_{m,r}] for x = (i, n, p), y = (j, m, r)
    as a canonical integer form: the loop part keyed by (k, h, s) and the
    central part by None, from the cached unit product and unit gamma."""
    (i, n, p), (j, m, r) = x, y
    den, acc = 1, {}
    tbl = alg.bracket.get((i, j))
    if tbl:
        pden, prod = _unit_product(cfg, (0, 0), (n, p), (m, r))
        for k, c in tbl.items():
            den = add_scaled(den, acc, pden, {
                (k, h, s): v for (h, s), v in prod.items()}, c.num, c.den)
    fij = alg.form[i][j]
    if fij.num != 0:
        g = _unit_gamma(cfg, (n, p), (m, r))
        if g.num != 0:
            den = add_scaled(den, acc, g.den, {None: g.num}, -fij.num,
                             fij.den)
    return canonical(den, acc)


def affine_bracket(cfg, alg, x, y):
    """Bracket in the centrally extended loop algebra; t is central.  The
    bilinear core sums the unit entries over the ordered pairs of loop
    terms, and one Rat is built per key of the result."""
    return AffineElement(rats(*_bilinear_raw(
        _loop_form(x), _loop_form(y),
        lambda a, b: _unit_loop_bracket(cfg, alg, a, b), antisymmetric=True)))


def _loop_form(a):
    """The integer form of a's loop part, read off its terms in place
    when it has no central part."""
    terms = a.terms
    return form(a.loop if None in terms else terms)


def affine_decompose(a):
    """Split along the function-algebra triangular decomposition.

    Returns (minus, zero-strip, plus, central): degrees <= -1, degree 0,
    degrees >= 1, and the central coefficient.
    """
    minus, zero, plus = {}, {}, {}
    for key, c in a.loop.items():
        n = key[1]
        (minus if n <= -1 else zero if n == 0 else plus)[key] = c
    return (AffineElement(minus), AffineElement(zero), AffineElement(plus),
            a.central)


class BlockAlgebraElement(NamedTuple):
    """x (x) h with h regular at infinity and poles only at marked points."""

    g_index: int
    pole_point: int          # 1-based point index; 0 for the constant 1
    pole_order: int
    section: Section           # h, of weight 0
    expansion: GradedElement   # weight-0 expansion of h

    def as_affine(self):
        return AffineElement({(self.g_index, n, p): c
                              for (n, p), c in self.expansion.terms.items()})


def _block_expansions(cfg, pole_bound):
    key = ("blockexp", pole_bound)
    hit = cfg.cache.get(key)
    if hit is None:
        n_pts = cfg.n_points
        out = []
        # 1, then (z - P_p)^(-j)
        for p, j in [(0, 0)] + [(p, j) for p in range(1, n_pts + 1)
                                for j in range(1, pole_bound + 1)]:
            k = tuple(-j if i == p else 0 for i in range(1, n_pts + 1))
            den, nums = monomial_expansion(cfg, k, 0)
            out.append((p, j, Section(0, DivisorForm(cfg.points, 1, (1,), k)),
                        GradedElement(0, {key: Rat(x, den)
                                          for key, x in nums.items()})))
        hit = tuple(out)
        cfg.cache[key] = hit
    return hit


def block_algebra_basis(cfg, alg, pole_bound):
    """Basis of g-valued functions with poles of order <= pole_bound at
    the marked points and regular at infinity: x (x) 1 and
    x (x) (z - P_p)^(-j)."""
    if pole_bound < 0:
        raise DomainError("pole bound must be >= 0")
    out = []
    for i in range(alg.dim):
        for p, j, h, exp in _block_expansions(cfg, pole_bound):
            out.append(BlockAlgebraElement(i, p, j, h, exp))
    return out


def psi_project(alg, a, n_points):
    """Evaluation projection onto N copies of the gauge algebra.

    Defined on elements with no negative-degree loop part: the degree-zero
    part goes to its tuple of pointwise g-coefficients, t and the positive
    part go to zero.
    """
    out = [[RAT0] * alg.dim for _ in range(n_points)]
    for (i, n, p), c in a.loop.items():
        if n < 0:
            raise DomainError(
                "psi is undefined on elements with negative-degree part")
        if n == 0:
            out[p - 1][i] = out[p - 1][i] + c
    return out


def g_tuple_bracket(alg, xs, ys):
    """Componentwise bracket on N-tuples of g-coefficient vectors."""
    return [alg.bracket_vectors(x, y) for x, y in zip(xs, ys)]
