"""Multi-point loop algebra and its central extension.

Elements are finitely supported sums of x (x) A_{n,p} plus a central
coefficient; the bracket is

    [x (x) f, y (x) g] = [x, y] (x) (f g) - (x|y) gamma(f, g) t,

with f g expanded back into the function basis and gamma the geometric
function cocycle.  The block algebra of g-valued functions regular at
infinity (poles confined to the marked points) embeds with vanishing
cocycle; projecting its degree-zero part pointwise gives the evaluation
homomorphism onto N copies of the gauge algebra.
"""

from __future__ import annotations

from typing import NamedTuple

from ._kernel import RAT0, RAT1, Rat, merge
from .algebras import _unit_gamma, _unit_product
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

    def loop_part_map(self, dim):
        """Spec view: (n, p) -> g-coefficient vector."""
        out = {}
        for (i, n, p), c in self.loop.items():
            vec = out.setdefault((n, p), [RAT0] * dim)
            vec[i] = c
        return out

    def __repr__(self):
        body = " + ".join("%s*x%d(%d,%d)" % (c, i, n, p)
                          for (i, n, p), c in self.items())
        if self.central.num != 0:
            body = (body + " + " if body else "") + "%s*t" % self.central
        return "AffineElement(%s)" % (body or "0")


def affine_bracket(cfg, alg, x, y):
    """Bracket in the centrally extended loop algebra; t is central."""
    loop = {}
    central = RAT0
    y_loop = y.loop.items()
    for (i, n, p), ca in x.loop.items():
        for (j, m, r), cb in y_loop:
            c = ca * cb
            tbl = alg.bracket.get((i, j))
            if tbl:
                den, prod = _unit_product(cfg, (0, 0), (n, p), (m, r))
                merge(loop, {(k, h, s): sc * fn for (h, s), fn in prod.items()
                             for k, sc in tbl.items()},
                      Rat(c.num, c.den * den))
            fij = alg.form[i][j]
            if fij.num != 0:
                g = _unit_gamma(cfg, (n, p), (m, r))
                if g.num != 0:
                    central = central - c * fij * g
    return AffineElement(loop, central)


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
