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

from dataclasses import dataclass

from ._kernel import RAT0, RAT1, Rat, merge
from .algebras import _unit_gamma, _unit_product
from .basis import DivisorForm, GradedElement, Section, expand_in_basis
from .errors import DomainError
from .ratfield import as_rat


class AffineElement:
    """Loop part as a map (g-basis index, degree n, point index p) -> Rat,
    plus a central coefficient."""

    __slots__ = ("loop", "central")

    def __init__(self, loop=(), central=RAT0):
        src = dict(loop) if not isinstance(loop, dict) else loop
        self.loop = {k: v for k, v in src.items() if v.num != 0}
        self.central = central

    @classmethod
    def loop_term(cls, i, n, p, c=RAT1):
        return cls({(i, n, p): as_rat(c)})

    @classmethod
    def center(cls, c=RAT1):
        return cls({}, as_rat(c))

    def is_zero(self):
        return not self.loop and self.central.num == 0

    def __add__(self, other):
        return AffineElement(merge(dict(self.loop), other.loop),
                             self.central + other.central)

    def __sub__(self, other):
        return self + other.scale(Rat(-1))

    def __neg__(self):
        return self.scale(Rat(-1))

    def scale(self, c):
        c = as_rat(c)
        if c.num == 0:
            return AffineElement({}, RAT0)
        return AffineElement({k: v * c for k, v in self.loop.items()},
                             self.central * c)

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

    def __eq__(self, other):
        return (isinstance(other, AffineElement) and self.loop == other.loop
                and self.central == other.central)

    def __hash__(self):
        return hash((frozenset(self.loop.items()), self.central))

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
    for (i, n, p), ca in x.loop.items():
        for (j, m, r), cb in y.loop.items():
            c = ca * cb
            tbl = alg.bracket.get((i, j))
            if tbl:
                den, prod = _unit_product(cfg, (0, 0), (n, p), (m, r))
                cd = Rat(c.num, c.den * den)
                for (h, s), fn in prod.items():
                    for k, sc in tbl.items():
                        key = (k, h, s)
                        w = loop.get(key, RAT0) + cd * sc * fn
                        if w.num == 0:
                            loop.pop(key, None)
                        else:
                            loop[key] = w
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


@dataclass(frozen=True)
class BlockAlgebraElement:
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
        one = Section(0, DivisorForm(cfg.points, 1, (1,), (0,) * n_pts))
        out = [(0, 0, one, expand_in_basis(cfg, one))]
        for p in range(1, n_pts + 1):
            for j in range(1, pole_bound + 1):
                # (z - P_p)^(-j)
                k = tuple(-j if i == p else 0 for i in range(1, n_pts + 1))
                h = Section(0, DivisorForm(cfg.points, 1, (1,), k))
                out.append((p, j, h, expand_in_basis(cfg, h)))
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
