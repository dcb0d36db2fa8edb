"""Helpers shared by the test modules."""

import math
from math import lcm

from knwznw._kernel import rats
from knwznw.basis import DivisorForm, Section
from knwznw.exactlinalg import zeros
from knwznw.finite_lie import factor_op


def section_of(cfg, lam, f):
    """The weight-lam section f(z) dz^lam relative to cfg, built from the
    rational function f directly, independently of the basis: the exponent
    at each marked point is minus its multiplicity in the denominator."""
    pts = cfg.points
    if f.is_zero():
        return Section(lam, DivisorForm(pts, 1, (), (0,) * len(pts)))
    k = tuple(-f.den.mult_at(a) for a in pts)
    # the denominator is monic, so it is prod (z - P_i)^(-k_i) exactly
    # when the degrees agree
    assert sum(k) == -f.den.degree(), "pole off the marked points"
    return Section(lam, form_of(pts, f.num.coeffs, k))


def form_of(points, q, k):
    """The divisor form q prod (z - P_i)^k_i for a tuple q of Rat: its
    integer numerators over the lcm of their denominators."""
    den = lcm(*(c.den for c in q))
    return DivisorForm(points, den, tuple(c.num * (den // c.den) for c in q),
                       k)


def dense_mat_mul(a, b):
    """The textbook triple loop over every entry of b, kept as the oracle
    of the sparse `entry_product`."""
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c.num == 0:
                continue
            bt = b[t]
            for j in range(m):
                oi[j] = oi[j] + c * bt[j]
    return out


def dense_commutator(a, b):
    return [[x - y for x, y in zip(ra, rb)]
            for ra, rb in zip(dense_mat_mul(a, b), dense_mat_mul(b, a))]


def is_zero_matrix(a):
    return all(x.num == 0 for row in a for x in row)


def place(entries, nrows, ncols):
    """The nrows x ncols matrix of a list of nonzero entries (row, column,
    value) or of a {(row, column): value} dict."""
    if isinstance(entries, dict):
        entries = [(r, c, v) for (r, c), v in entries.items()]
    out = zeros(nrows, ncols)
    for r, c, v in entries:
        out[r][c] = v
    return out


def dense(form, dim):
    """The dim x dim Rat matrix of a canonical integer form (D, {(row,
    column): int}), for tests that read an operator entry by entry."""
    return place(rats(*form), dim, dim)


def entries_of(matrix):
    """The nonzero entries (row, column, value) of a dense matrix, in row
    order: the inverse of `place`."""
    return [(r, c, v) for r, row in enumerate(matrix)
            for c, v in enumerate(row) if v.num != 0]


def dense_omega_matrix(alg, mods, p, q):
    """Omega_pq = sum_i x_i^(p) u^i^(q) as dense products of factor_op
    matrices, kept as the oracle of the sparse `omega_entries`."""
    dim = math.prod(m.dim for m in mods)
    out = zeros(dim, dim)
    for i, dual in enumerate(alg.dual_vectors):
        m1 = factor_op(mods, p, mods[p].entries[i])
        m2 = factor_op(mods, q, [(r, s, c * v) for j, c in enumerate(dual)
                                 for r, s, v in mods[q].entries[j]])
        prod = dense_mat_mul(m1, m2)
        for r in range(dim):
            for s in range(dim):
                out[r][s] = out[r][s] + prod[r][s]
    return out


def diagonal_action(mods, xvec):
    """The matrix of x = sum_i xvec_i x_i acting diagonally (Leibniz) on
    the tensor product of mods, a sum of dense factor_op matrices."""
    dim = math.prod(m.dim for m in mods)
    out = zeros(dim, dim)
    for p, mod in enumerate(mods):
        fp = factor_op(mods, p, [(r, s, c * v) for i, c in enumerate(xvec)
                                 for r, s, v in mod.entries[i]])
        for r in range(dim):
            for s in range(dim):
                out[r][s] += fp[r][s]
    return out
