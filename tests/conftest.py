"""Helpers shared by the test modules."""

import math
from math import lcm

from knwznw._kernel import RAT0, ZERO_FORM, canonical, form, rats
from knwznw.basis import DivisorForm, Section
from knwznw.finite_lie import factor_op, tensor_strides
from knwznw.modules import _columns, mode_digit


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
    of the sparse `form_product`."""
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[RAT0] * m for _ in range(n)]
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
    out = [[RAT0] * ncols for _ in range(nrows)]
    for r, c, v in entries:
        out[r][c] = v
    return out


def dense(form, dim):
    """The dim x dim Rat matrix of a canonical integer form (D, {(row,
    column): int}), for tests that read an operator entry by entry."""
    return place(rats(*form), dim, dim)


def matrix_form(matrix):
    """The canonical integer form of a dense Rat matrix: the inverse of
    `dense`."""
    return form({(r, c): v for r, row in enumerate(matrix)
                 for c, v in enumerate(row) if v.num != 0})


def dense_omega_matrix(alg, mods, p, q):
    """Omega_pq = sum_i x_i^(p) u^i^(q) as dense products of factor_op
    matrices, kept as the oracle of the sparse `omega_entries`."""
    dim = math.prod(m.dim for m in mods)
    out = [[RAT0] * dim for _ in range(dim)]
    for i, dual in enumerate(alg.dual_vectors):
        m1 = factor_op(mods, p, mods[p].entries[i])
        for j, c in enumerate(dual):
            if c.num:
                prod = dense_mat_mul(m1, factor_op(mods, q,
                                                   mods[q].entries[j]))
                for r in range(dim):
                    for s in range(dim):
                        out[r][s] = out[r][s] + c * prod[r][s]
    return out


def diagonal_action(mods, xvec):
    """The matrix of x = sum_i xvec_i x_i acting diagonally (Leibniz) on
    the tensor product of mods, a sum of dense factor_op matrices."""
    dim = math.prod(m.dim for m in mods)
    out = [[RAT0] * dim for _ in range(dim)]
    for p, mod in enumerate(mods):
        for i, c in enumerate(xvec):
            if c.num:
                fp = factor_op(mods, p, mod.entries[i])
                for r in range(dim):
                    for s in range(dim):
                        out[r][s] += c * fp[r][s]
    return out


def peel(module, code):
    """(c1, w) for the monomial code c1.w of an induced module; c1 = 0 on
    a vacuum monomial."""
    string = code >> module._vbits
    return (string & module._dmask,
            string >> module._dbits << module._vbits | code & module._vmask)


def column(module, block, v):
    """Column v of a block (D, {code << _vbits | v: int}) of an induced
    module, as a canonical integer form (D, {code: int})."""
    return canonical(block[0], _columns(block[1], module._vbits,
                                        module.vac_dim)[v])


def act_gen(module, gen, mono):
    """x_(n,p,i) on a monomial of an induced module, a fresh {monomial:
    Rat} dict: the column of its vacuum vector in the action block of
    its creation string (`InducedModule._act_block`)."""
    code = module.encode(mono)
    block = module._act_block(mode_digit(module.cfg, module.alg, gen),
                              code >> module._vbits)
    return module.decode_form(*column(module, block, code & module._vmask))


def vacuum_action(module, gen, vac):
    """A generator digit on one vacuum code vac of an induced module, as a
    canonical integer form: the per-column reference of the one-pass
    `InducedModule._vacuum_block`.  A creator takes vac behind it, a
    positive mode gives 0, a verma torus the weight (e gives 0), and a
    degree-0 generator of weyl or fock reads column j_p of its irrep's
    entries, j_p the digit of vac on factor p, onto the rows of that
    factor by its stride."""
    if gen < module._zero or gen in module._lowering:
        return 1, {gen << module._vbits | vac: 1}
    p, i = divmod(gen - module._zero, module._dim)
    if p >= module.cfg.n_points:
        return ZERO_FORM
    if module.spec.kind != "verma":
        sp = tensor_strides(module.factors)[p]
        jp = (vac // sp) % module.factors[p].dim
        den, ents = module.factors[p].entries[i]
        base = vac - jp * sp
        return canonical(den, {base + r * sp: x for (r, c), x in ents.items()
                               if c == jp})
    w = module.weights[p]
    if i in module.alg.cartan_indices and w.num != 0:
        return w.den, {vac: w.num}
    return ZERO_FORM
