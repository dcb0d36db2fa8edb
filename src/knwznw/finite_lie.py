"""Finite-dimensional gauge algebra data: sl2 and the one-dimensional
abelian algebra.

Structure constants, an invariant symmetric nondegenerate form, a pair of
dual bases, the dual Coxeter number (half the adjoint Casimir eigenvalue)
and a triangular decomposition h + n_+ + n_-.  For sl2 the form is the
trace form of the defining representation, so (e|f) = 1 and (h|h) = 2 and
the dual Coxeter number is 2; the abelian algebra has (u|u) = 1 and dual
Coxeter number 0.

Every operator here is a tuple (or list) of its nonzero entries
(row, column, value): the adjoint action `GaugeAlgebra.ad`, the action
of each basis element on a finite highest-weight module, and operators
on a tensor product.  For sl2 with dominant integral weight m the module
has dimension m + 1 and its entries are the ladder formulas.  Each module
is built and validated once per (algebra kind, weight); its entries are
immutable tuples, so every caller shares it.  The point-independent
tensors on them are built once per irrep or pair of irreps, as integer
forms over one denominator: the local Casimir two-tensor `local_omega`
and the Casimir of one factor `local_casimir` (`casimir_entries` sums
it).  `omega_entries` places a local Omega on two factors of a tensor
product, and `entry_product` multiplies two entry lists
(`int_entry_product` on int values).  The dense `factor_op` is an
oracle for verify and the tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._kernel import RAT0, RAT1, Rat, form, merge, rats
from .errors import DomainError
from .ratfield import as_rat

SUPPORTED_KINDS = ("sl2", "abelian1")


class GaugeAlgebra(NamedTuple):
    kind: str
    labels: tuple           # basis labels, fixed order
    bracket: dict           # (i, j) -> {k: coefficient} for [x_i, x_j]
    form: tuple              # form[i][j] = (x_i | x_j)
    dual_vectors: tuple      # dual_vectors[i] = u^i in the x-basis
    k_dual: Rat              # dual Coxeter number
    cartan_indices: tuple
    plus_indices: tuple      # n_+ labels
    minus_indices: tuple     # n_- labels

    @property
    def dim(self):
        return len(self.labels)

    def bracket_vectors(self, x, y):
        """Bracket of two coefficient vectors in the basis."""
        out = [RAT0] * self.dim
        for i, a in enumerate(x):
            if a.num == 0:
                continue
            for j, b in enumerate(y):
                if b.num == 0:
                    continue
                for k, c in self.bracket.get((i, j), {}).items():
                    out[k] = out[k] + a * b * c
        return out

    def form_vectors(self, x, y):
        out = RAT0
        for i, a in enumerate(x):
            if a.num == 0:
                continue
            for j, b in enumerate(y):
                if b.num != 0:
                    out = out + a * b * self.form[i][j]
        return out

    def ad(self, i):
        """Nonzero entries (row, column, value) of ad(x_i) on the basis."""
        return [(k, j, c) for j in range(self.dim)
                for k, c in self.bracket.get((i, j), {}).items()]


def _sl2():
    labels = ("e", "h", "f")
    E, H, F = 0, 1, 2
    two = Rat(2)
    bracket = {
        (H, E): {E: two}, (E, H): {E: -two},
        (H, F): {F: -two}, (F, H): {F: two},
        (E, F): {H: RAT1}, (F, E): {H: -RAT1},
    }
    form = (
        (RAT0, RAT0, RAT1),
        (RAT0, two, RAT0),
        (RAT1, RAT0, RAT0),
    )
    dual_vectors = (
        (RAT0, RAT0, RAT1),            # dual of e is f
        (RAT0, Rat(1, 2), RAT0),       # dual of h is h/2
        (RAT1, RAT0, RAT0),            # dual of f is e
    )
    return GaugeAlgebra("sl2", labels, bracket, form, dual_vectors,
                        Rat(2), (H,), (E,), (F,))


def _abelian1():
    return GaugeAlgebra("abelian1", ("u",), {}, ((RAT1,),), ((RAT1,),),
                        RAT0, (0,), (), ())


def _validate(alg):
    d = alg.dim
    basis = [[RAT1 if i == j else RAT0 for j in range(d)] for i in range(d)]
    # Jacobi on all basis triples
    for x in basis:
        for y in basis:
            for z in basis:
                s = [RAT0] * d
                for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                    t = alg.bracket_vectors(a, alg.bracket_vectors(b, c))
                    s = [u + v for u, v in zip(s, t)]
                if any(u.num != 0 for u in s):
                    raise DomainError("Jacobi identity fails for %s" % alg.kind)
    # invariance ([x,y]|z) = (x|[y,z])
    for x in basis:
        for y in basis:
            for z in basis:
                lhs = alg.form_vectors(alg.bracket_vectors(x, y), z)
                rhs = alg.form_vectors(x, alg.bracket_vectors(y, z))
                if lhs != rhs:
                    raise DomainError("form not invariant for %s" % alg.kind)
    # dual bases: (x_i | u^j) = delta
    for i in range(d):
        for j in range(d):
            v = alg.form_vectors(basis[i], alg.dual_vectors[j])
            want = RAT1 if i == j else RAT0
            if v != want:
                raise DomainError("dual basis mismatch for %s" % alg.kind)
    # adjoint Casimir sum_ij D_ij ad(x_i) ad(x_j) = 2 k_dual
    cas = casimir_entries(alg, [alg.ad(i) for i in range(d)])
    if cas != {(r, r): alg.k_dual * 2 for r in range(d) if alg.k_dual.num}:
        raise DomainError("adjoint Casimir is not 2k for %s" % alg.kind)
    return alg


_CACHE = {}


def make_algebra(kind):
    """Fully validated gauge algebra of the given kind."""
    if kind not in SUPPORTED_KINDS:
        raise DomainError("unsupported gauge algebra %r" % kind)
    if kind not in _CACHE:
        _CACHE[kind] = _validate(_sl2() if kind == "sl2" else _abelian1())
    return _CACHE[kind]


class FiniteModule(NamedTuple):
    """Finite-dimensional module: exact nonzero action entries per label."""

    algebra_kind: str
    weight: Rat
    dim: int
    entries: tuple           # entries[i] = action of basis element i


_IRREPS = {}  # (algebra kind, weight) -> validated FiniteModule


def finite_irrep(alg, weight):
    """Irreducible highest-weight module, built and validated once per
    (algebra kind, weight).

    sl2: dominant integral weight m gives the (m+1)-dimensional ladder
    module.  abelian1: any rational weight, dimension one.
    """
    if alg.kind == "abelian1":
        weight = as_rat(weight)
    else:
        if not isinstance(weight, int):
            if isinstance(weight, Rat) and weight.den == 1:
                weight = weight.num
            else:
                raise DomainError("sl2 weight must be a nonnegative integer")
        if weight < 0:
            raise DomainError("sl2 weight must be a nonnegative integer")
    key = (alg.kind, weight)
    mod = _IRREPS.get(key)
    if mod is None:
        mod = _IRREPS[key] = _build_irrep(alg, weight)
    return mod


def _build_irrep(alg, weight):
    if alg.kind == "abelian1":
        return FiniteModule(alg.kind, weight, 1,
                            (((0, 0, weight),) if weight.num else (),))
    m = weight
    E = tuple((j - 1, j, Rat(j * (m - j + 1))) for j in range(1, m + 1))
    H = tuple((j, j, Rat(m - 2 * j)) for j in range(m + 1) if m != 2 * j)
    F = tuple((j + 1, j, RAT1) for j in range(m))
    mod = FiniteModule(alg.kind, Rat(m), m + 1, (E, H, F))
    _validate_module(alg, mod)
    return mod


def _validate_module(alg, mod):
    """Check [x_i, x_j] = sum_k c_k x_k for every bracket of the algebra
    on the module's entries (`entry_product`): no dim x dim matrix is
    formed."""
    ents = mod.entries
    for (i, j), tbl in alg.bracket.items():
        diff = merge(entry_product(ents[i], ents[j]),
                     entry_product(ents[j], ents[i]), -RAT1)
        for k, c in tbl.items():
            merge(diff, {(r, s): v for r, s, v in ents[k]}, -c)
        if diff:
            raise DomainError("module entries violate the bracket relations")


def tensor_strides(mods):
    """Lexicographic strides: index = sum_j idx_j * stride_j."""
    n = len(mods)
    strides = [1] * n
    for j in range(n - 2, -1, -1):
        strides[j] = strides[j + 1] * mods[j + 1].dim
    return strides


def factor_op(mods, p, entries):
    """Dense matrix acting on factor p (0-based) of the tensor product by
    the operator with these entries (row, column, value); a repeated
    position adds."""
    dim = math.prod(m.dim for m in mods)
    sp = tensor_strides(mods)[p]
    dp = mods[p].dim
    out = [[RAT0] * dim for _ in range(dim)]
    for base in range(dim):
        if (base // sp) % dp == 0:
            for r, c, v in entries:
                out[base + r * sp][base + c * sp] += v
    return out


def omega_entries(alg, mods, p, q):
    """The nonzero entries of the Casimir two-tensor on factors p and q
    (0-based, p != q), as a list of (row, column, value).

    Omega_pq = sum_i x_i^(p) u^i^(q).  Its local entry (rp, rq, cp, cq)
    on the two factors (`local_omega`, built once per pair of irreps) is
    placed at base + rp*sp + rq*sq (column base + cp*sp + cq*sq) for every
    index base of the other factors.  No dense factor_op products."""
    if p == q:
        raise DomainError("omega acts on two distinct factors")
    strides = tensor_strides(mods)
    sp, sq = strides[p], strides[q]
    dp, dq = mods[p].dim, mods[q].dim
    local = rats(*local_omega(alg, mods[p], mods[q]))
    bases = [b for b in range(math.prod(m.dim for m in mods))
             if (b // sp) % dp == 0 and (b // sq) % dq == 0]
    return [(b + rp * sp + rq * sq, b + cp * sp + cq * sq, v)
            for (rp, rq, cp, cq), v in local.items() for b in bases]


# The point-independent tensors of the degree-0 layer, one entry per
# (algebra, irrep) or (algebra, irrep, irrep), keyed by the identity of the
# objects and holding them, so that a key is never reused and a module
# with other entries gets its own tensor.
_OMEGAS = {}
_CASIMIRS = {}


def local_omega(alg, mp, mq):
    """Omega = sum_ij D_ij x_i (x) x_j on V_p (x) V_q, as an integer form
    (D, {(rp, rq, cp, cq): int}) of its nonzero entries; built once per
    pair of module objects."""
    key = id(alg), id(mp), id(mq)
    hit = _OMEGAS.get(key)
    if hit is None:
        local = {}
        for i, dual in enumerate(alg.dual_vectors):
            for j, c in enumerate(dual):
                if c.num == 0:
                    continue
                for rq, cq, b in mq.entries[j]:
                    cb = c * b
                    for rp, cp, a in mp.entries[i]:
                        k = (rp, rq, cp, cq)
                        local[k] = local.get(k, RAT0) + a * cb
        hit = _OMEGAS[key] = (alg, mp, mq, form(
            {k: v for k, v in local.items() if v.num}))
    return hit[3]


def local_casimir(alg, mod):
    """sum_ij D_ij x_i x_j on V, as an integer form (D, {(row, column):
    int}) of its nonzero entries; built once per module object."""
    key = id(alg), id(mod)
    hit = _CASIMIRS.get(key)
    if hit is None:
        hit = _CASIMIRS[key] = (alg, mod, form(casimir_entries(
            alg, mod.entries)))
    return hit[2]


def entry_product(a, b):
    """The product a b of two matrices given by their nonzero entries
    (row, column, value), as a {(row, column): value} dict of its nonzero
    entries.  A position may occur more than once in a or b; its values
    add, so a concatenation of entry lists stands for their sum.  Each
    operand is scaled to one denominator and the products are summed as
    ints (`int_entry_product`); Rat is built once per entry of the
    result."""
    if not a or not b:
        return {}
    (da, a), (db, b) = int_entries(a), int_entries(b)
    return rats(da * db, int_entry_product(a, b))


def casimir_entries(alg, ops):
    """sum_ij D_ij x_i x_j for the operators ops[i] of the basis elements,
    given by their entries, as a {(row, column): value} dict."""
    cas = {}
    for i, dual in enumerate(alg.dual_vectors):
        for j, c in enumerate(dual):
            if c.num:
                merge(cas, entry_product(ops[i], ops[j]), c)
    return cas


def int_entries(entries):
    """(D, [(row, column, int)]): an entry list over one denominator D."""
    den = math.lcm(*(v.den for _, _, v in entries))
    return den, [(r, c, v.num * (den // v.den)) for r, c, v in entries]


def int_entry_product(a, b):
    """The product a b of two entry lists with int values, as a
    {(row, column): int} dict; sums that cancel stay as 0."""
    by_row = {}
    for r, c, v in b:
        by_row.setdefault(r, []).append((c, v))
    out = {}
    get = out.get
    for r, c, u in a:
        for c2, v in by_row.get(c, ()):
            out[r, c2] = get((r, c2), 0) + u * v
    return out


def casimir_eigenvalue(alg, weight):
    """Eigenvalue of the quadratic Casimir on the irrep of this weight."""
    if alg.kind == "abelian1":
        w = as_rat(weight)
        return w * w
    m = weight if isinstance(weight, int) else as_rat(weight).num
    return Rat(m * (m + 2), 2)
