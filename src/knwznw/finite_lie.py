"""Finite-dimensional gauge algebra data: sl2 and the one-dimensional
abelian algebra.

Structure constants, an invariant symmetric nondegenerate form, a pair of
dual bases, the dual Coxeter number (half the adjoint Casimir eigenvalue)
and a triangular decomposition h + n_+ + n_-.  For sl2 the form is the
trace form of the defining representation, so (e|f) = 1 and (h|h) = 2 and
the dual Coxeter number is 2; the abelian algebra has (u|u) = 1 and dual
Coxeter number 0.

Every operator here is one canonical integer form (D, {(row, column):
int}) of its nonzero entries: the adjoint action `GaugeAlgebra.ad`, the
action of each basis element on a finite highest-weight module, and
operators on a tensor product; the algebra itself is checked on such
forms (`_validate`).  For sl2 with dominant integral weight m the module
has dimension m + 1 and its entries are the ladder integers over D = 1.
Each module is built and validated once per (algebra kind, weight), and
every caller shares it, so no caller mutates its forms.
The point-independent tensors on them are built once per irrep or pair
of irreps, summed in ints: the local Casimir two-tensor `local_omega`
and the Casimir of one factor `local_casimir` (`casimir_form` sums it
from products `form_product`).  `place_local` puts a local tensor on
one or two factors of a tensor product (`omega_entries` places Omega),
and `braid_commutator` keeps the local commutator of each braid relation.
The dense `factor_op` is an oracle for verify and the tests, and the
one place where a `Rat` entry is built.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

from ._kernel import RAT0, RAT1, Rat, add_scaled, canonical, form, rats
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

    def ad(self, i):
        """ad(x_i) on the basis, as a canonical integer form."""
        return form({(k, j): c for j in range(self.dim)
                     for k, c in self.bracket.get((i, j), {}).items()})


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
    """Check the algebra on integer forms: ad is a module of the bracket
    (Jacobi), ad(x)^T F + F ad(x) = 0 for the form F, F D^T = 1 for the
    dual vectors D, and the adjoint Casimir is 2 k_dual."""
    d = alg.dim
    ad = [alg.ad(i) for i in range(d)]
    try:
        _validate_module(alg, FiniteModule(alg.kind, RAT0, d, tuple(ad)))
    except DomainError:
        raise DomainError("Jacobi identity fails for %s" % alg.kind) from None
    f = form({(r, c): v for r, row in enumerate(alg.form)
              for c, v in enumerate(row) if v.num})
    for x in ad:
        den, acc = form_product((x[0], {(c, r): v for (r, c), v
                                        in x[1].items()}), f)
        add_scaled(den, acc, *form_product(f, x), 1, 1)
        if any(acc.values()):
            raise DomainError("form not invariant for %s" % alg.kind)
    scalar = lambda c: canonical(c.den, {(r, r): c.num for r in range(d)})
    dual = form({(c, r): v for r, row in enumerate(alg.dual_vectors)
                 for c, v in enumerate(row) if v.num})
    if canonical(*form_product(f, dual)) != scalar(RAT1):
        raise DomainError("dual basis mismatch for %s" % alg.kind)
    if casimir_form(alg, ad) != scalar(alg.k_dual * 2):
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
    """Finite-dimensional module: the action of each basis element."""

    algebra_kind: str
    weight: Rat
    dim: int
    entries: tuple           # entries[i] = x_i, a canonical integer form


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
        return FiniteModule(alg.kind, weight, 1, (
            canonical(weight.den, {(0, 0): weight.num}),))
    m = weight
    E = canonical(1, {(j - 1, j): j * (m - j + 1) for j in range(1, m + 1)})
    H = canonical(1, {(j, j): m - 2 * j for j in range(m + 1)})
    F = canonical(1, {(j + 1, j): 1 for j in range(m)})
    mod = FiniteModule(alg.kind, Rat(m), m + 1, (E, H, F))
    _validate_module(alg, mod)
    return mod


def _validate_module(alg, mod):
    """Check [x_i, x_j] = sum_k c_k x_k for every bracket of the algebra
    on the module's forms, summed in ints (`form_product`): no dim x dim
    matrix is formed."""
    ents = mod.entries
    for (i, j), tbl in alg.bracket.items():
        den, diff = form_product(ents[i], ents[j])
        den = add_scaled(den, diff, *form_product(ents[j], ents[i]), -1, 1)
        for k, c in tbl.items():
            den = add_scaled(den, diff, *ents[k], -c.num, c.den)
        if any(diff.values()):
            raise DomainError("module entries violate the bracket relations")


def tensor_strides(mods):
    """Lexicographic strides: index = sum_j idx_j * stride_j."""
    n = len(mods)
    strides = [1] * n
    for j in range(n - 2, -1, -1):
        strides[j] = strides[j + 1] * mods[j + 1].dim
    return strides


def factor_op(mods, p, op):
    """Dense Rat matrix acting on factor p (0-based) of the tensor product
    by the operator op, an integer form (D, {(row, column): int})."""
    dim = math.prod(m.dim for m in mods)
    sp = tensor_strides(mods)[p]
    dp = mods[p].dim
    entries = rats(*op).items()
    out = [[RAT0] * dim for _ in range(dim)]
    for base in range(dim):
        if (base // sp) % dp == 0:
            for (r, c), v in entries:
                out[base + r * sp][base + c * sp] = v
    return out


def place_local(mods, factors, local):
    """The integer form local of an operator on the listed factors
    (0-based, distinct), keyed (r_1, ..., r_k, c_1, ..., c_k) by the row
    and column index on each, placed on the tensor product of mods (the
    identity on every other factor) at the offsets of `placement`.  A
    canonical local form gives a canonical placed one."""
    bases, offsets = placement(mods, factors, local[1])
    return local[0], {(b + ro, b + co): v for ro, co, v in offsets
                      for b in bases}


def placement(mods, factors, ents):
    """(bases, offsets) of local entries ents on the listed factors: the
    indices base with a zero digit on each of them, ascending, and per key
    its offsets sum r_i s_i and sum c_i s_i (s the strides) and value."""
    strides = tensor_strides(mods)
    st = [strides[f] for f in factors]
    bases = range(math.prod(m.dim for m in mods))
    for f, s in zip(factors, st):
        d = mods[f].dim
        bases = [b for b in bases if (b // s) % d == 0]
    k = len(factors)
    return bases, [(sum(map(mul, key[:k], st)), sum(map(mul, key[k:], st)),
                    v) for key, v in ents.items()]


def omega_entries(alg, mods, p, q):
    """The Casimir two-tensor Omega_pq = sum_i x_i^(p) u^i^(q) on factors
    p and q (0-based, p != q) of the tensor product of mods, as a
    canonical integer form: `local_omega`, built once per pair of irreps,
    placed (`place_local`).  No dense factor_op products.  On a product
    of three irreps, where a braid relation lives, the placed form is
    built once per (algebra, irreps, p, q) and kept, so that a relation
    read again reads the same objects (`braid_commutator`)."""
    if p == q:
        raise DomainError("omega acts on two distinct factors")
    if len(mods) != 3:
        return place_local(mods, (p, q), local_omega(alg, mods[p], mods[q]))
    key = id(alg), *map(id, mods), p, q
    hit = _TRIPLE_OMEGAS.get(key)
    if hit is None:
        hit = _TRIPLE_OMEGAS[key] = (alg, tuple(mods), place_local(
            mods, (p, q), local_omega(alg, mods[p], mods[q])))
    return hit[2]


# The point-independent tensors of the degree-0 layer, one entry per
# (algebra, irrep), (algebra, irrep, irrep), (algebra, three irreps, p, q)
# or, for the braid commutators `_BRAIDS`, per triple of operands, keyed
# by the identity of the objects and holding them, so that a key is never
# reused and a module with other entries gets its own tensor.
_OMEGAS = {}
_CASIMIRS = {}
_TRIPLE_OMEGAS = {}
_BRAIDS = {}


def local_omega(alg, mp, mq):
    """Omega = sum_ij D_ij x_i (x) x_j on V_p (x) V_q, as a canonical
    integer form (D, {(rp, rq, cp, cq): int}) of its nonzero entries,
    summed in ints; built once per pair of module objects."""
    key = id(alg), id(mp), id(mq)
    hit = _OMEGAS.get(key)
    if hit is None:
        den, local = 1, {}
        for i, dual in enumerate(alg.dual_vectors):
            dp, ep = mp.entries[i]
            for j, c in enumerate(dual):
                if c.num:
                    dq, eq = mq.entries[j]
                    den = add_scaled(den, local, dp * dq, {
                        (rp, rq, cp, cq): a * b for (rq, cq), b in eq.items()
                        for (rp, cp), a in ep.items()}, c.num, c.den)
        hit = _OMEGAS[key] = (alg, mp, mq, canonical(den, local))
    return hit[3]


def local_casimir(alg, mod):
    """sum_ij D_ij x_i x_j on V, as a canonical integer form (D, {(row,
    column): int}) (`casimir_form`); built once per module object."""
    key = id(alg), id(mod)
    hit = _CASIMIRS.get(key)
    if hit is None:
        hit = _CASIMIRS[key] = (alg, mod, casimir_form(alg, mod.entries))
    return hit[2]


def braid_commutator(pq, pr, qr):
    """[Omega_pq, Omega_pr + Omega_qr] from the three Omegas placed on a
    product of three irreps, a canonical integer form summed in ints
    (`form_product`); built once per operand objects, in this order, so
    a changed Omega, or one read in place of another, builds afresh."""
    key = id(pq), id(pr), id(qr)
    hit = _BRAIDS.get(key)
    if hit is None:
        rest = dict(pr[1])
        rest = add_scaled(pr[0], rest, *qr, 1, 1), rest
        den, acc = form_product(pq, rest)
        den = add_scaled(den, acc, *form_product(rest, pq), -1, 1)
        hit = _BRAIDS[key] = (pq, pr, qr, canonical(den, acc))
    return hit[3]


def casimir_form(alg, ops):
    """sum_ij D_ij x_i x_j for the integer forms ops[i] of the basis
    elements, as a canonical integer form, summed in ints."""
    den, acc = 1, {}
    for i, dual in enumerate(alg.dual_vectors):
        for j, c in enumerate(dual):
            if c.num:
                den = add_scaled(den, acc, *form_product(ops[i], ops[j]),
                                 c.num, c.den)
    return canonical(den, acc)


def form_product(a, b):
    """The product a b of two integer forms (D, {(row, column): int}), as
    the integer form (D_a D_b, {(row, column): int}) in a fresh dict;
    sums that cancel stay as 0 (`canonical` drops them)."""
    (da, ea), (db, eb) = a, b
    by_row = {}
    for (r, c), v in eb.items():
        by_row.setdefault(r, []).append((c, v))
    out = {}
    get = out.get
    for (r, c), u in ea.items():
        for c2, v in by_row.get(c, ()):
            out[r, c2] = get((r, c2), 0) + u * v
    return da * db, out


def casimir_eigenvalue(alg, weight):
    """Eigenvalue of the quadratic Casimir on the irrep of this weight."""
    if alg.kind == "abelian1":
        w = as_rat(weight)
        return w * w
    m = weight if isinstance(weight, int) else as_rat(weight).num
    return Rat(m * (m + 2), 2)
