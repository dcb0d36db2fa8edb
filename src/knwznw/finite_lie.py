"""Finite-dimensional gauge algebra data: sl2 and the one-dimensional
abelian algebra.

Structure constants, an invariant symmetric nondegenerate form, a pair of
dual bases, the dual Coxeter number (half the adjoint Casimir eigenvalue)
and a triangular decomposition h + n_+ + n_-.  For sl2 the form is the
trace form of the defining representation, so (e|f) = 1 and (h|h) = 2 and
the dual Coxeter number is 2; the abelian algebra has (u|u) = 1 and dual
Coxeter number 0.

Finite highest-weight modules act by exact matrices; for sl2 with
dominant integral weight m the module has dimension m + 1 with the usual
ladder action.  Each module is built and validated once per (algebra
kind, weight); its matrices are immutable tuples, so every caller shares
it.  The Casimir tensor Omega_pq on a tensor product is assembled from the
nonzero entries of the factor matrices, never by dense products.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernel import RAT0, RAT1, Rat
from .errors import DomainError
from .exactlinalg import commutator, is_zero_matrix, mat_mul, zeros
from .ratfield import as_rat

SUPPORTED_KINDS = ("sl2", "abelian1")


@dataclass(frozen=True)
class GaugeAlgebra:
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
        """Matrix of ad(x_i) on the basis."""
        m = zeros(self.dim, self.dim)
        for j in range(self.dim):
            for k, c in self.bracket.get((i, j), {}).items():
                m[k][j] = c
        return m

    def weight_action(self, weight, i):
        """Scalar by which basis element i acts on a Borel highest-weight
        line of the given weight; None if i is not in the Borel's torus."""
        if i in self.cartan_indices:
            return as_rat(weight)  # the torus element acts by the weight
        return None


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
    # adjoint Casimir eigenvalue = 2 k_dual
    cas = zeros(d, d)
    for i in range(d):
        m1 = alg.ad(i)
        m2 = zeros(d, d)
        for j, c in enumerate(alg.dual_vectors[i]):
            if c.num == 0:
                continue
            adj = alg.ad(j)
            for r in range(d):
                for s in range(d):
                    m2[r][s] = m2[r][s] + c * adj[r][s]
        prod = mat_mul(m1, m2)
        for r in range(d):
            for s in range(d):
                cas[r][s] = cas[r][s] + prod[r][s]
    expect = alg.k_dual * 2
    for r in range(d):
        for s in range(d):
            want = expect if r == s else RAT0
            if cas[r][s] != want:
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


@dataclass(frozen=True)
class FiniteModule:
    """Finite-dimensional module with exact action matrices per basis label."""

    algebra_kind: str
    weight: Rat
    dim: int
    matrices: tuple          # matrices[i] = action of basis element i


_IRREPS = {}  # (algebra kind, weight) -> validated FiniteModule


def finite_irrep(alg, weight):
    """Irreducible highest-weight module (exact matrices), built and
    validated once per (algebra kind, weight).

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
        return FiniteModule(alg.kind, weight, 1, (((weight,),),))
    m = weight
    dim = m + 1
    E = zeros(dim, dim)
    H = zeros(dim, dim)
    F = zeros(dim, dim)
    for j in range(dim):
        H[j][j] = Rat(m - 2 * j)
        if j + 1 < dim:
            F[j + 1][j] = RAT1
        if j > 0:
            E[j - 1][j] = Rat(j * (m - j + 1))
    mod = FiniteModule(alg.kind, Rat(m), dim,
                       (tuple(map(tuple, E)), tuple(map(tuple, H)),
                        tuple(map(tuple, F))))
    _validate_module(alg, mod)
    return mod


def _validate_module(alg, mod):
    mats = [list(map(list, m)) for m in mod.matrices]
    for (i, j), tbl in alg.bracket.items():
        lhs = commutator(mats[i], mats[j])
        rhs = zeros(mod.dim, mod.dim)
        for k, c in tbl.items():
            for r in range(mod.dim):
                for s in range(mod.dim):
                    rhs[r][s] = rhs[r][s] + c * mats[k][r][s]
        if not is_zero_matrix([[a - b for a, b in zip(ra, rb)]
                               for ra, rb in zip(lhs, rhs)]):
            raise DomainError("module matrices violate the bracket relations")


def casimir_pairs(alg):
    """The invariant two-tensor as (basis index, dual vector) pairs."""
    return [(i, alg.dual_vectors[i]) for i in range(alg.dim)]


def tensor_dim(mods):
    d = 1
    for m in mods:
        d *= m.dim
    return d


def tensor_strides(mods):
    """Lexicographic strides: index = sum_j idx_j * stride_j."""
    n = len(mods)
    strides = [1] * n
    for j in range(n - 2, -1, -1):
        strides[j] = strides[j + 1] * mods[j + 1].dim
    return strides


def factor_op(mods, p, matrix):
    """Matrix acting on factor p (0-based) of the tensor product."""
    dim = tensor_dim(mods)
    strides = tensor_strides(mods)
    out = zeros(dim, dim)
    dp = mods[p].dim
    sp = strides[p]
    for col in range(dim):
        jp = (col // sp) % dp
        base = col - jp * sp
        for r in range(dp):
            v = matrix[r][jp]
            if v.num != 0:
                out[base + r * sp][col] = v
    return out


def _entries(matrix):
    """The nonzero entries of a matrix as (row, column, value)."""
    return [(r, c, v) for r, row in enumerate(matrix)
            for c, v in enumerate(row) if v.num != 0]


def omega_matrix(alg, mods, p, q):
    """Casimir two-tensor acting on factors p and q (0-based, p != q).

    Omega_pq = sum_i x_i^(p) u^i^(q).  Its local entries on the two
    factors are sums of products of nonzero entries of x_i on factor p,
    of the dual vector u^i and of x_j on factor q; each local entry is
    placed at base + rp*sp + rq*sq (column base + cp*sp + cq*sq) for every
    index base of the other factors.  No dense factor_op products."""
    if p == q:
        raise DomainError("omega acts on two distinct factors")
    dim = tensor_dim(mods)
    strides = tensor_strides(mods)
    sp, sq = strides[p], strides[q]
    dp, dq = mods[p].dim, mods[q].dim
    local = {}  # (row offset, column offset) -> entry
    for i, dual in casimir_pairs(alg):
        xp = _entries(mods[p].matrices[i])
        for j, c in enumerate(dual):
            if c.num == 0:
                continue
            for rq, cq, b in _entries(mods[q].matrices[j]):
                cb = c * b
                for rp, cp, a in xp:
                    key = (rp * sp + rq * sq, cp * sp + cq * sq)
                    local[key] = local.get(key, RAT0) + a * cb
    out = zeros(dim, dim)
    bases = [b for b in range(dim)
             if (b // sp) % dp == 0 and (b // sq) % dq == 0]
    for (ro, co), v in local.items():
        if v.num != 0:
            for b in bases:
                out[b + ro][b + co] = v
    return out


def casimir_eigenvalue(alg, weight):
    """Eigenvalue of the quadratic Casimir on the irrep of this weight."""
    if alg.kind == "abelian1":
        w = as_rat(weight)
        return w * w
    m = weight if isinstance(weight, int) else as_rat(weight).num
    return Rat(m * (m + 2), 2)


def diagonal_action(alg, mods, xvec):
    """Matrix of x acting diagonally (Leibniz) on the tensor product."""
    dim = tensor_dim(mods)
    out = zeros(dim, dim)
    for p in range(len(mods)):
        xm = zeros(mods[p].dim, mods[p].dim)
        for i, c in enumerate(xvec):
            if c.num == 0:
                continue
            mi = mods[p].matrices[i]
            for r in range(mods[p].dim):
                for s in range(mods[p].dim):
                    xm[r][s] = xm[r][s] + c * mi[r][s]
        fp = factor_op(mods, p, xm)
        for r in range(dim):
            for s in range(dim):
                out[r][s] = out[r][s] + fp[r][s]
    return out
