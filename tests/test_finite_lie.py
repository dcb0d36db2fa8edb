"""Gauge algebra data: structure constants, form, irreps, Casimir."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (dense, dense_commutator, dense_mat_mul,
                      dense_omega_matrix, diagonal_action, is_zero_matrix,
                      matrix_form, place)
from knwznw import Rat
from knwznw._kernel import RAT0, RAT1, ZERO_FORM, canonical, form, rats
from knwznw.errors import DomainError
from knwznw.finite_lie import (FiniteModule, _abelian1, _sl2, _validate,
                               _validate_module, casimir_eigenvalue,
                               factor_op, finite_irrep, form_product,
                               local_casimir, local_omega, make_algebra,
                               omega_entries, place_local)


def dense_matrices(mod):
    """The action of each basis element on mod as a dense matrix."""
    return [dense(e, mod.dim) for e in mod.entries]


def omega_placed(alg, mods, p, q):
    """Omega_pq placed densely from its integer form."""
    return dense(omega_entries(alg, mods, p, q),
                 math.prod(m.dim for m in mods))


@pytest.fixture(scope="module")
def sl2():
    return make_algebra("sl2")


@pytest.fixture(scope="module")
def ab():
    return make_algebra("abelian1")


def test_kinds(sl2, ab):
    assert sl2.dim == 3 and sl2.k_dual == Rat(2)
    assert ab.dim == 1 and ab.k_dual == Rat(0)
    with pytest.raises(DomainError):
        make_algebra("e8")


def test_a_corrupted_algebra_is_refused():
    E, H = 0, 1
    sl2 = _sl2()
    bracket = dict(sl2.bracket)
    bracket[(H, E)] = {E: Rat(-2)}  # [h, e] = -2e, but still [e, h] = -2e
    form = ((RAT0, RAT0, RAT1), (RAT0, Rat(3), RAT0), (RAT1, RAT0, RAT0))
    dual = (sl2.dual_vectors[0], (RAT0, RAT1, RAT0), sl2.dual_vectors[2])
    cases = [
        (sl2._replace(bracket=bracket), "Jacobi identity fails for sl2"),
        (sl2._replace(form=form), "form not invariant for sl2"),
        (sl2._replace(dual_vectors=dual), "dual basis mismatch for sl2"),
        (sl2._replace(k_dual=Rat(3)), "adjoint Casimir is not 2k for sl2"),
        # ad(u) = 0 on the abelian algebra: its Casimir is 0, not 2
        (_abelian1()._replace(k_dual=RAT1),
         "adjoint Casimir is not 2k for abelian1"),
    ]
    for alg, message in cases:
        with pytest.raises(DomainError, match=message):
            _validate(alg)
    assert _validate(sl2) is sl2 and _validate(_abelian1()).k_dual == RAT0


def test_form_normalization(sl2):
    E, H, F = 0, 1, 2
    assert sl2.form[E][F] == Rat(1)
    assert sl2.form[H][H] == Rat(2)
    assert sl2.form[E][E] == Rat(0)
    # trace-form oracle on the defining 2x2 matrices
    v1 = dense_matrices(finite_irrep(sl2, 1))
    for i in range(3):
        for j in range(3):
            tr = sum((dense_mat_mul(v1[i], v1[j])[k][k]
                      for k in range(2)), Rat(0))
            assert tr == sl2.form[i][j]


def test_dual_basis_completeness(sl2):
    # (x_i | u^j) = delta_ij: F D^T = 1, from the form F and the rows D of
    # the dual vectors
    for i, row in enumerate(sl2.form):
        for j, dual in enumerate(sl2.dual_vectors):
            c = sum((f * u for f, u in zip(row, dual)), Rat(0))
            assert c == (Rat(1) if i == j else Rat(0))


def reference_validate(alg):
    """The algebra checks on Rat coefficient vectors, as `_validate` made
    them before it read integer forms: Jacobi on every basis triple,
    ([x,y]|z) = (x|[y,z]), (x_i|u^j) = delta_ij and the adjoint Casimir."""
    d = alg.dim
    basis = [[RAT1 if i == j else RAT0 for j in range(d)] for i in range(d)]

    def pair(x, y):
        return sum((a * b * alg.form[i][j] for i, a in enumerate(x)
                    for j, b in enumerate(y)), RAT0)

    br = alg.bracket_vectors
    for x, y, z in itertools.product(basis, repeat=3):
        s = [RAT0] * d
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            s = [u + v for u, v in zip(s, br(a, br(b, c)))]
        if any(u.num != 0 for u in s):
            raise DomainError("Jacobi identity fails for %s" % alg.kind)
    for x, y, z in itertools.product(basis, repeat=3):
        if pair(br(x, y), z) != pair(x, br(y, z)):
            raise DomainError("form not invariant for %s" % alg.kind)
    for i, j in itertools.product(range(d), repeat=2):
        if pair(basis[i], alg.dual_vectors[j]) != (RAT1 if i == j else RAT0):
            raise DomainError("dual basis mismatch for %s" % alg.kind)
    two = [[alg.k_dual * 2 if i == j else RAT0 for j in range(d)]
           for i in range(d)]
    ads = [dense(alg.ad(i), d) for i in range(d)]
    cas = [[RAT0] * d for _ in range(d)]
    for i, dual in enumerate(alg.dual_vectors):
        for j, c in enumerate(dual):
            prod = dense_mat_mul(ads[i], ads[j])
            cas = [[u + c * v for u, v in zip(r1, r2)]
                   for r1, r2 in zip(cas, prod)]
    if cas != two:
        raise DomainError("adjoint Casimir is not 2k for %s" % alg.kind)
    return alg


def verdict(validate, alg):
    try:
        validate(alg)
    except DomainError as exc:
        return str(exc)
    return "ok"


def corrupted(alg, table, key, v):
    """alg with one entry of one table set to v: the bracket coefficient
    c_ij^k at key (i, j, k), the entry key (r, c) of the form or the dual
    vectors, or k_dual."""
    if table == "k_dual":
        return alg._replace(k_dual=v)
    if table == "bracket":
        i, j, k = key
        br = {ij: dict(tbl) for ij, tbl in alg.bracket.items()}
        tbl = br.setdefault((i, j), {})
        tbl[k] = v
        br[i, j] = {k2: c for k2, c in tbl.items() if c.num}
        return alg._replace(bracket={ij: t for ij, t in br.items() if t})
    rows = [list(row) for row in getattr(alg, table)]
    rows[key[0]][key[1]] = v
    return alg._replace(**{table: tuple(map(tuple, rows))})


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(("sl2", "abelian1")),
       table=st.sampled_from(("bracket", "form", "dual_vectors", "k_dual")),
       v=st.builds(Rat, st.integers(-3, 3), st.integers(1, 3)))
def test_the_integer_validation_agrees_with_the_vector_reference(
        data, kind, table, v):
    alg = _sl2() if kind == "sl2" else _abelian1()
    idx = st.integers(0, alg.dim - 1)
    key = data.draw(st.tuples(*[idx] * {"bracket": 3, "k_dual": 0}.get(
        table, 2)))
    bad = corrupted(alg, table, key, v)
    assert verdict(_validate, bad) == verdict(reference_validate, bad)
    assert verdict(_validate, alg) == verdict(reference_validate, alg) == "ok"


def test_irrep_dimensions(sl2):
    assert finite_irrep(sl2, 0).dim == 1
    assert finite_irrep(sl2, 1).dim == 2
    assert finite_irrep(sl2, 2).dim == 3
    with pytest.raises(DomainError):
        finite_irrep(sl2, -1)


def test_irrep_brackets_exact(sl2):
    for lam in (0, 1, 2, 3):
        mod = finite_irrep(sl2, lam)
        E, H, F = dense_matrices(mod)
        hh = dense_commutator(E, F)
        for r in range(mod.dim):
            for s in range(mod.dim):
                assert hh[r][s] == H[r][s]


def dense_bracket_relations_hold(alg, mats):
    """[x_i, x_j] = sum_k c_k x_k over dense dim x dim matrices, the check
    `_validate_module` made before it read the nonzero entries only."""
    dim = len(mats[0])
    for (i, j), tbl in alg.bracket.items():
        lhs = dense_commutator(mats[i], mats[j])
        for r in range(dim):
            for s in range(dim):
                rhs = sum((c * mats[k][r][s] for k, c in tbl.items()), RAT0)
                if lhs[r][s] != rhs:
                    return False
    return True


def test_corrupted_irrep_matrices_are_refused(sl2):
    rng = random.Random(349)
    base = finite_irrep(sl2, 4)
    _validate_module(sl2, base)
    refused = 0
    for _ in range(40):
        mats = dense_matrices(base)
        i, r, c = rng.randrange(3), rng.randrange(5), rng.randrange(5)
        mats[i][r][c] = mats[i][r][c] + Rat(rng.choice((-2, 1, 3)),
                                            rng.randint(1, 3))
        mod = FiniteModule("sl2", base.weight, base.dim,
                           tuple(matrix_form(m) for m in mats))
        assert not dense_bracket_relations_hold(sl2, mats)
        with pytest.raises(DomainError, match="violate the bracket"):
            _validate_module(sl2, mod)
        refused += 1
    assert refused == 40
    # one entry off the ladder, and one ladder entry changed, at weight 9
    big = finite_irrep(sl2, 9)
    for i, r, c in ((1, 0, 3), (0, 2, 3)):
        mats = dense_matrices(big)
        mats[i][r][c] = mats[i][r][c] + RAT1
        ents = tuple(matrix_form(m) for m in mats)
        with pytest.raises(DomainError, match="violate the bracket"):
            _validate_module(sl2, FiniteModule("sl2", big.weight, big.dim,
                                               ents))


def test_casimir_eigenvalues(sl2, ab):
    # C = e f + f e + h^2/2 acts by m(m+2)/2 on the (m+1)-dim module
    assert casimir_eigenvalue(sl2, 1) == Rat(3, 2)
    assert casimir_eigenvalue(sl2, 2) == Rat(4)
    assert casimir_eigenvalue(ab, Rat(3)) == Rat(9)
    for lam in (1, 2, 3):
        mod = finite_irrep(sl2, lam)
        E, H, F = dense_matrices(mod)
        cas = dense_mat_mul(E, F)
        fe = dense_mat_mul(F, E)
        hh = dense_mat_mul(H, H)
        for r in range(mod.dim):
            for s in range(mod.dim):
                v = cas[r][s] + fe[r][s] + hh[r][s] * Rat(1, 2)
                want = casimir_eigenvalue(sl2, lam) if r == s else Rat(0)
                assert v == want


def test_omega_abelian(ab):
    m = finite_irrep(ab, Rat(2))
    om = omega_placed(ab, [m, m], 0, 1)
    assert om == [[Rat(4)]]


def test_omega_eigenvalues(sl2):
    v1 = finite_irrep(sl2, 1)
    om = omega_placed(sl2, [v1, v1], 0, 1)
    # triplet highest vector v0 x v0 (column 0): eigenvalue 1/2
    col0 = [om[r][0] for r in range(4)]
    assert col0 == [Rat(1, 2), Rat(0), Rat(0), Rat(0)]
    # singlet v0 x v1 - v1 x v0: eigenvalue -3/2
    s_img = [om[r][1] - om[r][2] for r in range(4)]
    assert s_img == [Rat(0), Rat(-3, 2), Rat(3, 2), Rat(0)]
    # 2 x 2 = 3 + 1: trace = 3*(1/2) + (-3/2) = 0
    assert sum((om[i][i] for i in range(4)), Rat(0)) == Rat(0)


def test_omega_invariance(sl2):
    v1 = finite_irrep(sl2, 1)
    v2 = finite_irrep(sl2, 2)
    mods = [v1, v2]
    om = omega_placed(sl2, mods, 0, 1)
    for i in range(3):
        xv = [Rat(0)] * 3
        xv[i] = Rat(1)
        D = diagonal_action(mods, xv)
        assert is_zero_matrix(dense_commutator(om, D))


def test_omega_is_symmetric(sl2):
    # the Casimir tensor is symmetric: Omega_qp = Omega_pq
    mods = [finite_irrep(sl2, w) for w in (1, 2, 1)]
    for p, q in ((0, 1), (0, 2), (1, 2)):
        assert omega_placed(sl2, mods, p, q) == omega_placed(sl2, mods, q, p)


def test_sparse_omega_matches_the_dense_oracle(sl2, ab):
    cases = [(sl2, (1, 2, 1)), (sl2, (2, 2, 2)), (sl2, (0, 1, 2)),
             (ab, (Rat(2), Rat(-1, 3), Rat(5))), (ab, (Rat(1, 2), RAT0))]
    for alg, weights in cases:
        mods = [finite_irrep(alg, w) for w in weights]
        for p in range(len(mods)):
            for q in range(len(mods)):
                if p != q:
                    dense = dense_omega_matrix(alg, mods, p, q)
                    assert omega_placed(alg, mods, p, q) == dense
                    # the form holds exactly the nonzero entries, and is
                    # canonical
                    assert omega_entries(alg, mods, p, q) == \
                        matrix_form(dense)


def dense_casimir(alg, mods, p):
    """sum_ij D_ij x_i^(p) x_j^(p) as dense products of factor_op
    matrices."""
    dim = math.prod(m.dim for m in mods)
    out = [[RAT0] * dim for _ in range(dim)]
    ops = [factor_op(mods, p, e) for e in mods[p].entries]
    for i, dual in enumerate(alg.dual_vectors):
        for j, c in enumerate(dual):
            if c.num:
                prod = dense_mat_mul(ops[i], ops[j])
                out = [[x + c * y for x, y in zip(ro, rp)]
                       for ro, rp in zip(out, prod)]
    return out


def casimir_placed(alg, mods, p):
    """The cached one-factor Casimir of factor p placed densely."""
    return factor_op(mods, p, local_casimir(alg, mods[p]))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data(), kind=st.sampled_from(("sl2", "abelian1")),
       n=st.integers(2, 5))
def test_cached_tensors_match_the_dense_products(data, kind, n):
    # fresh copies of the irreps, so the first read of each tensor builds
    # it and the second reads the table; both equal the dense products, and
    # each one-factor Casimir is its eigenvalue times the identity
    alg = make_algebra(kind)
    if kind == "sl2":  # repeated and zero weights, at most 81 dimensions
        pool = st.integers(0, 3 if n == 2 else 1 if n == 5 else 2)
    else:
        pool = st.sampled_from((RAT0, Rat(1), Rat(-2, 3), Rat(5, 2)))
    weights = data.draw(st.lists(pool, min_size=n, max_size=n))
    mods = [finite_irrep(alg, w)._replace() for w in weights]
    for p in range(n):
        cold = local_casimir(alg, mods[p])
        for _read in ("cold", "cached"):
            assert casimir_placed(alg, mods, p) == dense_casimir(alg, mods, p)
        assert local_casimir(alg, mods[p]) is cold
        dim = mods[p].dim
        eig = casimir_eigenvalue(alg, weights[p])
        assert dense(cold, dim) == [
            [eig if r == c else RAT0 for c in range(dim)] for r in range(dim)]
        for q in range(n):
            if q != p:
                want = dense_omega_matrix(alg, mods, p, q)
                for _read in ("cold", "cached"):
                    assert omega_placed(alg, mods, p, q) == want


@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data(), kind=st.sampled_from(("sl2", "abelian1")),
       n=st.integers(2, 5))
def test_one_placement_matches_the_dense_factor_products(data, kind, n):
    # a local tensor placed on one factor is factor_op's matrix, and the
    # tensor x_i (x) x_j placed on the ordered pair (p, q) is the dense
    # product of x_i on p and x_j on q, whichever factor comes first
    alg = make_algebra(kind)
    if kind == "sl2":  # repeated and zero weights, at most 81 dimensions
        pool = st.integers(0, 3 if n == 2 else 1 if n == 5 else 2)
    else:
        pool = st.sampled_from((RAT0, Rat(1), Rat(-2, 3), Rat(5, 2)))
    weights = data.draw(st.lists(pool, min_size=n, max_size=n))
    mods = [finite_irrep(alg, w) for w in weights]
    ops = [[factor_op(mods, p, x) for x in m.entries]
           for p, m in enumerate(mods)]
    for p in range(n):
        for i, x in enumerate(mods[p].entries):
            assert place_local(mods, (p,), x) == matrix_form(ops[p][i])
        for q in range(n):
            if q == p:
                continue
            i = data.draw(st.integers(0, alg.dim - 1))
            j = data.draw(st.integers(0, alg.dim - 1))
            (dx, ex), (dy, ey) = mods[p].entries[i], mods[q].entries[j]
            local = canonical(dx * dy, {(rp, rq, cp, cq): a * b
                                        for (rp, cp), a in ex.items()
                                        for (rq, cq), b in ey.items()})
            assert place_local(mods, (p, q), local) == matrix_form(
                dense_mat_mul(ops[p][i], ops[q][j]))


def test_a_module_with_one_wrong_entry_gets_its_own_tensor(sl2):
    # a module equal to the irrep of weight 1 but for one entry of e, read
    # after the irrep's tensors: its Omega and Casimir are its own, equal to
    # its dense products and not to the irrep's, and the irrep's stay
    good = finite_irrep(sl2, 1)
    E, H, F = good.entries
    bad = FiniteModule("sl2", good.weight, 2, ((1, {(0, 1): 2}), H, F))
    assert E == (1, {(0, 1): 1})
    pair, cas = local_omega(sl2, good, good), local_casimir(sl2, good)
    for mods in ([bad, good], [good, bad], [bad, bad]):
        assert omega_placed(sl2, mods, 0, 1) == \
            dense_omega_matrix(sl2, mods, 0, 1)
        assert omega_placed(sl2, mods, 0, 1) != \
            omega_placed(sl2, [good, good], 0, 1)
    assert casimir_placed(sl2, [bad], 0) == dense_casimir(sl2, [bad], 0)
    assert local_casimir(sl2, bad) != cas
    assert local_omega(sl2, good, good) is pair
    assert local_casimir(sl2, good) is cas


def test_form_product_matches_the_dense_oracle():
    rng = random.Random(22)

    def sparse(rows, cols, density):
        return [[Rat(rng.randint(-9, 9), rng.randint(1, 4))
                 if rng.random() < density else RAT0
                 for _ in range(cols)] for _ in range(rows)]

    cancelled = 0
    for _ in range(80):
        n, k, m = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        a = sparse(n, k, rng.choice((0.0, 0.15, 0.4, 1.0)))
        b = sparse(k, m, rng.random())
        fa, fb = matrix_form(a), matrix_form(b)
        got = form_product(fa, fb)
        assert got[0] == fa[0] * fb[0]
        assert place(rats(*got), n, m) == dense_mat_mul(a, b)
        assert canonical(*got) == matrix_form(dense_mat_mul(a, b))
        # a product whose nonzero terms cancel: (u | -u) times b stacked
        # over b is u b - u b = 0, with u b nonzero in most cases; the
        # sums stay as 0 until `canonical` drops them
        u = sparse(n, k, 1.0)
        c = [ru + [-x for x in ru] for ru in u]
        bb = b + b
        zero = form_product(matrix_form(c), matrix_form(bb))
        assert canonical(*zero) == ZERO_FORM
        assert not any(zero[1].values())
        assert is_zero_matrix(dense_mat_mul(c, bb))
        if any(v.num for row in dense_mat_mul(u, b) for v in row):
            cancelled += 1
            assert zero[1]
    assert cancelled > 20
    assert form_product(ZERO_FORM, (1, {(0, 0): 1})) == (1, {})


def test_form_product_matches_a_fraction_reference():
    # the integer sums against a Fraction restatement of the product, on
    # seeded forms whose entries have denominators up to 60, with an inner
    # dimension of at least 2, so that in most products several terms land
    # on one entry
    rng = random.Random(35)

    def operand(rows, cols):
        return form({(rng.randrange(rows), rng.randrange(cols)):
                     Rat(rng.choice((-1, 1)) * rng.randint(1, 12),
                         rng.randint(1, 60))
                     for _ in range(rng.randint(0, 2 * rows * cols))})

    repeated = 0
    for _ in range(300):
        n, k, m = rng.randint(1, 4), rng.randint(2, 4), rng.randint(1, 4)
        a, b = operand(n, k), operand(k, m)
        want, terms = {}, {}
        for (r, c), u in rats(*a).items():
            for (r2, c2), v in rats(*b).items():
                if r2 == c:
                    want[r, c2] = want.get((r, c2), 0) + (
                        Fraction(u.num, u.den) * Fraction(v.num, v.den))
                    terms[r, c2] = terms.get((r, c2), 0) + 1
        got = form_product(a, b)
        assert got[0] == a[0] * b[0]
        assert {rc: Fraction(v.num, v.den)
                for rc, v in rats(*got).items()} == {
            rc: v for rc, v in want.items() if v}
        assert set(got[1]) == set(want)
        repeated += any(t > 1 for t in terms.values())
    assert repeated > 150


def test_irreps_are_built_once(sl2, ab):
    assert finite_irrep(sl2, 2) is finite_irrep(sl2, Rat(2))
    assert finite_irrep(ab, Rat(1, 2)) is finite_irrep(ab, "1/2")
    assert finite_irrep(ab, 1) is finite_irrep(ab, Rat(1))
    assert finite_irrep(sl2, 1) is not finite_irrep(sl2, 2)
    # each action is a canonical integer form: its nonzero entries over
    # the least denominator
    for mod in (finite_irrep(sl2, 0), finite_irrep(sl2, 4),
                finite_irrep(ab, 2), finite_irrep(ab, Rat(-5, 6)),
                finite_irrep(ab, 0)):
        for e in mod.entries:
            assert canonical(*e) == e and all(e[1].values())
    assert finite_irrep(sl2, 0).entries == (ZERO_FORM,) * 3
    assert finite_irrep(ab, 0).entries == (ZERO_FORM,)
    assert finite_irrep(ab, Rat(-5, 6)).entries == ((6, {(0, 0): -5}),)
    assert finite_irrep(sl2, 2).entries == (
        (1, {(0, 1): 2, (1, 2): 2}), (1, {(0, 0): 2, (2, 2): -2}),
        (1, {(1, 0): 1, (2, 1): 1}))
