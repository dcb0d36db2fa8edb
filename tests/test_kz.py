"""Formal KZ system: tangent fields, matrices, classical fit, flatness."""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (dense, dense_commutator, dense_omega_matrix,
                      is_zero_matrix)
from knwznw import Rat, kz, sugawara, verify_kz
from knwznw._kernel import RAT0
from knwznw.basis import Config
from knwznw.errors import CriticalLevelError
from knwznw.finite_lie import make_algebra, tensor_strides
from knwznw.kz import (classical_oracle_matrices, flatness_check, kz_matrices,
                       predicted_scalar_shift, tangent_fields)
from knwznw.modules import InducedModule, ModuleSpec, induce_module
from knwznw.sugawara import (_triple_coefficient, apply_L_raw,
                              rescale_factor)


@pytest.fixture(scope="module")
def sl2():
    return make_algebra("sl2")


@pytest.fixture(scope="module")
def ab():
    return make_algebra("abelian1")


def test_tangent_fields_single_point():
    cfg = Config(["0"])
    fields, meta = tangent_fields(cfg)
    assert len(fields) == 1
    from knwznw.basis import kn_basis_element, KNIndex
    from knwznw.ratfield import RationalFunction as RF
    # e_{-1} = d/dz: constant coefficient one
    assert kn_basis_element(cfg, KNIndex(-1, -1, 1)).value == RF.one()


def test_tangent_fields_two_points():
    cfg = Config(["0", "1"])
    fields, meta = tangent_fields(cfg)
    from knwznw.basis import kn_basis_element, KNIndex
    from knwznw.ratfield import Poly, RationalFunction as RF
    z = Poly.x()
    # e_{-1,1} = (1 - z) d/dz: value 1 at 0, zero at 1
    assert kn_basis_element(cfg, KNIndex(-1, -1, 1)).value == RF(1 - z)
    assert meta["per_point"][1]["zero_orders"] == {2: 1}
    assert meta["per_point"][2]["zero_orders"] == {1: 1}


def test_point_movers_regular_everywhere():
    cfg = Config(["0", "1", "-1"])
    _, meta = tangent_fields(cfg)
    for p in (1, 2, 3):
        assert all(o >= 1 for o in meta["per_point"][p]["zero_orders"]
                   .values())


def test_kz_two_point_sl2(sl2):
    cfg = Config(["0", "1"])
    system = kz_matrices(cfg, sl2, (1, 1), Rat(1), 4)
    assert not system.partial
    assert system.residual_zero
    assert abs(system.kappa) == Rat(1, 3)
    assert system.sign_convention == -1
    dim = 4
    oracle = [dense(m, dim) for m in classical_oracle_matrices(cfg, sl2,
                                                               (1, 1))]
    for p in (1, 2):
        shift = system.scalar_shifts[p - 1]
        assert shift == predicted_scalar_shift(cfg, sl2, (1, 1), Rat(1), p)
        for i in range(dim):
            for j in range(dim):
                want = system.kappa * oracle[p - 1][i][j] \
                    + (shift if i == j else RAT0)
                assert dense(system.matrices[p - 1], dim)[i][j] == want


def test_kz_three_point_sl2(sl2):
    cfg = Config(["0", "1", "-1"])
    system = kz_matrices(cfg, sl2, (1, 1, 1), Rat(1), 4)
    assert not system.partial and system.residual_zero
    assert abs(system.kappa) == Rat(1, 3)
    for p in (1, 2, 3):
        assert system.scalar_shifts[p - 1] == \
            predicted_scalar_shift(cfg, sl2, (1, 1, 1), Rat(1), p)
    rep = flatness_check(system)
    assert rep.holds and not rep.vacuous and rep.checked_relations == 6


def test_kz_matrices_read_no_depth(sl2):
    # every Sugawara image is exact, so a depth-0 module gives the same
    # system as a deep one
    cfg = Config(["0", "1", "-1"])
    s0 = kz_matrices(cfg, sl2, (1, 1, 2), Rat(1), 0)
    s4 = kz_matrices(cfg, sl2, (1, 1, 2), Rat(1), 4)
    assert s0.matrices == s4.matrices
    assert (s0.kappa, s0.scalar_shifts) == (s4.kappa, s4.scalar_shifts)
    assert s0.residual_zero


def test_kz_trivial_weights(sl2):
    system = kz_matrices(Config(["0", "1"]), sl2, (0, 0), Rat(1), 2)
    assert all(c == RAT0 for m in system.matrices for row in dense(m, 1)
               for c in row)
    assert system.residual_zero


def test_kz_abelian(ab):
    cfg = Config(["0", "2", "5"])
    weights = (Rat(1), Rat(1, 2), Rat(-2))
    system = kz_matrices(cfg, ab, weights, Rat(1), 3)
    assert system.residual_zero and not system.partial
    assert system.kappa == Rat(-1)
    for p in (1, 2, 3):
        total = RAT0
        zp = cfg.points[p - 1]
        for j in (1, 2, 3):
            if j != p:
                total = total + weights[p - 1] * weights[j - 1] \
                    / (zp - cfg.points[j - 1])
        assert dense(system.matrices[p - 1], 1)[0][0] == \
            system.kappa * total + system.scalar_shifts[p - 1]


def test_translation_covariance(sl2):
    s1 = kz_matrices(Config(["0", "1"]), sl2, (1, 1), Rat(1), 3)
    s2 = kz_matrices(Config(["7", "8"]), sl2, (1, 1), Rat(1), 3)
    assert s1.matrices == s2.matrices
    assert s1.scalar_shifts == s2.scalar_shifts


def test_kappa_consistent_across_configurations(sl2):
    kappas = set()
    for pts in (("0", "1"), ("0", "3"), ("1/2", "-2")):
        system = kz_matrices(Config(pts), sl2, (1, 1), Rat(1), 3)
        kappas.add(system.kappa)
    for pts in (("0", "1", "-1"), ("0", "2", "7")):
        system = kz_matrices(Config(pts), sl2, (1, 1, 1), Rat(1), 3)
        kappas.add(system.kappa)
    assert kappas == {Rat(-1, 3)}


def test_kz_weight_two(sl2):
    # higher weights still match the Casimir oracle exactly
    cfg = Config(["0", "1"])
    system = kz_matrices(cfg, sl2, (2, 1), Rat(1), 3)
    assert system.residual_zero and abs(system.kappa) == Rat(1, 3)


def test_matrices_match_the_zero_mode_form(sl2):
    # on the degree-0 slice only the zero modes of L(-1, p) keep the
    # degree, so A_p = f sum_{q,s} c_{(0,q),(0,s)}/2 D_ij X_{q,i} X_{s,j},
    # with X_{q,i} the action of x_i at P_q on degree 0, c the Sugawara
    # triple coefficient of L(-1, p) and f = -1/(level + 2); built from
    # the degree-0 action alone, no Sugawara image
    rng = random.Random(21)
    pool = ["0", "1", "-1", "2", "1/2", "-7/3", "5"]
    compared = 0
    for n in (2, 3, 4):
        for _ in range(5):
            points = rng.sample(pool, n)
            weights = tuple(rng.randint(0, 2) for _ in range(n))
            level = Rat(rng.randint(1, 3))
            system = kz_matrices(Config(points), sl2, weights, level)
            cfg = Config(points)
            module = induce_module(sl2, cfg, ModuleSpec("weyl", weights,
                                                        level))
            dim = len(module.slice_basis(0))
            x = {}  # (q, i) -> {column: [(row, entry), ...]}
            for q in range(1, n + 1):
                for i in range(sl2.dim):
                    mat = dense(module.degree_zero_action(q, i), dim)
                    cols = x[(q, i)] = {}
                    for r, row in enumerate(mat):
                        for c, e in enumerate(row):
                            if e.num != 0:
                                cols.setdefault(c, []).append((r, e))
            f = rescale_factor(sl2, level)
            for p in range(1, n + 1):
                want = [[RAT0] * dim for _ in range(dim)]
                for q in range(1, n + 1):
                    for s in range(1, n + 1):
                        c = _triple_coefficient(cfg, -1, p, 0, q, 0, s)
                        for i, dual in enumerate(sl2.dual_vectors):
                            for j, d in enumerate(dual):
                                coef = f * c * d / 2
                                if coef.num == 0:
                                    continue
                                left, right = x[(q, i)], x[(s, j)]
                                for col, entries in right.items():
                                    for k, b in entries:
                                        for r, a in left.get(k, ()):
                                            want[r][col] += coef * a * b
                assert dense(system.matrices[p - 1], dim) == want
                compared += any(e.num for row in want for e in row)
    assert compared > 30


def test_critical_level(sl2):
    with pytest.raises(CriticalLevelError):
        kz_matrices(Config(["0", "1"]), sl2, (1, 1), Rat(-2), 2)


def test_flatness_vacuous_for_two_points(sl2):
    system = kz_matrices(Config(["0", "1"]), sl2, (1, 1), Rat(1), 2)
    rep = flatness_check(system)
    assert rep.holds and rep.vacuous


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def embed(local, mods, factors):
    """A matrix on the factors (p, q, r) of the product of mods, in that
    order, tensored with the identity on every other factor."""
    strides = tensor_strides(mods)
    dim = math.prod(m.dim for m in mods)

    def split(x):
        digits = [(x // st) % m.dim for st, m in zip(strides, mods)]
        at = 0
        for f in factors:
            at = at * mods[f].dim + digits[f]
        return at, [d for f, d in enumerate(digits) if f not in factors]

    parts = [split(x) for x in range(dim)]
    return [[local[ra][ca] if rest == crest else RAT0
             for ca, crest in parts] for ra, rest in parts]


FLATNESS_CASES = [(("0", "1", "-1"), (1, 1, 2)), (("0", "1", "-1"), (2, 2, 2)),
                  (("0", "1", "-1", "2"), (1, 1, 1, 1)),
                  (("0", "1", "-1", "2"), (1, 2, 1, 0))]


@pytest.mark.parametrize("points,weights", FLATNESS_CASES)
def test_flatness_agrees_with_the_dense_oracle(sl2, points, weights):
    # on the whole product, from textbook dense products: every braid
    # relation vanishes, and so does every commutator of disjoint pairs,
    # which holds by construction and which flatness_check does not take
    mods = [kz.finite_irrep(sl2, w) for w in weights]
    n = len(weights)
    om = {(p, q): dense_omega_matrix(sl2, mods, p, q)
          for p in range(n) for q in range(n) if p != q}
    triples = [(p, q, r) for p in range(n) for q in range(n)
               for r in range(n) if len({p, q, r}) == 3]
    for p, q, r in triples:
        assert is_zero_matrix(dense_commutator(
            om[p, q], mat_add(om[p, r], om[q, r])))
        for s in set(range(n)) - {p, q, r}:
            assert is_zero_matrix(dense_commutator(om[p, q], om[r, s]))
    system = kz_matrices(Config(points), sl2, weights, Rat(1))
    rep = flatness_check(system)
    assert rep.holds and not rep.vacuous and rep.counterexample is None
    assert rep.checked_relations == len(triples) == n * (n - 1) * (n - 2)


@pytest.mark.parametrize("points,weights",
                         FLATNESS_CASES + [(("0", "1", "-1"), (2, 1, 1))])
def test_a_broken_casimir_fails_on_the_relation_the_oracle_names(
        sl2, points, weights, monkeypatch):
    # doubling Omega_pr on every local product breaks the first relation:
    # its local commutator, tensored with the identity, is the dense
    # [Omega_pq, 2 Omega_pr + Omega_qr] on the whole product
    real = kz.omega_entries

    def doubled(alg, mods, p, q):
        m = real(alg, mods, p, q)
        return [(r, c, v + v) for r, c, v in m] if (p, q) == (0, 2) else m

    system = kz_matrices(Config(points), sl2, weights, Rat(1))
    monkeypatch.setattr(kz, "omega_entries", doubled)
    rep = flatness_check(system)
    assert not rep.holds and rep.checked_relations == 1
    (p, q, r), lhs = rep.counterexample
    # the first triple is (0, 1, 2), with p and q in order of weight
    assert {p, q} == {0, 1} and r == 2 and weights[p] <= weights[q]
    mods = [kz.finite_irrep(sl2, w) for w in weights]
    pq, pr, qr = (dense_omega_matrix(sl2, mods, i, j)
                  for i, j in ((p, q), (p, r), (q, r)))
    want = dense_commutator(pq, mat_add(mat_add(pr, pr), qr))
    assert not is_zero_matrix(want)
    local = math.prod(mods[f].dim for f in (p, q, r))
    assert embed(dense(lhs, local), mods, (p, q, r)) == want


def test_the_walk_of_first_points_matches_the_walk_of_every_triple(
        monkeypatch):
    # seeded weight tuples, each with Omega_pr doubled on the local
    # products whose third factor has one drawn weight, so that some keys
    # fail: the verdict and counterexample equal those of the walk of
    # every ordered triple, and a failure's rank is at most its rank there
    rng = random.Random(43)
    real = kz.omega_entries
    for _ in range(60):
        n = rng.randint(3, 7)
        weights = tuple(rng.randint(0, 2) for _ in range(n))
        bad = rng.choice(weights)

        def doubled(alg, mods, p, q, bad=bad):
            m = real(alg, mods, p, q)
            return ([(r, c, v + v) for r, c, v in m]
                    if (p, q) == (0, 2) and mods[2].weight == bad else m)

        system = kz.KZSystem(Config(range(n)), "sl2", weights, Rat(1), [],
                             None, [], None, True, False)
        monkeypatch.setattr(kz, "omega_entries", doubled)
        got = flatness_check(system)
        monkeypatch.setattr(kz, "permutations",
                            lambda pts, k, n=n: permutations(range(n), k))
        want = flatness_check(system)
        monkeypatch.undo()
        assert (got.holds, got.counterexample) == \
            (want.holds, want.counterexample)
        assert (got.checked_relations == want.checked_relations if got.holds
                else got.checked_relations <= want.checked_relations)


def test_flatness_builds_one_local_product_for_equal_weights(sl2,
                                                            monkeypatch):
    built = []
    real = kz.omega_entries

    def counting(alg, mods, p, q):
        built.append((tuple(m.weight for m in mods), p, q))
        return real(alg, mods, p, q)

    system = kz_matrices(Config(["0", "1", "-1", "2"]), sl2, (1, 1, 1, 1),
                         Rat(1))
    monkeypatch.setattr(kz, "omega_entries", counting)
    rep = flatness_check(system)
    assert rep.holds and rep.checked_relations == 24
    # three Omegas on one product of three factors, none on four
    assert built == [((1, 1, 1), 0, 1), ((1, 1, 1), 0, 2), ((1, 1, 1), 1, 2)]


def test_oracle_builds_each_omega_once(sl2, ab, monkeypatch):
    # Omega_qp = Omega_pq, so M_p and M_q share one Omega per unordered
    # pair; M_p still equals sum_{q != p} Omega_pq / (z_p - z_q) over the
    # dense oracle
    real = kz.omega_entries
    cases = [(Config(["0", "1", "-1", "2"]), sl2, (1, 1, 1, 1)),
             (Config(["1/2", "-7/3", "5"]), sl2, (2, 2, 2)),
             (Config(["0", "1", "3"]), ab, (Rat(1), Rat(2), Rat(3)))]
    for cfg, alg, weights in cases:
        built = []

        def counting(alg, mods, p, q):
            built.append((p, q))
            return real(alg, mods, p, q)

        monkeypatch.setattr(kz, "omega_entries", counting)
        got = classical_oracle_matrices(cfg, alg, weights)
        n = cfg.n_points
        assert len(built) == n * (n - 1) // 2 == len(set(built))
        mods = [kz.finite_irrep(alg, w) for w in weights]
        dim = math.prod(m.dim for m in mods)
        for p in range(n):
            want = [[RAT0] * dim for _ in range(dim)]
            for q in range(n):
                if q != p:
                    om = dense_omega_matrix(alg, mods, p, q)
                    fac = Rat(1) / (cfg.points[p] - cfg.points[q])
                    want = [[w + o * fac for w, o in zip(rw, ro)]
                            for rw, ro in zip(want, om)]
            assert dense(got[p], dim) == want


def test_flatness_abelian(ab):
    system = kz_matrices(Config(["0", "1", "3"]), ab,
                         (Rat(1), Rat(2), Rat(3)), Rat(1), 2)
    rep = flatness_check(system)
    assert rep.holds


rationals = st.builds(Rat, st.integers(-6, 6), st.integers(1, 4))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data(), n=st.integers(2, 3),
       shift=rationals.filter(lambda b: b.num != 0))
def test_translation_leaves_kz_and_sugawara_images_unchanged(sl2, data, n,
                                                             shift):
    # z -> z + b carries the KN basis at the points P_i to the basis at
    # P_i + b with the same structure constants, so the connection and
    # every Sugawara image in the PBW basis are unchanged
    points = data.draw(st.lists(rationals, min_size=n, max_size=n,
                                unique=True))
    weights = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n,
                                       max_size=n)))
    cfgs = [Config(points), Config([z + shift for z in points])]
    systems = [kz_matrices(c, sl2, weights, Rat(1)) for c in cfgs]
    for attr in ("matrices", "kappa", "scalar_shifts"):
        assert getattr(systems[0], attr) == getattr(systems[1], attr), attr
    mods = [induce_module(sl2, c, ModuleSpec("weyl", weights, Rat(1)))
            for c in cfgs]
    for d in (-1, -2):
        basis = mods[0].slice_basis(d)
        assert mods[1].slice_basis(d) == basis
        monos = data.draw(st.lists(st.sampled_from(basis), min_size=1,
                                   max_size=3, unique=True))
        # the two modules share their codec: one code names one monomial
        vec = (data.draw(st.integers(1, 6)),
               {mods[0].encode(m): data.draw(st.integers(-5, 5).filter(bool))
                for m in monos})
        k = data.draw(st.integers(-2, 2))
        r = data.draw(st.integers(1, n))
        images = [apply_L_raw(m, (k, r), vec) for m in mods]
        assert images[0] == images[1], (d, k, r)


def full_image_block(module, p, f):
    """f times the degree-0 part of the full image of L(-1, p) on each
    vacuum monomial (`apply_L_raw`, which sums the term plan of degree 0
    on it), as a dense matrix: column c is the image of the c-th
    monomial of `slice_basis(0)`."""
    basis = module.slice_basis(0)
    index = {m: r for r, m in enumerate(basis)}
    mat = [[RAT0] * len(basis) for _ in basis]
    for col, mono in enumerate(basis):
        image = module.decode_form(*apply_L_raw(
            module, (-1, p), (1, {module.encode(mono): 1})))
        for m, c in image.items():
            if m.degree == 0:
                mat[index[m]][col] = f * c
    return mat


def test_kz_columns_are_the_degree_zero_part_of_the_full_image(sl2, ab):
    # a term of L(-1, p) of total t moves the degree by t, so each column
    # of A_p is f times the degree-0 part of the full image of a vacuum
    # monomial, built on a module and configuration of its own: a weyl
    # module for sl2, a fock module at rational weights and levels for
    # abelian1; for N = 1 there is no term of total 0 and the matrices
    # are zero
    rng = random.Random(35)
    pool = ["0", "1", "-1", "2", "1/2", "-7/3", "5", "3/4"]
    compared = dict.fromkeys(("weyl", "fock"), 0)
    nonzero = compared.copy()
    for alg, kind in ((sl2, "weyl"), (ab, "fock")):
        for n in (1, 2, 3, 4):
            for _ in range(4 if n < 4 else 2):
                points = rng.sample(pool, n)
                if kind == "weyl":
                    weights = tuple(rng.randint(0, 2) for _ in range(n))
                    level = Rat(rng.choice((-3, 1, 2, 3)))
                else:
                    weights = tuple(Rat(rng.randint(-3, 3), rng.randint(1, 3))
                                    for _ in range(n))
                    level = Rat(rng.choice((-3, 1, 2, 3)), rng.choice((1, 2)))
                system = kz_matrices(Config(points), alg, weights, level)
                module = induce_module(alg, Config(points),
                                       ModuleSpec(kind, weights, level))
                f = rescale_factor(alg, level)
                dim = len(module.slice_basis(0))
                for p in range(1, n + 1):
                    want = full_image_block(module, p, f)
                    assert dense(system.matrices[p - 1], dim) == want
                    compared[kind] += 1
                    nonzero[kind] += any(e.num for row in want for e in row)
                if n == 1:
                    assert not any(e.num for m in system.matrices
                                   for row in dense(m, dim) for e in row)
    assert compared == {"weyl": 32, "fock": 32}
    assert nonzero["weyl"] > 20 and nonzero["fock"] > 20


def test_one_scaled_zero_mode_coefficient_breaks_the_fit(sl2, monkeypatch):
    # doubling one off-diagonal c^1_{(0,q),(0,s)} adds a multiple of O_qs
    # to A_1 that the Casimir oracle does not have: the fit at N = 3 leaves a
    # residual and the registry check fails there
    real = kz._triple_coefficient

    def first_off_diagonal(cfg):
        pts = range(1, 4)
        return next((q, s) for q in pts for s in pts
                    if q != s and real(cfg, -1, 1, 0, q, 0, s).num)

    def scaled(cfg, k, r, n, q, m, s):
        c = real(cfg, k, r, n, q, m, s)
        if cfg.n_points != 3 or (k, r, n, m) != (-1, 1, 0, 0):
            return c
        return c + c if (q, s) == first_off_diagonal(cfg) else c

    def system():
        return kz_matrices(Config(["0", "1", "-1"]), sl2, (1, 1, 1), Rat(1))

    assert system().residual_zero
    assert verify_kz.kz_classical_agreement()[0]
    monkeypatch.setattr(kz, "_triple_coefficient", scaled)
    assert not system().residual_zero
    assert verify_kz.kz_classical_agreement() == (False, "fit failed at N=3")


def test_kz_matrices_apply_no_term_plan(sl2, monkeypatch):
    # with the term plans made to raise, N = 4 still gives the degree-0
    # blocks of the full images, the exact fit and the predicted shifts,
    # from one Omega per pair of points, at most N(N-1)/2
    points, weights, level = ["0", "1", "-1", "2"], (1, 2, 1, 1), Rat(2)
    module = induce_module(sl2, Config(points),
                           ModuleSpec("weyl", weights, level))
    f = rescale_factor(sl2, level)
    want = [full_image_block(module, p, f) for p in range(1, 5)]

    def refuse(*args):
        raise AssertionError("a term plan was read")

    monkeypatch.setattr(sugawara, "_term_plan", refuse)
    monkeypatch.setattr(sugawara, "_apply_plan", refuse)
    built = []
    real = kz.omega_entries

    def counting(alg, mods, q, s):
        built.append((q, s))
        return real(alg, mods, q, s)

    monkeypatch.setattr(kz, "omega_entries", counting)
    cfg = Config(points)
    system = kz_matrices(cfg, sl2, weights, level)
    dim = len(module.slice_basis(0))
    assert [dense(m, dim) for m in system.matrices] == want
    assert system.residual_zero and system.kappa == Rat(-1, 4)
    assert system.scalar_shifts == [
        predicted_scalar_shift(cfg, sl2, weights, level, p)
        for p in range(1, 5)]
    assert len(set(built)) == len(built) <= 6
    assert all(q < s for q, s in built)


def test_kz_matrices_build_no_full_image(sl2, ab, monkeypatch):
    # the KZ matrices read the degree-0 block from the Casimir products
    # alone: with the Sugawara image memo's builder and the module
    # constructor made to raise, every system still comes out, and the
    # same as with them
    cases = [(Config(["0", "1", "-1"]), sl2, (1, 1, 2), Rat(1)),
             (Config(["1/2", "-7/3"]), ab, (Rat(1), Rat(-2, 3)), Rat(1)),
             (Config(["0"]), sl2, (2,), Rat(1))]
    want = [kz_matrices(*case) for case in cases]

    def refusing(what):
        def refuse(*args):
            raise AssertionError(what)
        return refuse

    monkeypatch.setattr(sugawara, "_image",
                        refusing("a full Sugawara image was built"))
    monkeypatch.setattr(InducedModule, "__init__",
                        refusing("a module was induced"))
    for case, w in zip(cases, want):
        got = kz_matrices(*case)
        assert (got.matrices, got.kappa, got.scalar_shifts) == \
            (w.matrices, w.kappa, w.scalar_shifts)


def test_a_point_of_weight_zero_reads_no_triple_coefficient(sl2,
                                                            monkeypatch):
    # a point of weight 0 acts by zero on degree 0, so each Casimir product
    # O_qs with q or s there is zero and no c^p_qs with q or s there is
    # read; every direction p, that point's too, reads c^p_qs of the 6
    # nonzero products, q <= s (c^p_sq = c^p_qs is not read again), and
    # each A_p is still the degree-0 block of the full image
    points, weights, level = ["0", "1", "-1", "2"], (1, 0, 2, 1), Rat(1)
    read = []
    real = kz._triple_coefficient

    def recording(cfg, k, r, n, q, m, s):
        read.append((r, q, s))
        return real(cfg, k, r, n, q, m, s)

    monkeypatch.setattr(kz, "_triple_coefficient", recording)
    system = kz_matrices(Config(points), sl2, weights, level)
    assert all(2 not in (q, s) for _r, q, s in read)
    assert sorted(read) == sorted(
        (r, q, s) for r in range(1, 5) for q in (1, 3, 4) for s in (1, 3, 4)
        if q <= s)
    module = induce_module(sl2, Config(points),
                           ModuleSpec("weyl", weights, level))
    f = rescale_factor(sl2, level)
    dim = len(module.slice_basis(0))
    assert [dense(m, dim) for m in system.matrices] == \
        [full_image_block(module, p, f) for p in range(1, 5)]
    assert system.residual_zero and system.scalar_shifts == [
        predicted_scalar_shift(Config(points), sl2, weights, level, p)
        for p in range(1, 5)]


def fraction_dot(a, b, dim):
    """The traceless Frobenius product as the fit once summed it, over
    {(row, column): Fraction} dicts."""
    dot = sum((x * b[rs] for rs, x in a.items() if rs in b), Fraction(0))
    ta = sum(a.get((i, i), 0) for i in range(dim))
    tb = sum(b.get((i, i), 0) for i in range(dim))
    return dot - Fraction(ta) * tb / dim


def fraction_scalar_part(a, m, kappa, dim):
    """s when a - kappa m = s Id, else None, over Fraction dicts."""
    def entry(rs):
        return a.get(rs, 0) - kappa * m.get(rs, 0)
    s = entry((0, 0))
    if s and any((i, i) not in a and (i, i) not in m for i in range(dim)):
        return None
    for rs in a.keys() | m.keys():
        if entry(rs) != (s if rs[0] == rs[1] else 0):
            return None
    return s


def fractions_of(mat):
    den, nums = mat
    return {rs: Fraction(x, den) for rs, x in nums.items()}


def integer_form_of(fracs):
    """An integer form of a Fraction dict, over a denominator that need
    not be the least one."""
    den = math.lcm(*(f.denominator for f in fracs.values())) * 2
    return den, {rs: int(f * den) for rs, f in fracs.items() if f}


def test_integer_fit_matches_the_rational_formulas():
    # _dot and _scalar_part on integer forms against the Fraction
    # restatement of the formulas they replace, on seeded sparse matrices
    # a = kappa m + s Id: exact, with an off-diagonal residual, with a
    # diagonal entry missing from both at s != 0, and both zero
    rng = random.Random(3434)
    paths = dict.fromkeys(("scalar", "off-diagonal", "missing-diagonal",
                           "zero"), 0)
    for case in list(paths) * 50:
        dim = rng.randint(2, 5)
        m = {(rng.randrange(dim), rng.randrange(dim)):
             Fraction(rng.randint(-9, 9), rng.randint(1, 7))
             for _ in range(rng.randint(0, 2 * dim))}
        kappa = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        s = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        a = {rs: kappa * v for rs, v in m.items()}
        for i in range(dim):
            a[(i, i)] = a.get((i, i), 0) + s
        want = s
        if case == "off-diagonal":
            a[(0, dim - 1)] = a.get((0, dim - 1), 0) + 1
            want = None
        elif case == "missing-diagonal":
            i = rng.randrange(1, dim)
            a.pop((i, i))
            m.pop((i, i), None)
            want = None
        elif case == "zero":
            a, m, want = {}, {}, 0
        a = {rs: v for rs, v in a.items() if v}
        m = {rs: v for rs, v in m.items() if v}
        ia, im = integer_form_of(a), integer_form_of(m)
        assert fractions_of(ia) == a and fractions_of(im) == m
        for x, y in ((ia, im), (ia, ia), (im, im)):
            got = kz._dot(x, y, dim)
            assert Fraction(got.num, got.den) == fraction_dot(
                fractions_of(x), fractions_of(y), dim)
        assert fraction_scalar_part(a, m, kappa, dim) == want
        got = kz._scalar_part(ia, im, Rat(kappa.numerator,
                                          kappa.denominator), dim)
        assert (got if want is None else Fraction(got.num, got.den)) == want
        paths[case] += 1
    assert set(paths.values()) == {50}


def test_the_integer_fit_on_scalar_and_empty_oracles(sl2, ab):
    # the abelian oracle is scalar, its traceless part zero: kappa is the
    # rescale factor; with trivial weights every oracle matrix is empty,
    # kappa stays None and each shift is the scalar part of a zero matrix
    cfg = Config(["0", "2", "5"])
    weights = (Rat(1), Rat(1, 2), Rat(-2))
    oracle = classical_oracle_matrices(cfg, ab, weights)
    assert all(entries for _, entries in oracle)
    assert all(kz._dot(m, m, 1) == RAT0 for m in oracle)
    system = kz_matrices(cfg, ab, weights, Rat(3, 2))
    assert system.kappa == rescale_factor(ab, Rat(3, 2))
    for p, (shift, mat) in enumerate(zip(system.scalar_shifts,
                                         system.matrices)):
        m = fractions_of(oracle[p])
        entry = dense(mat, 1)[0][0]
        a = {(0, 0): Fraction(entry.num, entry.den)}
        kappa = Fraction(system.kappa.num, system.kappa.den)
        assert Fraction(shift.num, shift.den) == \
            fraction_scalar_part(a, m, kappa, 1)
    trivial = kz_matrices(Config(["0", "1"]), sl2, (0, 0), Rat(1))
    assert classical_oracle_matrices(Config(["0", "1"]), sl2, (0, 0)) == \
        [(1, {}), (1, {})]
    assert trivial.kappa is None and trivial.sign_convention is None
    assert trivial.scalar_shifts == [RAT0, RAT0] and trivial.residual_zero
