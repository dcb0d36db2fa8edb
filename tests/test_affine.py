"""Affine algebra: bracket, decomposition, block algebra, psi."""

import random

import pytest

from conftest import section_of
from knwznw import Rat
from knwznw._kernel import RAT0, RAT1
from knwznw.affine import (AffineElement, affine_bracket, affine_decompose,
                           block_algebra_basis, g_tuple_bracket, psi_project)
from knwznw.algebras import cocycle_gamma
from knwznw.basis import Config, GradedElement, expand_in_basis
from knwznw.errors import DomainError
from knwznw.exactlinalg import nullspace
from knwznw.finite_lie import make_algebra
from knwznw.ratfield import Poly, RationalFunction as RF

E, H, F = 0, 1, 2


@pytest.fixture(scope="module")
def sl2():
    return make_algebra("sl2")


@pytest.fixture(scope="module")
def cfg1():
    return Config(["0"])


@pytest.fixture(scope="module")
def cfg2():
    return Config(["0", "1"])


def test_classical_relations(cfg1, sl2):
    for n in range(-6, 7):
        for m in range(-6, 7):
            for (i, j) in ((E, F), (F, E), (H, H), (E, H), (H, F)):
                out = affine_bracket(cfg1, sl2,
                                     AffineElement.loop_term(i, n, 1),
                                     AffineElement.loop_term(j, m, 1))
                loop = {(k, n + m, 1): c
                        for k, c in sl2.bracket.get((i, j), {}).items()}
                central = sl2.form[i][j] * Rat(n) if n + m == 0 else RAT0
                assert out == AffineElement(loop, central)


def test_centrality(cfg1, sl2):
    t = AffineElement.center(Rat(3))
    a = AffineElement.loop_term(E, 2, 1) + AffineElement.loop_term(F, -1, 1)
    assert affine_bracket(cfg1, sl2, a, t).is_zero()
    assert affine_bracket(cfg1, sl2, t, a).is_zero()


def test_bracket_against_raw_product_oracle(cfg2, sl2):
    # [x ot f, y ot g] computed independently from the raw rational
    # functions: bracket in g times the product expansion minus the form
    # times the function cocycle
    f_ge = GradedElement.unit(0, -1, 1)
    g_ge = GradedElement.unit(0, 1, 2)
    from knwznw.basis import section_from_graded
    fv = section_from_graded(cfg2, f_ge).value
    gv = section_from_graded(cfg2, g_ge).value
    prod = expand_in_basis(cfg2, section_of(cfg2, 0, fv * gv))
    out = affine_bracket(cfg2, sl2,
                         AffineElement.loop_term(E, -1, 1),
                         AffineElement.loop_term(F, 1, 2))
    want_loop = {(H, n, p): c for (n, p), c in prod.terms.items()}
    want_central = -sl2.form[E][F] * cocycle_gamma(cfg2, f_ge, g_ge)
    assert out == AffineElement(want_loop, want_central)


def test_affine_jacobi_with_central_terms(cfg2, sl2):
    rng = random.Random(2)
    for _ in range(12):
        def rnd():
            e = AffineElement()
            for _j in range(2):
                e = e + AffineElement.loop_term(
                    rng.randrange(3), rng.randint(-2, 2),
                    rng.randint(1, 2), Rat(rng.randint(-2, 2)))
            return e
        a, b, c = rnd(), rnd(), rnd()
        s = affine_bracket(cfg2, sl2, affine_bracket(cfg2, sl2, a, b), c)
        s = s + affine_bracket(cfg2, sl2, affine_bracket(cfg2, sl2, b, c), a)
        s = s + affine_bracket(cfg2, sl2, affine_bracket(cfg2, sl2, c, a), b)
        assert s.is_zero()


def test_decompose(cfg2, sl2):
    a = AffineElement.loop_term(E, 3, 1)
    minus, zero, plus, central = affine_decompose(a)
    assert minus.is_zero() and zero.is_zero() and not plus.is_zero()
    # x ot 1 lives purely in the zero strip
    one = expand_in_basis(cfg2, section_of(cfg2, 0, RF.one()))
    xa = AffineElement({(E, n, p): c for (n, p), c in one.terms.items()})
    minus, zero, plus, central = affine_decompose(xa)
    assert minus.is_zero() and plus.is_zero() and zero == xa
    vanish = expand_in_basis(cfg2,
                             section_of(cfg2, 0, RF(Poly((1,)), Poly.x())))
    xv = AffineElement({(E, n, p): c for (n, p), c in vanish.terms.items()})
    minus, zero, plus, central = affine_decompose(xv)
    assert plus.is_zero() and zero.is_zero() and minus == xv


def test_block_algebra_dimension_and_expansion(cfg2, sl2):
    gens = block_algebra_basis(cfg2, sl2, 0)
    assert len(gens) == sl2.dim
    gens = block_algebra_basis(cfg2, sl2, 1)
    assert len(gens) == 3 * sl2.dim
    # dimension oracle: direct linear solve for functions with poles of
    # order <= 1 at both points and regular at infinity.  Basis: q(z)
    # over (z)(z-1) with deg q <= 2: kernel of the infinity conditions is
    # trivial here, so the count is deg+1 = 3 per gauge direction.
    rows = []  # no linear conditions: h = q/((z)(z-1)), deg q <= 2
    assert len(nullspace(rows, 3)) == 3
    for u in gens:
        if u.pole_order:
            assert u.section.order_at(cfg2.points[u.pole_point - 1]) \
                == -u.pole_order


def test_block_cocycle_vanishes(cfg2, sl2):
    gens = block_algebra_basis(cfg2, sl2, 2)
    for a in gens:
        for b in gens:
            assert cocycle_gamma(cfg2, a.expansion, b.expansion) == RAT0


def test_psi_examples(sl2):
    cfg3 = Config(["0", "1", "2"])
    a = AffineElement.loop_term(E, 0, 2)
    out = psi_project(sl2, a, 3)
    assert out[0] == [RAT0] * 3
    assert out[1] == [RAT1, RAT0, RAT0]
    assert out[2] == [RAT0] * 3
    assert psi_project(sl2, AffineElement.center(), 3) == [[RAT0] * 3] * 3
    with pytest.raises(DomainError):
        psi_project(sl2, AffineElement.loop_term(E, -1, 1), 3)


def test_psi_homomorphism(cfg2, sl2):
    rng = random.Random(4)
    for _ in range(50):
        def rnd():
            e = AffineElement()
            for _j in range(3):
                e = e + AffineElement.loop_term(
                    rng.randrange(3), rng.randint(0, 2),
                    rng.randint(1, 2), Rat(rng.randint(-3, 3)))
            return e + AffineElement.center(Rat(rng.randint(-2, 2)))
        a, b = rnd(), rnd()
        br = affine_bracket(cfg2, sl2, a, b)
        assert affine_decompose(br)[0].is_zero()
        assert psi_project(sl2, br, 2) == g_tuple_bracket(
            sl2, psi_project(sl2, a, 2), psi_project(sl2, b, 2))


def test_degree_bookkeeping(cfg2, sl2):
    for n in range(-3, 4):
        for m in range(-3, 4):
            out = affine_bracket(cfg2, sl2,
                                 AffineElement.loop_term(E, n, 1),
                                 AffineElement.loop_term(F, m, 2))
            degs = out.degrees()
            if degs:
                assert degs[0] >= n + m and degs[-1] <= n + m + 1
            if out.central.num != 0:
                assert -1 <= n + m <= 0


