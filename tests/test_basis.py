"""Basis construction, duality pairing, expansion."""

import random
from math import comb

import pytest

from conftest import section_of
from knwznw import Rat
from knwznw.basis import (Config, GradedElement, KNIndex, expand_in_basis,
                          homogeneous_dimension, kn_basis_element,
                          kn_basis_record, kn_pairing, section_from_graded)
from knwznw.errors import DomainError
from knwznw.exactlinalg import nullspace
from knwznw.ratfield import (INFINITY, Poly, RationalFunction as RF,
                             local_expansion, order_at)

z = Poly.x()


@pytest.fixture(scope="module")
def cfg1():
    return Config(["0"])


@pytest.fixture(scope="module")
def cfg2():
    return Config(["0", "1"])


@pytest.fixture(scope="module")
def cfg3():
    return Config(["0", "1", "-1"])


def test_config_validation():
    with pytest.raises(DomainError):
        Config([])
    with pytest.raises(DomainError):
        Config(["0", "0"])


def test_vector_field_e0(cfg1):
    # order constraints ord_0 = 1, ord_inf = 1 pin z d/dz
    rec = kn_basis_record(cfg1, KNIndex(-1, 0, 1))
    assert rec.section.value == RF(z)
    assert rec.orders == {1: 1} and rec.order_infinity == 1


def test_record_index_may_be_a_knindex_a_tuple_or_a_list():
    cfg = Config(["0", "1"])
    first = kn_basis_record(cfg, [2, -1, 2])  # a list is never a cache key
    assert kn_basis_record(cfg, (2, -1, 2)) is first
    assert kn_basis_record(cfg, KNIndex(2, -1, 2)) is first
    assert kn_basis_record(cfg, [2, -1, 2]) is first
    fresh = kn_basis_record(Config(["0", "1"]), KNIndex(2, -1, 2))
    assert fresh.section.value == first.section.value
    assert (fresh.orders, fresh.order_infinity) == \
        (first.orders, first.order_infinity)


@pytest.mark.parametrize("idx", [(0, 1, 3), [0, 1, 0], KNIndex(0, 1, -1)])
def test_record_index_out_of_range_before_and_after_caching(idx):
    cfg = Config(["0", "1"])
    with pytest.raises(DomainError, match="point index"):
        kn_basis_record(cfg, idx)
    for p in (1, 2):
        kn_basis_record(cfg, KNIndex(0, 1, p))
    assert ("basis", (0, 1, 1)) in cfg.cache
    with pytest.raises(DomainError, match="point index"):
        kn_basis_record(cfg, idx)
    assert ("basis", tuple(idx)) not in cfg.cache


def test_function_basis_two_points(cfg2):
    assert kn_basis_element(cfg2, KNIndex(0, 0, 1)).value == RF(1 - z)
    assert kn_basis_element(cfg2, KNIndex(0, 0, 2)).value == RF(z)


def test_single_point_monomials(cfg1):
    assert kn_basis_element(cfg1, KNIndex(0, 3, 1)).value == RF(z ** 3)
    for n in range(-4, 5):
        assert kn_basis_element(cfg1, KNIndex(0, n, 1)).value == \
            RF(Poly((1,))) * RF(z) ** n


def test_pairing_delta_examples(cfg2):
    a01 = kn_basis_element(cfg2, KNIndex(0, 0, 1))
    a02 = kn_basis_element(cfg2, KNIndex(0, 0, 2))
    w01 = kn_basis_element(cfg2, KNIndex(1, 0, 1))
    assert kn_pairing(cfg2, a01, w01) == Rat(1)
    assert kn_pairing(cfg2, a02, w01) == Rat(0)
    assert kn_pairing(cfg2, a01, section_of(cfg2, 1, RF.zero())) == Rat(0)


def test_pairing_weight_mismatch(cfg2):
    a = kn_basis_element(cfg2, KNIndex(0, 0, 1))
    b = kn_basis_element(cfg2, KNIndex(0, 0, 2))
    with pytest.raises(DomainError, match="weight"):
        kn_pairing(cfg2, a, b)


def test_pairing_equals_minus_residue_at_infinity(cfg2):
    from knwznw.ratfield import residue_at
    f = kn_basis_element(cfg2, KNIndex(0, -2, 1))
    g = kn_basis_element(cfg2, KNIndex(1, 2, 1))
    h = f.value * g.value
    assert kn_pairing(cfg2, f, g) == -residue_at(h, INFINITY)


@pytest.mark.parametrize("n_pts", [1, 2, 3])
def test_duality_grid(n_pts):
    cfg = Config(["0", "1", "-1"][:n_pts])
    for lam in (-1, 0, 1, 2):
        for n in range(-4, 5):
            for m in range(-4, 5):
                for p in range(1, n_pts + 1):
                    for r in range(1, n_pts + 1):
                        v = kn_pairing(
                            cfg,
                            kn_basis_element(cfg, KNIndex(lam, n, p)),
                            kn_basis_element(cfg, KNIndex(1 - lam, m, r)))
                        assert v == (Rat(1) if (m == -n and p == r)
                                     else Rat(0))


def test_expand_basis_element_roundtrip(cfg2):
    s = kn_basis_element(cfg2, KNIndex(0, 2, 1))
    ge = expand_in_basis(cfg2, s)
    assert ge == GradedElement(0, {(2, 1): Rat(1)})


def test_expand_constant(cfg3):
    ge = expand_in_basis(cfg3, section_of(cfg3, 0, RF.one()))
    assert ge == GradedElement(0, {(0, p): Rat(1) for p in (1, 2, 3)})


def test_expand_polynomial(cfg2):
    s = section_of(cfg2, 0, RF(z ** 2 * (z - 1) ** 2))
    ge = expand_in_basis(cfg2, s)
    assert section_from_graded(cfg2, ge).value == s.value
    # evaluation oracle at sample points away from the configuration
    back = section_from_graded(cfg2, ge).value
    for a in (Rat(2), Rat(-3), Rat(1, 2)):
        assert back(a) == s.value(a)


def test_expand_random_combinations(cfg3):
    rng = random.Random(1)
    for lam in (-1, 0, 1, 2):
        terms = {}
        for _ in range(5):
            terms[(rng.randint(-3, 3), rng.randint(1, 3))] = \
                Rat(rng.randint(-4, 4), rng.randint(1, 3))
        ge = GradedElement(lam, terms)
        s = section_from_graded(cfg3, ge)
        if s.is_zero():
            continue
        assert expand_in_basis(cfg3, s) == ge


def test_homogeneous_dimension(cfg3):
    assert homogeneous_dimension(cfg3, -1, 5) == 3
    assert homogeneous_dimension(Config(["0"]), 0, 0) == 1
    assert homogeneous_dimension(Config(["0", "1"]), 2, -4) == 2


@pytest.mark.parametrize("n_pts", [1, 2, 3])
def test_order_book(n_pts):
    cfg = Config(["0", "1", "-1"][:n_pts])
    for lam in (-1, 0, 1, 2):
        for n in range(-3, 4):
            for p in range(1, n_pts + 1):
                rec = kn_basis_record(cfg, KNIndex(lam, n, p))
                for i in range(1, n_pts + 1):
                    want = n - lam if i == p else n - lam + 1
                    assert rec.orders[i] == want
                assert sum(rec.orders.values()) + rec.order_infinity \
                    == -2 * lam


def test_normalization_leading_coefficient(cfg2):
    from knwznw.ratfield import local_expansion
    for lam in (-1, 0, 1, 2):
        for n in (-2, 0, 1):
            for p in (1, 2):
                sec = kn_basis_element(cfg2, KNIndex(lam, n, p))
                o, cs = local_expansion(sec.value, cfg2.point(p), 1)
                assert o == n - lam and cs[0] == Rat(1)


def test_rescaling_covariance(cfg2):
    # first-jet rescaling xi -> a xi turns the normalized element into
    # a^n times itself, leaving all pairing delta relations unchanged
    a1 = Rat(7, 2)
    for lam in (-1, 0, 1, 2):
        for n in (-2, -1, 0, 1, 2):
            for p in (1, 2):
                f = kn_basis_element(cfg2, KNIndex(lam, n, p))
                g = kn_basis_element(cfg2, KNIndex(1 - lam, -n, p))
                fs = section_of(cfg2, lam, f.value * (a1 ** n))
                gs = section_of(cfg2, 1 - lam, g.value * (a1 ** (-n)))
                assert kn_pairing(cfg2, fs, gs) == Rat(1)


def test_point_index_out_of_range(cfg2):
    with pytest.raises(DomainError):
        kn_basis_element(cfg2, KNIndex(0, 0, 3))


def test_cache_coherence(cfg2):
    a = kn_basis_element(cfg2, KNIndex(1, 2, 1))
    b = kn_basis_element(cfg2, KNIndex(1, 2, 1))
    assert a is b  # memoized per configuration


def test_concurrent_construction_is_coherent():
    # same key -> same value under concurrent first access; construction
    # is pure, so racing builders may only agree
    from concurrent.futures import ThreadPoolExecutor

    cfg = Config(["0", "1", "-1"])
    idxs = [KNIndex(lam, n, p) for lam in (-1, 0, 1, 2)
            for n in range(-3, 4) for p in (1, 2, 3)]

    def build(idx):
        return idx, kn_basis_element(cfg, idx).value

    with ThreadPoolExecutor(max_workers=8) as pool:
        seen = {}
        for idx, value in pool.map(build, idxs * 4):
            if idx in seen:
                assert seen[idx] == value
            seen[idx] = value
    fresh = Config(["0", "1", "-1"])
    for idx, value in seen.items():
        assert kn_basis_element(fresh, idx).value == value


# ------------------------------------------------------ solver oracle --
# The order prescription solved as a linear system, independently of the
# closed form the package builds: the numerator q over the denominator
# prod (z - P_i)^max(0, -ord_i) must vanish to the prescribed orders, and
# the order bound at infinity caps deg q.  At genus 0 the first bound
# already gives a one-dimensional space; the loop raising it stays as in
# a general solver.

def _section_space(points, point_orders, lam, m_inf):
    """Numerators (over den) of weight-lam sections with
    ord_{P_i} >= point_orders[i] and section order at infinity >= m_inf."""
    den_exp = {i: max(0, -a) for i, a in point_orders.items()}
    den = Poly((1,))
    for i, e in den_exp.items():
        den = den * (Poly((-points[i - 1], 1)) ** e)
    # section order at inf of q/den dz^lam is (deg den - deg q) - 2 lam
    deg_max = den.degree() - 2 * lam - m_inf
    if deg_max < 0:
        return [], den
    ncols = deg_max + 1
    rows = []
    for i, a in point_orders.items():
        # the first a + den_exp[i] Taylor coefficients of q at P_i vanish
        a_pt = points[i - 1]
        for j in range(a + den_exp[i]):
            rows.append([Rat(comb(t, j)) * a_pt ** (t - j) if t >= j
                         else Rat(0) for t in range(ncols)])
    return [Poly(v) for v in nullspace(rows, ncols)], den


def _solve(points, idx):
    """(value, orders, order at infinity) of the solver's basis element."""
    lam, n, p = idx
    n_pts = len(points)
    point_orders = {i: n - lam if i == p else n - lam + 1
                    for i in range(1, n_pts + 1)}
    m_generic = -n_pts * (n + 1 - lam) - 2 * lam + 1
    for step in range(2 * n_pts + 4):
        nums, den = _section_space(points, point_orders, lam,
                                   m_generic + step)
        if len(nums) == 1:
            break
        assert nums, "no section for %s" % (idx,)
    else:
        raise AssertionError("no unique section for %s" % (idx,))
    value = RF(nums[0], den)
    _, coeffs = local_expansion(value, points[p - 1], 1)
    value = value * (Rat(1) / coeffs[0])
    orders = {i: order_at(value, points[i - 1]) for i in point_orders}
    return value, orders, order_at(value, INFINITY) - 2 * lam


@pytest.mark.parametrize("points", [["1/2"], ["0", "1"],
                                    ["1/2", "-7/3", "5"],
                                    ["1", "2", "3", "-1/4"]])
def test_closed_form_matches_solver(points):
    cfg = Config(points)
    for lam in range(-1, 4):
        for n in range(-5, 6):
            for p in range(1, cfg.n_points + 1):
                rec = kn_basis_record(cfg, KNIndex(lam, n, p))
                value, orders, o_inf = _solve(cfg.points, (lam, n, p))
                assert rec.section.value.num == value.num
                assert rec.section.value.den == value.den
                assert rec.orders == orders
                assert rec.order_infinity == o_inf


def test_divisor_form_is_config_relative():
    # a section is one form on the points it was made for: each
    # configuration expands its own elements, and a Config with the same
    # points is the same configuration
    cfg_a = Config(["0", "1"])
    cfg_b = Config(["0", "1", "-1"])
    s = kn_basis_element(cfg_a, KNIndex(0, -1, 1))
    assert expand_in_basis(cfg_a, s) == GradedElement(0, {(-1, 1): Rat(1)})
    assert expand_in_basis(Config(["0", "1"]), s) == \
        GradedElement(0, {(-1, 1): Rat(1)})
    t = kn_basis_element(cfg_b, KNIndex(0, -1, 3))
    assert expand_in_basis(cfg_b, t) == GradedElement(0, {(-1, 3): Rat(1)})


@pytest.mark.parametrize("other", [["0", "1", "-1"], ["1", "0"]])
@pytest.mark.parametrize("use", ["pairing", "expand", "form"])
def test_section_used_with_another_configuration_raises(other, use):
    cfg = Config(["0", "1"])
    s = kn_basis_element(cfg, KNIndex(0, -1, 1))
    wrong = Config(other)
    with pytest.raises(DomainError, match="used with"):
        if use == "pairing":
            kn_pairing(wrong, s, kn_basis_element(wrong, KNIndex(1, 1, 1)))
        elif use == "expand":
            expand_in_basis(wrong, s)
        else:
            s.form(wrong)


def test_order_at_a_point_that_is_not_marked_raises(cfg2):
    s = kn_basis_element(cfg2, KNIndex(0, -1, 1))
    with pytest.raises(DomainError, match="not a marked point"):
        s.order_at(Rat(7))
