"""Function/vector-field algebra structure, cocycles, decompositions."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import section_of
from knwznw import Rat, algebras, sugawara, verify
from knwznw._kernel import ZERO_FORM, add_scaled, form, merge, rats
from knwznw.algebras import (ProjectiveConnection,
                             R_ZERO, coboundary_compare, cocycle_chi,
                             cocycle_gamma, grading_report, lie_derivative,
                             multiply, triangular_decompose, vf_bracket,
                             vf_bracket_sum)
from knwznw.basis import (Config, GradedElement, KNIndex, Section,
                          expand_in_basis, kn_basis_element, kn_pairing,
                          linear_combination, monomial_residue,
                          residue_sum)
from knwznw.errors import DomainError
from knwznw.verify import _jacobi_fault
from knwznw.ratfield import INFINITY, Poly, RationalFunction as RF

z = Poly.x()


@pytest.fixture(scope="module")
def cfg1():
    return Config(["0"])


@pytest.fixture(scope="module")
def cfg2():
    return Config(["0", "1"])


def U(lam, n, p=1):
    return GradedElement.unit(lam, n, p)


def test_multiply_unit(cfg2):
    f = GradedElement(0, {(1, 1): Rat(2), (-1, 2): Rat(3)})
    one = GradedElement(0, {(0, 1): Rat(1), (0, 2): Rat(1)})
    assert multiply(cfg2, one, f) == f


def test_multiply_single_point_monomials(cfg1):
    for n in range(-3, 4):
        for m in range(-3, 4):
            assert multiply(cfg1, U(0, n), U(0, m)) == U(0, n + m)


def test_multiply_example_degree_zero_component(cfg2):
    out = multiply(cfg2, U(0, 0, 1), U(0, 0, 2))
    assert out.coefficient(0, 1) == Rat(0)
    assert out.coefficient(0, 2) == Rat(0)
    assert min(out.support_degrees()) >= 0
    # oracle: expand the raw product (1-z) z directly
    assert out == expand_in_basis(cfg2, section_of(cfg2, 0, RF((1 - z) * z)))


def test_virasoro_bracket(cfg1):
    for n in range(-6, 7):
        for m in range(-6, 7):
            out = vf_bracket(cfg1, U(-1, n), U(-1, m))
            want = GradedElement(-1, {(n + m, 1): Rat(m - n)}) \
                if m != n else GradedElement(-1, {})
            assert out == want


def test_bracket_antisymmetry(cfg2):
    e = GradedElement(-1, {(1, 1): Rat(2), (-1, 2): Rat(5)})
    assert vf_bracket(cfg2, e, e).is_zero()


def test_bracket_against_direct_computation(cfg2):
    e = kn_basis_element(cfg2, KNIndex(-1, 0, 1))
    f = kn_basis_element(cfg2, KNIndex(-1, 0, 2))
    direct = e.value * f.value.deriv() - f.value * e.value.deriv()
    assert vf_bracket(cfg2, U(-1, 0, 1), U(-1, 0, 2)) == \
        expand_in_basis(cfg2, section_of(cfg2, -1, direct))


def test_lie_derivative_monomials(cfg1):
    # e_0 = z d/dz on the raw monomial z^m dz^lam gives (m + lam) z^m dz^lam
    for lam in (-1, 0, 1, 2):
        for m in range(-3, 4):
            s = expand_in_basis(cfg1, section_of(cfg1, lam, RF(z) ** m))
            out = lie_derivative(cfg1, U(-1, 0), s)
            assert out == s.scale(Rat(m + lam))
    # on basis elements the eigenvalue is the degree itself
    for lam in (-1, 0, 1, 2):
        for n in range(-3, 4):
            out = lie_derivative(cfg1, U(-1, 0), U(lam, n))
            assert out == U(lam, n).scale(Rat(n))


def test_lie_derivative_zero(cfg2):
    assert lie_derivative(cfg2, U(-1, 1, 2), GradedElement(2, {})).is_zero()


def test_lie_derivative_leibniz(cfg2):
    rng = random.Random(13)
    for _ in range(12):
        e = U(-1, rng.randint(-2, 2), rng.randint(1, 2))
        s = U(0, rng.randint(-2, 2), rng.randint(1, 2))
        t = U(1, rng.randint(-2, 2), rng.randint(1, 2))
        lhs = lie_derivative(cfg2, e, multiply(cfg2, s, t))
        rhs = multiply(cfg2, lie_derivative(cfg2, e, s), t) \
            + multiply(cfg2, s, lie_derivative(cfg2, e, t))
        assert lhs == rhs


def test_lie_module_property(cfg2):
    rng = random.Random(17)
    for _ in range(12):
        e = U(-1, rng.randint(-2, 2), rng.randint(1, 2))
        f = U(-1, rng.randint(-2, 2), rng.randint(1, 2))
        s = U(rng.choice((-1, 0, 1, 2)), rng.randint(-2, 2),
              rng.randint(1, 2))
        lhs = lie_derivative(cfg2, vf_bracket(cfg2, e, f), s)
        rhs = lie_derivative(cfg2, e, lie_derivative(cfg2, f, s)) \
            - lie_derivative(cfg2, f, lie_derivative(cfg2, e, s))
        assert lhs == rhs


def test_gamma_classical(cfg1):
    for n in range(-4, 5):
        for m in range(-4, 5):
            v = cocycle_gamma(cfg1, U(0, n), U(0, m))
            assert v == (Rat(m) if n + m == 0 else Rat(0))


def test_gamma_antisymmetric(cfg2):
    f = GradedElement(0, {(2, 1): Rat(3), (-1, 2): Rat(1)})
    assert cocycle_gamma(cfg2, f, f) == Rat(0)


def test_gamma_block_vanishing(cfg2):
    # functions with poles only at marked points: 1 and (z - P)^(-j)
    fs = [expand_in_basis(cfg2, section_of(cfg2, 0, f))
          for f in (RF.one(), RF(Poly((1,)), z),
                    RF(Poly((1,)), (z - 1) ** 2))]
    for a in fs:
        for b in fs:
            assert cocycle_gamma(cfg2, a, b) == Rat(0)


def test_chi_classical(cfg1):
    for n in range(-6, 7):
        v = cocycle_chi(cfg1, U(-1, n), U(-1, -n))
        assert v == Rat(n ** 3 - n, 12)
    assert cocycle_chi(cfg1, U(-1, 2), U(-1, 1)) == Rat(0)


def test_chi_antisymmetric_and_subalgebra_vanishing(cfg2):
    e = GradedElement(-1, {(2, 1): Rat(1), (1, 2): Rat(-2)})
    assert cocycle_chi(cfg2, e, e) == Rat(0)
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for p in (1, 2):
                for r in (1, 2):
                    assert cocycle_chi(cfg2, U(-1, n, p),
                                       U(-1, m, r)) == Rat(0)
                    assert cocycle_chi(cfg2, U(-1, -n - 1, p),
                                       U(-1, -m - 1, r)) == Rat(0)


def test_chi_connection_pole_rejected(cfg2):
    R = ProjectiveConnection(RF(Poly((1,)), z))
    # a rejected connection is not remembered: every call raises
    for _ in range(2):
        with pytest.raises(DomainError, match="pole at marked point"):
            cocycle_chi(cfg2, U(-1, 0, 1), U(-1, 0, 2), R)


def test_connection_is_validated_once_per_config(monkeypatch):
    # validation reads R's order at the N marked points and at infinity
    # once per (Config, R), not once per unit pair of a report
    calls = []
    real = algebras.order_at

    def counting(f, pt):
        calls.append(pt)
        return real(f, pt)

    monkeypatch.setattr(algebras, "order_at", counting)
    R = ProjectiveConnection(RF(3 + z, 1 + z * z))
    for points in (["0", "1"], ["0", "1", "-1", "2"]):
        cfg = Config(points)
        calls.clear()
        assert grading_report(cfg, "chi", (-2, 2), R).ok
        assert 0 < len(calls) <= cfg.n_points + 1
        cocycle_chi(cfg, U(-1, -1, 1), U(-1, 1, 2), R)
        assert len(calls) <= cfg.n_points + 1


def test_coboundary_trivial(cfg2):
    Rc = ProjectiveConnection(RF.const(4))
    d, w = coboundary_compare(cfg2, U(-1, 1, 1), U(-1, -1, 2), Rc, Rc)
    assert d == Rat(0) and w == Rat(0)


def test_coboundary_classical_value(cfg1):
    # N = 1, R = c constant, pair (e_0, e_{-2}):
    # chi_R - chi_0 = -(c/12) res(c-term) = -c/6 and the witness agrees
    c = Rat(5)
    Rc = ProjectiveConnection(RF.const(c))
    d, w = coboundary_compare(cfg1, U(-1, 0), U(-1, -2), Rc, R_ZERO)
    assert d == w == Rat(-5, 6)
    d2, w2 = coboundary_compare(cfg1, U(-1, 2), U(-1, -2), Rc, R_ZERO)
    assert d2 == w2


def test_coboundary_random_pairs(cfg2):
    rng = random.Random(19)
    Ra = ProjectiveConnection(RF.const(3))
    Rb = ProjectiveConnection(RF(2 - z, (z - 5) * (z - 7)))
    for R in (Ra, Rb):
        for _ in range(25):
            e = U(-1, rng.randint(-3, 3), rng.randint(1, 2))
            f = U(-1, rng.randint(-3, 3), rng.randint(1, 2))
            d, w = coboundary_compare(cfg2, e, f, R, R_ZERO)
            assert d == w


def test_grading_report_classical(cfg1):
    rep = grading_report(cfg1, "A", (-4, 4))
    assert rep.lower_shift == 0 and rep.upper_shift == 0 and rep.ok
    repc = grading_report(cfg1, "chi", (-4, 4))
    assert repc.ok
    assert all(n + m == 0 for ((n, _p), (m, _r)), _v in repc.band_witnesses)


def test_grading_report_two_points(cfg2):
    rep = grading_report(cfg2, "A", (-4, 4))
    assert rep.lower_shift == 0 and rep.upper_shift == 1 and rep.ok
    repl = grading_report(cfg2, "L", (-4, 4))
    assert repl.lower_shift == 0 and repl.upper_shift >= 0 and repl.ok
    repg = grading_report(cfg2, "gamma", (-4, 4))
    assert repg.ok and repg.lower_shift == -1
    repx = grading_report(cfg2, "chi", (-4, 4))
    assert repx.ok and repx.lower_shift >= -2


def test_triangular_decomposition_strips(cfg1, cfg2):
    td1 = triangular_decompose(cfg1, "L", (-4, 4))
    assert td1.strip == [(0, 1)]
    td2 = triangular_decompose(cfg2, "L", (-4, 4))
    assert sorted(td2.strip) == [(-1, 1), (-1, 2), (0, 1), (0, 2)]
    ta = triangular_decompose(cfg2, "A", (-4, 4))
    assert ta.strip == [(0, 1), (0, 2)]
    assert min(n for n, _p in ta.plus) == 1
    assert all(n <= -1 for n, _p in ta.minus)


def test_triangular_window_too_small(cfg2):
    with pytest.raises(DomainError, match="window"):
        triangular_decompose(cfg2, "L", (0, 1))


def test_triangular_order_classification(cfg2):
    td = triangular_decompose(cfg2, "L", (-3, 3))
    for (n, p) in td.plus:
        sec = kn_basis_element(cfg2, KNIndex(-1, n, p))
        assert min(sec.order_at(pt) for pt in cfg2.points) >= 2
    for (n, p) in td.minus:
        sec = kn_basis_element(cfg2, KNIndex(-1, n, p))
        assert sec.order_at(INFINITY) >= 2


# ------------------------------------------------ Jacobi and _bilinear --

def ordered_triple_jacobi(cfg, units):
    """Oracle: the Jacobi check as it ran before, over every ordered
    triple of units, each inner bracket computed afresh."""
    for a in units:
        for b in units:
            ab = vf_bracket(cfg, a, b)
            for c in units:
                s = vf_bracket(cfg, ab, c)
                s = s + vf_bracket(cfg, vf_bracket(cfg, b, c), a)
                s = s + vf_bracket(cfg, vf_bracket(cfg, c, a), b)
                if not s.is_zero():
                    return False
    return True


def _vf_units(n_pts):
    return [U(-1, n, p) for n in range(-3, 4) for p in range(1, n_pts + 1)]


@pytest.mark.parametrize("points", [("0",), ("0", "1")])
def test_alternating_jacobi_agrees_with_the_ordered_triple_oracle(points):
    units = _vf_units(len(points))
    assert ordered_triple_jacobi(Config(points), units)
    assert _jacobi_fault(Config(points), units) is None


def test_a_corrupted_bracket_entry_fails_both_jacobi_checks():
    units = _vf_units(2)
    key = ("lied", (-3, 1), -1, (1, 1))
    seen = Config(("0", "1"))
    vf_bracket(seen, U(-1, -3, 1), U(-1, 1, 1))
    den, nums = seen.cache[key]
    first = next(iter(nums))
    moved = dict(nums)
    moved[first] += den
    dropped = dict(nums)
    del dropped[first]
    for bad in (moved, dropped):
        cfg = Config(("0", "1"))
        cfg.cache[key] = (den, bad)
        assert not ordered_triple_jacobi(cfg, units)
        assert _jacobi_fault(cfg, units) == "Jacobi"


@pytest.mark.parametrize("points", [("0", "1"), ("1/2", "-7/3", "5")])
def test_the_bracket_is_cached_as_the_weight_minus_one_lie_derivative(
        points):
    # one unit entry serves [A_a, A_b] and the Lie derivative of A_b along
    # A_a at weight -1
    cfg = Config(points)
    a, b = (-2, 1), (1, 2)
    e, f = U(-1, *a), U(-1, *b)
    br = vf_bracket(cfg, e, f)
    assert ("lied", a, -1, b) in cfg.cache
    assert not [key for key in cfg.cache if key[0] == "vfbr"]
    size = len(cfg.cache)
    assert lie_derivative(cfg, e, f) == br
    assert len(cfg.cache) == size


def _faulty_lie_derivative(cfg, a, lam, b):
    """`algebras._unit_lie_derivative` with the weights
    (e_s + |lam| e_e) S0 - R0 - |lam| P0, uncached: at lam = -1 the entry
    of e s' + s e' in place of the bracket."""
    (n, p), (m, r) = a, b
    return algebras._rescaled(cfg, p, n + 2, r, m - lam + 1, lam,
                              algebras._unit_base(cfg, p, r),
                              (0, m - lam + 1 + abs(lam) * (n + 2), -1,
                               -abs(lam)))


@pytest.mark.parametrize("check", [verify.lie_module,
                                   verify.cocycle_identities,
                                   verify.classical_virasoro,
                                   verify.vector_field_jacobi])
def test_a_wrong_bracket_entry_fails_the_checks_that_read_it(monkeypatch,
                                                             check):
    assert check()[0] is True
    for ns in (algebras, sugawara, verify):
        monkeypatch.setattr(ns, "_unit_lie_derivative",
                            _faulty_lie_derivative)
    assert check()[0] is False


@pytest.mark.parametrize("points", [("0", "1", "-1"), ("1/2", "-7/3", "5")])
def test_packed_jacobi_holds_at_three_points(points):
    # rows and inner brackets of several denominators, scaled to one each
    assert _jacobi_fault(Config(points), _vf_units(3)) is None


def test_packed_rows_build_only_the_entries_the_triples_read():
    # the rows are built where a triple reads them: the same unit entries
    # as summing each triple's outer brackets through vf_bracket_sum
    units = _vf_units(3)
    packed, summed = Config(("0", "1", "-1")), Config(("0", "1", "-1"))
    assert _jacobi_fault(packed, units) is None
    forms = [form(u.terms) for u in units]
    br = {(i, j): vf_bracket_sum(summed, ((a, b),))
          for i, a in enumerate(forms) for j, b in enumerate(forms)}
    for i, j, k in itertools.combinations(range(len(forms)), 3):
        vf_bracket_sum(summed, ((br[i, j], forms[k]), (br[j, k], forms[i]),
                                (br[k, i], forms[j])))
    assert set(packed.cache) == set(summed.cache)


@pytest.mark.parametrize("points", [("0", "1", "-1"), ("1/2", "-7/3", "5")])
@pytest.mark.parametrize("fault", ["moved", "dropped", "moved far"])
def test_a_corrupted_entry_fails_the_packed_jacobi_check(points, fault):
    # the packed triple sums read the planted entry both as an inner
    # bracket and in their rows; a numerator moved by 10^40 den also
    # widens the slots
    units = _vf_units(3)
    key = ("lied", (-3, 1), -1, (1, 1))
    seen = Config(points)
    vf_bracket(seen, U(-1, -3, 1), U(-1, 1, 1))
    den, nums = seen.cache[key]
    first = next(iter(nums))
    bad = dict(nums)
    if fault == "dropped":
        del bad[first]
    else:
        bad[first] += den * (10 ** 40 if fault == "moved far" else 1)
    cfg = Config(points)
    cfg.cache[key] = (den, bad)
    assert _jacobi_fault(cfg, units) == "Jacobi"


@pytest.mark.parametrize("w", [2, 9, 52])
def test_a_single_nonzero_slot_packs_to_a_nonzero_int(w):
    # rows at the width bound that cancel in every column but one: the
    # packed sum is that column's value in its slot, never 0
    top = 2 ** (w - 1) - 1
    cols = "abcde"
    slot = {key: s for s, key in enumerate(cols)}
    for key in (cols[0], cols[-1]):
        for v in (top, -top):
            row = {c: top if s % 2 else -top for s, c in enumerate(cols)}
            row[key] = v
            back = {c: -x for c, x in row.items() if c != key}
            packed = verify._pack(row, slot, w) + verify._pack(back, slot, w)
            assert packed != 0
            assert packed == verify._pack({key: v}, slot, w)


def test_packing_is_zero_exactly_on_the_zero_vector():
    # every vector of three 3-bit slots with entries in (-4, 4)
    slot = {0: 0, 1: 1, 2: 2}
    for vals in itertools.product(range(-3, 4), repeat=3):
        assert (verify._pack(dict(enumerate(vals)), slot, 3) == 0) == (
            not any(vals))


def test_a_multi_term_unit_is_refused():
    units = [U(-1, 0), GradedElement(-1, {(1, 1): Rat(1), (2, 1): Rat(2)})]
    with pytest.raises(DomainError):
        _jacobi_fault(Config(("0",)), units)


def _bilinear_raw_unsigned(f, g, unit_fn, antisymmetric=False, into=None):
    """`algebras._bilinear_raw` with the minus sign of a reversed pair
    dropped."""
    fd, fn = f
    gd, gn = g
    den, out = into or (1, {})
    e = fd * gd
    for a, ca in fn.items():
        for b, cb in gn.items():
            if antisymmetric and a >= b:
                if a == b:
                    continue
                d, nums = unit_fn(b, a)
            else:
                d, nums = unit_fn(a, b)
            den = add_scaled(den, out, d, nums, ca * cb, e)
    return den, out


def test_a_fold_without_its_sign_fails_the_pair_table(monkeypatch):
    # the outer brackets of the triple sums fold their own signs; the pair
    # table, read through _bilinear_raw, is what sees a wrong fold
    monkeypatch.setattr(algebras, "_bilinear_raw", _bilinear_raw_unsigned)
    assert _jacobi_fault(Config(("0", "1")), _vf_units(2)) == "antisymmetry"
    assert verify.vector_field_jacobi()[0] is False


rationals = st.builds(Rat, st.integers(-9, 9), st.integers(1, 5))


@st.composite
def vector_fields(draw, n_pts):
    """A weight -1 combination of two to four units, degrees in -4..4."""
    keys = st.tuples(st.integers(-4, 4), st.integers(1, n_pts))
    return GradedElement(-1, draw(st.dictionaries(keys, rationals,
                                                  min_size=2, max_size=4)))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data(),
       points=st.lists(rationals, min_size=1, max_size=4, unique=True))
def test_raw_bracket_is_the_rat_bracket_on_integer_forms(data, points):
    # vf_bracket_sum of one pair is the core of vf_bracket without its Rat
    # boundary: read back through rats it is the Rat bracket, canonical
    cfg = Config(points)
    e = data.draw(vector_fields(cfg.n_points))
    f = data.draw(vector_fields(cfg.n_points))
    den, nums = vf_bracket_sum(cfg, ((form(e.terms), form(f.terms)),))
    assert den > 0 and all(nums.values()) and gcd(den, *nums.values()) == 1
    assert rats(den, nums) == vf_bracket(cfg, e, f).terms


@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data(),
       points=st.lists(rationals, min_size=1, max_size=4, unique=True))
def test_bracket_sum_is_the_sum_of_the_rat_brackets(data, points):
    # vf_bracket_sum adds every bracket into one accumulator: read back
    # through rats it is the sum of the Rat brackets, in canonical form,
    # and a pair followed by its reverse cancels to the zero form
    cfg = Config(points)
    fields = vector_fields(cfg.n_points)
    pairs = data.draw(st.lists(st.tuples(fields, fields), min_size=1,
                               max_size=3))
    want = {}
    for e, f in pairs:
        merge(want, vf_bracket(cfg, e, f).terms)
    forms = [(form(e.terms), form(f.terms)) for e, f in pairs]
    got = vf_bracket_sum(cfg, forms)
    assert got == form(want) and rats(*got) == want
    e, f = forms[0]
    assert vf_bracket_sum(cfg, ((e, f), (f, e))) == ZERO_FORM


def _ref_form(cfg, lam, a):
    return kn_basis_element(cfg, KNIndex(lam, *a)).form(cfg)


def ref_unit_form(cfg, kind, lam_a, a, lam_b, b):
    """The form of a unit entry, built directly from the basis forms for
    the given ordered pair (no symmetry folded, no cache)."""
    fa, fb = _ref_form(cfg, lam_a, a), _ref_form(cfg, lam_b, b)
    if kind == "prod":
        return fa * fb
    if kind == "vfbr":
        return linear_combination(cfg.points, ((Rat(1), fa * fb.deriv()),
                                               (Rat(-1), fb * fa.deriv())))
    return linear_combination(cfg.points, ((Rat(1), fa * fb.deriv()),
                                           (Rat(lam_b), fa.deriv() * fb)))


def ref_bilinear(cfg, kind, f, g):
    """Reference for algebras._bilinear: each unit entry expanded as a
    GradedElement, then a Rat product and a Rat sum per term."""
    lam = {"prod": f.lam + g.lam, "vfbr": -1, "lied": g.lam}[kind]
    out = {}
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            unit = expand_in_basis(cfg, Section(
                lam, ref_unit_form(cfg, kind, f.lam, a, g.lam, b)))
            for k, v in unit.terms.items():
                out[k] = out.get(k, Rat(0)) + ca * cb * v
    return GradedElement(lam, out)


def _random_element(rng, lam, n_pts, size=3):
    terms = {}
    while len(terms) < size:
        num = rng.choice([x for x in range(-9, 10) if x])
        terms[(rng.randint(-2, 2), rng.randint(1, n_pts))] = \
            Rat(num, rng.randint(1, 7))
    return GradedElement(lam, terms)


# N = 1, 2, 3 and 4 points, most with denominators > 1
BILINEAR_POINTS = [("3/2",), ("-1/3", "5/2"), ("0", "1", "-1"),
                   ("1/2", "-7/3", "5"), ("2/3", "-1", "1/4", "3")]


@pytest.mark.parametrize("points", BILINEAR_POINTS)
def test_bilinear_matches_the_rat_by_rat_reference(points):
    cfg = Config(points)
    rng = random.Random(47)
    n = len(points)
    cases = [("prod", multiply, 0, 0), ("prod", multiply, 0, 1),
             ("prod", multiply, 1, -1), ("vfbr", vf_bracket, -1, -1)]
    cases += [("lied", lie_derivative, -1, lam) for lam in (-1, 0, 1, 2)]
    for kind, op, lam_f, lam_g in cases:
        for _ in range(2):
            f = _random_element(rng, lam_f, n)
            g = _random_element(rng, lam_g, n)
            assert op(cfg, f, g) == ref_bilinear(cfg, kind, f, g), (kind, f, g)
        if lam_f == lam_g:
            # shared terms: diagonal pairs and both orders of a pair
            g = f.scale(Rat(-3, 5)) + _random_element(rng, lam_g, n, size=1)
            assert op(cfg, f, g) == ref_bilinear(cfg, kind, f, g), (kind, f)
        # degree lam - 1: A = c (z - P_p)^-1 with exponent 0 at every other
        # point, where the derivative identity has no term
        f = GradedElement(lam_f, {(lam_f - 1, 1): Rat(2, 3),
                                  (lam_f - 1, n): Rat(-5), (1, 1): Rat(1)})
        g = GradedElement(lam_g, {(lam_g - 1, n): Rat(7, 2),
                                  (lam_g - 1, 1): Rat(1), (-1, n): Rat(3)})
        assert op(cfg, f, g) == ref_bilinear(cfg, kind, f, g), (kind, f, g)


@pytest.mark.parametrize("points", [("0", "1", "-1", "2"),
                                    ("1/2", "-7/3", "5")])
def test_chi_connection_part_matches_the_bracket_form_residue(points):
    cfg = Config(points)
    rv = RF(3 + z, 1 + z * z)
    units = [(n, p) for n in range(-4, 3) for p in range(1, len(points) + 1)]
    for a in units:
        for b in units:
            if a < b:
                br = algebras._bracket_form(cfg, _ref_form(cfg, -1, a),
                                            _ref_form(cfg, -1, b))
                assert algebras._chi_connection_part(cfg, a, b, rv) == \
                    residue_sum(cfg, rv, br), (a, b)


def ref_grading_report(cfg, algebra, window, R=R_ZERO):
    """The graded-element loop `grading_report` ran before it read the
    unit entries directly, kept as its reference."""
    lo, hi = window
    pairs = [(n, p, m, r) for n in range(lo, hi + 1)
             for m in range(lo, hi + 1) for p in range(1, cfg.n_points + 1)
             for r in range(1, cfg.n_points + 1)]
    witnesses, violations = [], []
    if algebra in ("A", "L"):
        lam = 0 if algebra == "A" else -1
        op = multiply if algebra == "A" else vf_bracket
        lower = upper = None
        for n, p, m, r in pairs:
            out = op(cfg, U(lam, n, p), U(lam, m, r))
            if out.is_zero():
                continue
            degs = out.support_degrees()
            lo_shift, hi_shift = degs[0] - (n + m), degs[-1] - (n + m)
            if lo_shift < 0:
                violations.append(((n, p), (m, r), degs))
            if lower is None or lo_shift < lower:
                lower = lo_shift
            if upper is None or hi_shift > upper:
                upper = hi_shift
                witnesses = [(((n, p), (m, r)), degs)]
            elif hi_shift == upper and len(witnesses) < 4:
                witnesses.append((((n, p), (m, r)), degs))
        return algebras.AlmostGradingReport(algebra, window, lower or 0,
                                            upper or 0, witnesses, violations)
    lower = 0
    for n, p, m, r in pairs:
        if algebra == "gamma":
            v = cocycle_gamma(cfg, U(0, n, p), U(0, m, r))
        else:
            v = cocycle_chi(cfg, U(-1, n, p), U(-1, m, r), R)
        if v.num == 0:
            continue
        if n + m > 0:
            violations.append(((n, p), (m, r), v))
        if n + m < lower:
            lower = n + m
            witnesses = [(((n, p), (m, r)), v)]
        elif len(witnesses) < 4:
            witnesses.append((((n, p), (m, r)), v))
    return algebras.AlmostGradingReport(algebra, window, lower, 0,
                                        witnesses, violations)


REPORT_POINTS = [("0",), ("1/2", "-7/3"), ("0", "1", "-1"),
                 ("2/3", "-1", "1/4", "5/2")]
R_OFF_POINTS = ProjectiveConnection(RF(3 + z, 1 + z * z))


@pytest.mark.parametrize("points", REPORT_POINTS)
def test_grading_report_matches_the_graded_element_reference(points):
    window = (-3, 2)
    for kind, R in (("A", R_ZERO), ("L", R_ZERO), ("gamma", R_ZERO),
                    ("chi", R_ZERO), ("chi", R_OFF_POINTS)):
        got = grading_report(Config(points), kind, window, R)
        want = ref_grading_report(Config(points), kind, window, R)
        assert got == want, (points, kind)
        assert got.band_witnesses and not got.violations


def test_grading_report_reads_violations_off_the_unit_entries():
    # a corrupted unit entry breaks the grading in both reports alike
    a, b = (1, 1), (1, 2)
    entries = {"A": (("prod", (0, 0), a, b), (1, {(0, 1): 1})),
               "L": (("lied", a, -1, b), (1, {(-1, 2): 3})),
               "gamma": (("gammau", a, b), Rat(1)),
               "chi": (("chiu", a, b, R_OFF_POINTS.value), Rat(-2))}
    for kind, (key, value) in entries.items():
        reports = []
        for report in (grading_report, ref_grading_report):
            cfg = Config(["0", "1"])
            cfg.cache[key] = value
            reports.append(report(cfg, kind, (-2, 2), R_OFF_POINTS))
        assert reports[0] == reports[1], kind
        assert ((1, 1), (1, 2)) == reports[0].violations[0][:2], kind


def test_grading_report_validates_the_connection_once():
    bad = ProjectiveConnection(RF(3 + z, z - 1))
    with pytest.raises(DomainError, match="pole at marked point P_2"):
        grading_report(Config(["0", "1"]), "chi", (-1, 1), bad)
    # gamma ignores R, as the graded-element loop did
    assert grading_report(Config(["0", "1"]), "gamma", (-1, 1), bad).ok


def _product_pairing(cfg, lam, x, y, w):
    """The pairing of A^0_x A^lam_y, a monomial section but not a basis
    element, with A^(1-lam)_w."""
    fx = kn_basis_element(cfg, KNIndex(0, *x)).form(cfg)
    fy = kn_basis_element(cfg, KNIndex(lam, *y)).form(cfg)
    return kn_pairing(cfg, Section(lam, fx * fy),
                      kn_basis_element(cfg, KNIndex(1 - lam, *w)))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data(),
       points=st.lists(rationals, min_size=2, max_size=4, unique=True))
def test_permuting_the_points_relabels_every_table(data, points):
    # the basis, pairing, unit entries and cocycles know a marked point only
    # by its coordinate: listing the points in another order relabels the
    # point indices and changes nothing else
    perm = data.draw(st.permutations(range(len(points))))
    cfg = Config(points)
    moved = Config([points[i] for i in perm])
    to_cfg = lambda a: (a[0], perm[a[1] - 1] + 1)
    relabel = lambda f: (f[0], {to_cfg(k): x for k, x in f[1].items()})
    units = [(n, p) for n in range(-2, 3) for p in range(1, len(points) + 1)]
    for a, b in data.draw(st.lists(st.tuples(st.sampled_from(units),
                                             st.sampled_from(units)),
                                   min_size=3, max_size=3)):
        for lam in (0, 2):
            for w in units:
                assert _product_pairing(moved, lam, a, b, w) == \
                    _product_pairing(cfg, lam, to_cfg(a), to_cfg(b),
                                     to_cfg(w)), (a, b, w, lam)
        assert relabel(algebras._unit_product(moved, (0, 1), a, b)) == \
            algebras._unit_product(cfg, (0, 1), to_cfg(a), to_cfg(b))
        for lam in (-1, 0, 2):
            assert relabel(algebras._unit_lie_derivative(moved, a, lam, b)) \
                == algebras._unit_lie_derivative(cfg, to_cfg(a), lam,
                                                 to_cfg(b))
        for lam, cocycle in ((0, cocycle_gamma), (-1, cocycle_chi)):
            assert cocycle(moved, U(lam, *a), U(lam, *b)) == \
                cocycle(cfg, U(lam, *to_cfg(a)), U(lam, *to_cfg(b)))


def _fraction(x):
    return Fraction(x.num, x.den)


def _ref_residue_combination(c, terms, residue):
    """The Rat loop of the residue combinations restated in Fractions:
    c sum_j w_j residue(k_j) over (w_j, k_j) in terms."""
    out = Fraction(0)
    for w, k in terms:
        out += _fraction(residue(k)) * w
    return out * Fraction(*c)


def _random_points(rng, n_pts):
    points = set()
    while len(points) < n_pts:
        points.add(Rat(rng.randint(-9, 9), rng.randint(1, 4)))
    return sorted(points)


@pytest.mark.parametrize("seed", [3701, 3702, 3703, 3704])
def test_integer_residue_sums_match_the_fraction_loop(seed):
    rng = random.Random(seed)
    cfg = Config(_random_points(rng, rng.randint(1, 4)))
    rv = RF(3 + z, 1 + z * z)
    R = ProjectiveConnection(rv)
    units = [(n, p) for n in range(-3, 3) for p in range(1, cfg.n_points + 1)]
    for _ in range(12):
        a, b = rng.sample(units, 2)
        c, ka, kb = algebras._unit_pair(cfg, 0, a, 0, b)
        want = _ref_residue_combination(
            c, algebras._lowered(ka, kb, kb),
            lambda k: monomial_residue(cfg, k))
        assert _fraction(algebras._unit_gamma(cfg, a, b)) == want, (a, b)
        want = _ref_residue_combination(
            *algebras._lie_terms(cfg, a, -1, b),
            lambda k: algebras._connection_residue(cfg, k, rv))
        assert _fraction(algebras._chi_connection_part(cfg, a, b, rv)) == \
            want, (a, b)
    for _ in range(3):
        f, g = (_random_element(rng, 0, cfg.n_points, 4) for _ in "fg")
        e, h = (_random_element(rng, -1, cfg.n_points, 4) for _ in "eh")
        want = sum((_fraction(algebras._unit_gamma(cfg, x, y) * cx * cy)
                    for x, cx in f.terms.items()
                    for y, cy in g.terms.items()), Fraction(0))
        assert _fraction(cocycle_gamma(cfg, f, g)) == want
        want = sum((_fraction(algebras._unit_chi(cfg, x, y, R) * cx * cy)
                    for x, cx in e.terms.items()
                    for y, cy in h.terms.items()), Fraction(0))
        assert _fraction(cocycle_chi(cfg, e, h, R)) == want
