"""Sugawara operators: coefficients, applications, commutator audits."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knwznw import Rat, verify
from knwznw.algebras import vf_bracket
from knwznw._kernel import RAT0, form, merge, rats
from knwznw.basis import Config, GradedElement, KNIndex, kn_basis_element
from knwznw.errors import CriticalLevelError, DomainError
from knwznw.finite_lie import make_algebra
from knwznw import sugawara
from knwznw.modules import (InducedModule, ModuleSpec, ModuleVector,
                            PBWMonomial, induce_module, mode_digit)
from knwznw.ratfield import residue_at
from knwznw.sugawara import (SugawaraIndex, T_of_vectorfield,
                             _triple_coefficient, apply_L, apply_L_raw,
                             rescaled_L, sugawara_coefficients,
                             sugawara_commutator_audit, total_degree_band)


def code_form(module, terms):
    """The integer form over the module's codes of a {monomial: Rat}
    dict."""
    return form({module.encode(m): c for m, c in terms.items()})


@pytest.fixture(scope="module")
def sl2():
    return make_algebra("sl2")


@pytest.fixture(scope="module")
def ab():
    return make_algebra("abelian1")


@pytest.fixture(scope="module")
def cfg1():
    return Config(["0"])


@pytest.fixture(scope="module")
def cfg2():
    return Config(["0", "1"])


@pytest.fixture(scope="module")
def fock(ab, cfg1):
    return induce_module(ab, cfg1, ModuleSpec("fock", (RAT0,), Rat(1), 6))


def test_classical_coefficients(cfg1):
    tab = sugawara_coefficients(cfg1, SugawaraIndex(0, 1), (-3, 3))
    for n in range(-5, 6):
        for m in range(-5, 6):
            want = Rat(1) if n + m == 0 else RAT0
            assert tab.coefficient(n, 1, m, 1) == want


def test_band_is_empty_outside_locality(cfg2):
    # totals outside [k, k+1] carry no coefficients
    tab = sugawara_coefficients(cfg2, SugawaraIndex(1, 1), (-2, 4))
    for ((n, p), (m, s)) in tab.entries:
        assert 1 <= n + m <= 2
    assert total_degree_band(cfg2, 1) == (1, 2)


def test_multipoint_entry_matches_direct_residue(cfg2):
    # independent recomputation of one entry from raw rational functions
    k, r, n, p, m, s = -1, 1, 0, 1, 0, 2
    w1 = kn_basis_element(cfg2, KNIndex(1, -n, p)).value
    w2 = kn_basis_element(cfg2, KNIndex(1, -m, s)).value
    e = kn_basis_element(cfg2, KNIndex(-1, k, r)).value
    want = sum((residue_at(w1 * w2 * e, pt) for pt in cfg2.points), RAT0)
    tab = sugawara_coefficients(cfg2, SugawaraIndex(k, r), (k, k + 1))
    assert tab.coefficient(n, p, m, s) == want
    assert want == Rat(-1)  # 1/(z_1 - z_2) with z = (0, 1)


def test_fock_l0_spectrum(fock):
    for d in range(0, 5):
        for mono in fock.slice_basis(-d):
            v = ModuleVector.monomial(mono)
            assert apply_L(fock, (0, 1), v) == v.scale(Rat(d))


def test_vacuum_annihilation(fock, sl2, cfg1):
    assert apply_L(fock, (1, 1), fock.vacuum_vector()).is_zero()
    assert apply_L(fock, (2, 1), fock.vacuum_vector()).is_zero()
    weyl = induce_module(sl2, cfg1, ModuleSpec("weyl", (1,), Rat(1), 4))
    for k in (1, 2, 3):
        assert apply_L(weyl, (k, 1), weyl.vacuum_vector()).is_zero()


def test_fock_vacuum_weight(ab, cfg1):
    # charged vacuum: L_0 vac = lambda^2/2 vac
    f = induce_module(ab, cfg1, ModuleSpec("fock", (Rat(3),), Rat(1), 3))
    v = f.vacuum_vector()
    assert apply_L(f, (0, 1), v) == v.scale(Rat(9, 2))


def test_summation_bound_stability(fock):
    # the oracle sums three modes past the bound on each side; the extra
    # terms annihilate the vector, so the engine's image is unchanged
    for d in (0, -2, -4):
        for mono in fock.slice_basis(d)[:3]:
            v = ModuleVector.monomial(mono)
            for k in (-2, -1, 0, 1, 2):
                assert apply_L(fock, (k, 1), v) == ModuleVector(
                    direct_apply_L(fock, (k, 1), v.terms, extra_margin=3))


def test_rescale_factor(fock, sl2, cfg1, ab):
    v = ModuleVector.monomial(fock.slice_basis(-1)[0])
    assert rescaled_L(fock, (0, 1), v) == v.scale(Rat(-1))
    weyl = induce_module(sl2, cfg1, ModuleSpec("weyl", (0,), Rat(1), 4))
    w = ModuleVector.monomial(weyl.slice_basis(-1)[0])
    assert rescaled_L(weyl, (0, 1), w) == \
        apply_L(weyl, (0, 1), w).scale(Rat(-1, 3))
    crit = induce_module(sl2, cfg1, ModuleSpec("weyl", (0,), Rat(-2), 2))
    with pytest.raises(CriticalLevelError):
        rescaled_L(crit, (0, 1), crit.vacuum_vector())


def test_T_of_vectorfield_collapse(fock):
    v = ModuleVector.monomial(fock.slice_basis(-2)[1])
    l = GradedElement.unit(-1, 1, 1)
    assert T_of_vectorfield(fock, l, v) == rescaled_L(fock, (1, 1), v)
    assert T_of_vectorfield(fock, GradedElement(-1, {}), v).is_zero()
    combo = GradedElement(-1, {(1, 1): Rat(2), (-1, 1): Rat(-3)})
    want = rescaled_L(fock, (1, 1), v).scale(Rat(2)) \
        + rescaled_L(fock, (-1, 1), v).scale(Rat(-3))
    assert T_of_vectorfield(fock, combo, v) == want


def test_tie_swap_is_identity_at_genus_zero(sl2, cfg2):
    # the engine writes no tie rule: the oracle's two orders of a
    # degree-0 pair give its one image, at either oracle margin
    module = induce_module(sl2, cfg2, ModuleSpec("weyl", (1, 1), Rat(1), 3))
    for d in (0, -1):
        for mono in module.slice_basis(d)[:4]:
            v = {mono: Rat(1)}
            for idx in ((0, 1), (1, 2), (-1, 1)):
                got = module.decode_form(*apply_L_raw(
                    module, idx, code_form(module, v)))
                for margin in (0, 3):
                    for tie_swap in (False, True):
                        assert got == direct_apply_L(module, idx, v,
                                                     tie_swap, margin)


def test_audit_classical_charges(cfg1, ab, sl2):
    fock = induce_module(ab, cfg1, ModuleSpec("fock", (RAT0,), Rat(1), 5))
    res = sugawara_commutator_audit(cfg1, ab, fock,
                                     [((2, 1), (-2, 1))], [-2])
    assert res[0].is_scalar and res[0].ratio == Rat(1)
    weyl1 = induce_module(sl2, cfg1, ModuleSpec("weyl", (0,), Rat(1), 5))
    res = sugawara_commutator_audit(cfg1, sl2, weyl1,
                                     [((2, 1), (-2, 1))], [-2])
    assert res[0].is_scalar and res[0].ratio == Rat(1)
    weyl2 = induce_module(sl2, cfg1, ModuleSpec("weyl", (0,), Rat(2), 5))
    res = sugawara_commutator_audit(cfg1, sl2, weyl2,
                                     [((2, 1), (-2, 1))], [-2])
    assert res[0].is_scalar and res[0].ratio == Rat(3, 2)


def test_audit_of_the_readme_configuration(sl2):
    # points 0, 1, -1, weights (1, 1, 1), level 1: the ratio of the
    # central scalar to chi is the Sugawara central charge
    # level dim(sl2) / (level + dual Coxeter number) = 1 * 3 / (1 + 2)
    cfg = Config(["0", "1", "-1"])
    level = 1
    module = induce_module(sl2, cfg, ModuleSpec("weyl", (1, 1, 1),
                                                Rat(level), 4))
    (entry,) = sugawara_commutator_audit(cfg, sl2, module,
                                         [((2, 1), (-2, 1))], [0, -1])
    assert entry.is_scalar and sorted(entry.per_slice) == [-1, 0]
    assert entry.ratio == Rat(level * 3, level + 2) == Rat(1)


def test_audit_nonpaired_index_gives_zero_scalar(cfg1, ab):
    fock = induce_module(ab, cfg1, ModuleSpec("fock", (RAT0,), Rat(1), 5))
    res = sugawara_commutator_audit(cfg1, ab, fock,
                                     [((1, 1), (-2, 1))], [-2])
    # k + m != 0: the difference must vanish identically on the window
    assert res[0].is_scalar and res[0].scalar == RAT0
    assert res[0].ratio is None  # chi vanishes off the diagonal


def test_audit_is_exact_below_the_depth(cfg1, ab):
    # the depth bounds no computation: a depth-0 module audits every slice
    fock = induce_module(ab, cfg1, ModuleSpec("fock", (RAT0,), Rat(1), 0))
    res = sugawara_commutator_audit(cfg1, ab, fock, [((2, 1), (-2, 1))],
                                    [0, -1, -2, -3, -4])
    assert res[0].is_scalar and res[0].ratio == Rat(1)
    assert sorted(res[0].per_slice) == [-4, -3, -2, -1, 0]
    with pytest.raises(DomainError, match="slice 1 is empty"):
        sugawara_commutator_audit(cfg1, ab, fock, [((2, 1), (-2, 1))], [1])


def test_audit_refuses_an_empty_slice(sl2):
    # a width-0 verma module holds the vacuum alone: slices -1 and -2 are
    # empty, and an empty slice is no measured scalar 0
    cfg = Config(["0", "1"])
    module = induce_module(sl2, cfg, ModuleSpec("verma", (Rat(1), Rat(1)),
                                                Rat(1), 2, 0))
    assert module.slice_dimension(-1) == module.slice_dimension(-2) == 0
    for window in ([-1, -2], [0, -1], [0, -2]):
        with pytest.raises(DomainError, match="slice -[12] is empty"):
            sugawara_commutator_audit(cfg, sl2, module, [((2, 1), (-2, 1))],
                                      window)
    res = sugawara_commutator_audit(cfg, sl2, module, [((2, 1), (-2, 1))],
                                    [0])
    assert res[0].is_scalar and res[0].per_slice == {0: res[0].scalar}


def test_audit_multipoint(cfg2, sl2):
    module = induce_module(sl2, cfg2, ModuleSpec("weyl", (1, 1), Rat(1), 4))
    pairs = [((1, 1), (-1, 2)), ((0, 1), (0, 2))]
    res = sugawara_commutator_audit(cfg2, sl2, module, pairs, [-1, -2])
    for e in res:
        assert e.is_scalar


def direct_apply_L(module, idx, terms, tie_swap=False, extra_margin=0):
    """L(k, r) term by term, as before the memoised images, kept as an
    oracle: every (coefficient, i) pair of every monomial applies its two
    normal-ordered currents, the dual one as a combination of generators."""
    cfg = module.cfg
    alg = module.alg
    k, r = idx
    t_lo, t_hi = total_degree_band(cfg, k)
    half = Rat(1, 2)
    out = {}
    unit_vecs = [[Rat(1) if a == i else RAT0 for a in range(alg.dim)]
                 for i in range(alg.dim)]

    def apply_op(op, terms):
        n, p, i, which = op
        xvec = unit_vecs[i] if which == "b" else alg.dual_vectors[i]
        res = {}
        for mono, cm in terms.items():
            for j, c in enumerate(xvec):
                if c.num != 0:
                    merge(res, module._act_gen((n, p, j), mono), c * cm)
        return res

    for mono, cm in terms.items():
        dv = mono.degree
        base = {mono: cm}
        for t in range(t_lo, t_hi + 1):
            for n in range(t + dv - extra_margin, -dv + extra_margin + 1):
                m = t - n
                for p in range(1, cfg.n_points + 1):
                    for s in range(1, cfg.n_points + 1):
                        c = _triple_coefficient(cfg, k, r, n, p, m, s)
                        if c.num == 0:
                            continue
                        for i in range(alg.dim):
                            first, second = (n, p, i, "b"), (m, s, i, "d")
                            if (n > 0 and m <= 0) or (m < 0 and n >= 0):
                                first, second = second, first
                            if tie_swap and n == 0 and m == 0:
                                first, second = second, first
                            mid = apply_op(second, base)
                            if mid:
                                merge(out, apply_op(first, mid), c * half)
    return out


def oracle_modules():
    """(module, slices its random vectors are drawn from)."""
    sl2, ab = make_algebra("sl2"), make_algebra("abelian1")
    cfg2 = Config(["0", "1"])
    deep = (0, -1, -2)
    # a slice -3 monomial starts a creation string of three entries, so
    # its image peels two suffixes before the vacuum
    yield (induce_module(sl2, cfg2, ModuleSpec("weyl", (1, 1), Rat(1), 4)),
           deep + (-3,))
    # one configuration at two levels: each image carries its module's
    # level through the current relation, so images or relation plans
    # shared across the configuration would give the level-2 module
    # level-1 terms
    shared = Config(["2", "-1/3"])
    for level in (Rat(1), Rat(2)):
        yield induce_module(sl2, shared,
                            ModuleSpec("weyl", (1, 1), level, 4)), deep
    yield induce_module(sl2, Config(["1/2", "-7/3"]),
                        ModuleSpec("weyl", (2, 1), Rat(2), 4)), deep
    yield induce_module(ab, cfg2, ModuleSpec("fock", (Rat(1, 2), Rat(-3)),
                                             Rat(1), 4)), deep
    yield induce_module(sl2, cfg2, ModuleSpec("verma", (Rat(1), Rat(2)),
                                              Rat(1), 3, 3)), deep
    # three points, so the plans hold triple coefficients of every pair of
    # distinct points
    yield induce_module(sl2, Config(["1/2", "-7/3", "5"]),
                        ModuleSpec("weyl", (1, 0, 1), Rat(3, 2), 1)), (0, -1)
    # the critical levels level + h^v = 0: the relation adds no term, so L
    # commutes with every creation current, here checked against the
    # directly applied term plan
    yield induce_module(sl2, cfg2, ModuleSpec("weyl", (1, 2), Rat(-2), 4)), \
        deep
    yield induce_module(sl2, Config(["1/2", "-7/3", "5"]),
                        ModuleSpec("weyl", (1, 1, 0), Rat(-2), 1)), (0, -1)
    yield induce_module(ab, cfg2, ModuleSpec("fock", (Rat(2), Rat(-1, 3)),
                                             RAT0, 4)), deep


def test_memoised_images_match_the_direct_oracle():
    rng = random.Random(11)
    compared = 0
    for module, slices in oracle_modules():
        vectors = []
        for _ in range(3):
            v = {}
            for d in slices:
                mono = rng.choice(module.slice_basis(d))
                v[mono] = Rat(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
            vectors.append(v)
        for v in vectors:
            for idx in ((0, 1), (1, 2), (-1, 1), (2, 1)):
                got = apply_L_raw(module, idx, code_form(module, v))
                for margin in (0, 3):
                    for tie_swap in (False, True):
                        want = direct_apply_L(module, idx, v, tie_swap, margin)
                        # a canonical form is unique, so it is the form
                        # of the oracle's Rat dict
                        assert got == code_form(module, want)
                        assert module.decode_form(*got) == want
                        compared += bool(want)
    assert compared > 100


rationals = st.builds(Rat, st.integers(-9, 9), st.integers(1, 5))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.sampled_from((2, 3, 1, 4)),
       level=st.sampled_from((Rat(-2), Rat(-1), Rat(1, 3), Rat(1), Rat(2),
                              Rat(5, 2), Rat(3), Rat(-3, 2))),
       data=st.data())
def test_images_match_the_wider_term_plan(n, level, data):
    # the engine's image of one monomial against the term plan of degree
    # d - 3 applied to it directly, at levels -2..3, the critical level -2
    # of sl2 among them
    cfg = Config(data.draw(st.lists(rationals, min_size=n, max_size=n,
                                    unique=True)))
    sl2 = make_algebra("sl2")
    weights = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n,
                                       max_size=n)))
    module = induce_module(sl2, cfg, ModuleSpec("weyl", weights, level))
    d = data.draw(st.sampled_from((-2, -1, 0)))
    mono = data.draw(st.sampled_from(module.slice_basis(d)))
    k = data.draw(st.sampled_from((-2, -1, 0, 1, 2)))
    r = data.draw(st.integers(1, n))
    plan = sugawara._term_plan(cfg, sl2, k, r, d - 3)
    code = module.encode(mono)
    assert apply_L_raw(module, (k, r), (1, {code: 1})) == \
        sugawara._apply_plan(module, plan, code)


def test_normal_ordering_check_reads_both_symmetries(monkeypatch):
    # the check carries the premise of writing no tie rule: c on pairs of
    # total degree 0 and the dual-basis matrix D are symmetric; breaking
    # either one fails it
    check = verify.normal_ordering_equivalence
    assert check()[0]
    real = verify.sugawara_coefficients

    def skewed(cfg, idx, band):
        table = real(cfg, idx, band)
        entries = dict(table.entries)
        # one slot order of a degree-0 pair at P_1, P_2 moves
        key = ((0, 1), (0, 2))
        entries[key] = entries.get(key, RAT0) + Rat(1)
        return sugawara.TripleCoefficientTable(table.k, table.r, entries)

    monkeypatch.setattr(verify, "sugawara_coefficients", skewed)
    assert check() == (False, "tie rule changed the operator")
    monkeypatch.setattr(verify, "sugawara_coefficients", real)
    dual = [list(row) for row in make_algebra("sl2").dual_vectors]
    dual[0][1] = Rat(1)
    skew = SimpleNamespace(dual_vectors=tuple(map(tuple, dual)))
    monkeypatch.setattr(verify, "make_algebra", lambda kind: skew)
    assert check() == (False, "tie rule changed the operator")


def test_audit_counterexample_is_the_difference_vector(sl2, cfg2,
                                                       monkeypatch):
    # without the bracket term the difference is f^2 [L(k,r), L(m,s)],
    # no scalar; the audit reports it, as a Rat vector, on the first
    # monomial where it fails
    module = induce_module(sl2, cfg2, ModuleSpec("weyl", (1, 1), Rat(1), 4))
    monkeypatch.setattr(sugawara, "vf_bracket",
                        lambda cfg, e, f: GradedElement(-1))
    (entry,) = sugawara_commutator_audit(cfg2, sl2, module,
                                         [((1, 1), (-1, 2))], [-1])
    assert not entry.is_scalar
    d, mono, diff = entry.counterexample
    v = ModuleVector.monomial(mono)
    f = sugawara.rescale_factor(sl2, module.level)
    want = (apply_L(module, (1, 1), apply_L(module, (-1, 2), v))
            - apply_L(module, (-1, 2), apply_L(module, (1, 1), v)))
    assert d == -1 and diff == want.scale(f * f) != ModuleVector()


def test_multipoint_audit_reuses_memoised_images(sl2, cfg2, monkeypatch):
    # the multipoint-centrality module: the audit reads the images of
    # monomials that repeat across the slice basis, so the memo must hold
    # fewer images than the audit and the images it builds read monomials
    # (`_image` calls)
    module = induce_module(sl2, cfg2, ModuleSpec("weyl", (1, 1), Rat(1), 4))
    seen = []
    image = sugawara._image

    def counting(module, k, r, mono, degree=None):
        seen.append(mono)
        return image(module, k, r, mono, degree)

    monkeypatch.setattr(sugawara, "_image", counting)
    pairs = [((1, 1), (-1, 2)), ((1, 2), (-1, 1)), ((0, 1), (0, 2))]
    res = sugawara_commutator_audit(cfg2, sl2, module, pairs, [-1, -2])
    assert all(e.is_scalar for e in res)
    memo = module._sugawara_memo
    assert 2 * sum(map(len, memo.values())) < len(seen)
    # each image is computed from the image of its suffix, both memoised
    # under (k, r) and the monomial's code
    mono = module.slice_basis(-1)[0]
    suffix = PBWMonomial(mono.creation[1:], mono.vacuum)
    code, images = module.encode(mono), memo[(0, 1)]
    own, rest = images[code], images[module.encode(suffix)]
    assert own != rest and own[1] and rest[1]
    # the memo holds the image as an integer form (D, {code: int}); a
    # caller gets a fresh nonzero form and may mutate it, the memo never
    # changes
    want = (own[0], dict(own[1]))
    unit = (1, {code: 1})
    out = apply_L_raw(module, (0, 1), unit)
    assert out == want
    out[1].clear()
    assert images[code] == want
    assert apply_L_raw(module, (0, 1), unit) == want


def test_a_carried_degree_gives_the_image_of_the_summed_one(sl2, cfg2,
                                                           monkeypatch):
    # given a monomial's degree, _L_image carries it down the current
    # relation in place of summing creation strings; both ways give one
    # image
    spec = ModuleSpec("weyl", (1, 1), Rat(1), 3)
    carried = induce_module(sl2, cfg2, spec)
    summed = induce_module(sl2, cfg2, spec)
    for d in (0, -1, -2, -3):
        for code in carried._slice_codes(d):
            for k, r in ((1, 1), (-1, 2), (0, 1)):
                assert (sugawara._image(carried, k, r, code, d)
                        == sugawara._image(summed, k, r, code))
    # the relation plans are keyed by the degree of w, so a carried degree
    # off in either direction shows here
    assert carried._relation_plans.keys() == summed._relation_plans.keys()
    # an audit passes its slice's degree: only the images of monomials
    # read from another image sum the modes of their digits, once each
    calls = []
    degree = InducedModule.code_degree
    monkeypatch.setattr(InducedModule, "code_degree",
                        lambda self, code: calls.append(code)
                        or degree(self, code))
    module = induce_module(sl2, cfg2, spec)
    sugawara_commutator_audit(cfg2, sl2, module, [((2, 1), (1, 2))], [-3])
    assert 10 * len(calls) < sum(map(len, module._sugawara_memo.values()))


def test_an_audit_sums_no_creation_string(sl2, cfg2, monkeypatch):
    # the engine reads every degree off codes, so the audit of weyl (1,1)
    # at 0,1 with pair (1,1),(-1,2) on slice -3 reads no monomial's degree
    calls = []
    degree = PBWMonomial.degree
    monkeypatch.setattr(PBWMonomial, "degree", property(
        lambda mono: calls.append(mono) or degree.fget(mono)))
    module = induce_module(sl2, cfg2, ModuleSpec("weyl", (1, 1), Rat(1), 3))
    (entry,) = sugawara_commutator_audit(cfg2, sl2, module,
                                         [((1, 1), (-1, 2))], [-3])
    assert entry.is_scalar and len(calls) == 0


def test_apply_L_raw_adds_into_a_callers_accumulator(sl2, cfg2):
    # given into = (den, acc), apply_L_raw adds a/b L(k, r) vec into it:
    # the sum reads back as acc/den plus a/b times the fresh image, and
    # neither vec nor the memo changes
    module = induce_module(sl2, cfg2, ModuleSpec("weyl", (1, 1), Rat(1), 3))
    m1, m2 = module._slice_codes(-1)[:2]
    vec = (3, {m1: 2, m2: -5})
    fresh = apply_L_raw(module, (0, 1), vec)
    assert fresh[1]
    memo = {op: {code: (den, dict(nums))
                 for code, (den, nums) in images.items()}
            for op, images in module._sugawara_memo.items()}
    want = {m1: Rat(1, 7)}
    merge(want, rats(*fresh), Rat(-4, 9))
    into = (7, {m1: 1})
    got = apply_L_raw(module, (0, 1), vec, into, -4, 9)
    assert got[1] is into[1] and rats(*got) == want
    assert vec == (3, {m1: 2, m2: -5}) and module._sugawara_memo == memo


def test_summation_bounds_fails_on_a_narrowed_window(monkeypatch):
    # the engine's term plans lose the boundary modes of their window:
    # every term with a mode -dv, that is n = -dv or n = t + dv; the
    # check's direct plans of degree d - 3 keep theirs, so the images part
    assert verify.summation_bounds()[0]
    real = sugawara._term_plan

    def narrowed(cfg, alg, k, r, dv):
        # the digits of the generators of mode -dv
        edge = {mode_digit(cfg, alg, (-dv, p, i))
                for p in range(1, cfg.n_points + 1) for i in range(alg.dim)}
        den, terms = real(cfg, alg, k, r, dv)
        kept = ((second, tuple((first, num) for first, num in firsts
                               if not {first, second} & edge))
                for second, firsts in terms)
        return den, tuple((second, firsts) for second, firsts in kept
                          if firsts)

    monkeypatch.setattr(sugawara, "_term_plan", narrowed)
    assert verify.summation_bounds() == (False, "summation bound unstable")


@pytest.mark.parametrize("scalar", [
    lambda module: -module.level,
    lambda module: module.level + module.alg.k_dual,
], ids=["without-h-dual", "sign-flipped"])
def test_summation_bounds_fails_on_a_wrong_relation(monkeypatch, scalar):
    # the engine's images of non-vacuum monomials come from the current
    # relation; the check's weyl module has h^v = 2, so a relation that
    # drops h^v or flips its sign parts its images from the term plan
    # applied directly
    assert verify.summation_bounds()[0]
    monkeypatch.setattr(sugawara, "_relation_scalar", scalar)
    assert verify.summation_bounds() == (False, "summation bound unstable")


def composed_audit(cfg, alg, module, pair, window):
    """(is_scalar, per_slice, counterexample) of the audit of one pair,
    from outside its fused sum: the public `apply_L` composed on Rat
    module vectors, one difference vector per monomial."""
    (k, r), (m, s) = pair
    f = sugawara.rescale_factor(alg, module.level)
    bracket = vf_bracket(cfg, GradedElement.unit(-1, k, r),
                         GradedElement.unit(-1, m, s))
    per_slice = {}
    for d in dict.fromkeys(window):
        sigma = None
        for mono in module.slice_basis(d):
            v = ModuleVector.monomial(mono)
            diff = (apply_L(module, (k, r), apply_L(module, (m, s), v))
                    - apply_L(module, (m, s), apply_L(module, (k, r), v))
                    ).scale(f * f)
            for hu, c in bracket.terms.items():
                diff = diff - apply_L(module, hu, v).scale(f * c)
            got = diff.terms.get(mono, RAT0)
            if sigma is None:
                sigma = got
            if got != sigma or set(diff.terms) - {mono}:
                per_slice[d] = sigma
                return False, per_slice, (d, mono, diff)
        per_slice[d] = sigma
    return len(set(per_slice.values())) == 1, per_slice, None


@settings(derandomize=True, max_examples=12, deadline=None)
@given(points=st.lists(rationals, min_size=2, max_size=3, unique=True),
       data=st.data())
def test_audit_matches_the_composed_rat_path(points, data):
    cfg = Config(points)
    n = cfg.n_points
    sl2 = make_algebra("sl2")
    weights = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n,
                                       max_size=n)))
    module = induce_module(sl2, cfg, ModuleSpec("weyl", weights, Rat(1)))
    window = data.draw(st.sampled_from(((-1,), (-2,), (-1, -2), (-2, -1))))
    # the oracle composes Rat vectors, so its slices stay small
    assume(sum(module.slice_dimension(d) for d in window) <= 150)
    index = st.tuples(st.integers(-2, 2), st.integers(1, n))
    pair = (data.draw(index), data.draw(index))
    (entry,) = sugawara_commutator_audit(cfg, sl2, module, [pair], window)
    assert (entry.is_scalar, entry.per_slice, entry.counterexample) == \
        composed_audit(cfg, sl2, module, pair, window)


def test_a_wrong_memo_image_makes_the_audit_non_scalar(sl2, cfg2):
    # one numerator of one memoised image L_hu(mono), hu a term of the
    # bracket [e_{1,1}, e_{-1,2}], moves by a whole unit: the audit sums
    # the memo in place, so it reports that image's error
    pair = ((1, 1), (-1, 2))
    module = induce_module(sl2, cfg2, ModuleSpec("weyl", (1, 1), Rat(1), 4))
    (entry,) = sugawara_commutator_audit(cfg2, sl2, module, [pair], [-1])
    assert entry.is_scalar
    memo = module._sugawara_memo
    bracket = vf_bracket(cfg2, GradedElement.unit(-1, 1, 1),
                         GradedElement.unit(-1, -1, 2))
    hu, code = next((hu, code) for hu in bracket.terms
                    for code in module._slice_codes(-1) if memo[hu][code][1])
    den, nums = memo[hu][code]
    wrong = dict(nums)
    wrong[next(iter(wrong))] += den
    memo[hu][code] = (den, wrong)
    (entry,) = sugawara_commutator_audit(cfg2, sl2, module, [pair], [-1])
    assert not entry.is_scalar and entry.counterexample is not None


def test_audits_leave_every_memoised_image_unchanged(sl2, cfg2):
    # the audit reads the memo's images in place; a second audit with
    # other pairs, which reads the first one's images again, changes none
    module = induce_module(sl2, cfg2, ModuleSpec("weyl", (1, 1), Rat(1), 4))
    sugawara_commutator_audit(cfg2, sl2, module, [((1, 1), (-1, 2))],
                              [-1, -2])
    memo = module._sugawara_memo
    before = {(op, code): (den, dict(nums)) for op, images in memo.items()
              for code, (den, nums) in images.items()}
    res = sugawara_commutator_audit(
        cfg2, sl2, module, [((-1, 2), (1, 1)), ((1, 1), (0, 2))], [-2, -1])
    assert all(e.is_scalar for e in res)
    assert sum(map(len, memo.values())) > len(before)
    assert all(memo[op][code] == img for (op, code), img in before.items())


@pytest.mark.parametrize("kind,points,weights,width", [
    ("verma", ("0", "1"), (Rat(1), Rat(1, 2)), 2),
    ("weyl", ("1/2", "-7/3", "5"), (1, 1, 2), None),
], ids=["verma-width-2", "weyl-112"])
def test_peeled_images_match_the_wider_term_plan(kind, points, weights,
                                                 width):
    # an image c1.L(w) + [L, c1].w writes each monomial of L(w) whose
    # string is empty or starts at or after c1 with c1 in front, and acts
    # with c1 on the others; both kinds occur, and every image the engine
    # builds on slices 0..-3 equals the term plan of degree d - 3 applied
    # directly (the verma strings hold degree-0 keys)
    cfg = Config(list(points))
    sl2 = make_algebra("sl2")
    module = induce_module(sl2, cfg, ModuleSpec(kind, weights, Rat(1),
                                                width=width))
    acted = set()
    real = module._act_form

    def recording(gen, mono):
        acted.add((gen, mono))
        return real(gen, mono)

    module._act_form = recording
    rng = random.Random(34)
    ops = [(k, r) for k in (-2, 0, 1) for r in range(1, cfg.n_points + 1)]
    for d in (0, -1, -2, -3):
        basis = module._slice_codes(d)
        for code in rng.sample(basis, min(len(basis), 12)):
            for k, r in ops:
                sugawara._image(module, k, r, code, d)
    del module._act_form
    written = peeled = 0
    for (k, r), images in module._sugawara_memo.items():
        for code, img in images.items():
            mono = module.decode(code)
            plan = sugawara._term_plan(cfg, sl2, k, r, mono.degree - 3)
            assert img == sugawara._apply_plan(module, plan, code)
            if not mono.creation:
                continue
            c1 = mono.creation[0]
            w = PBWMonomial(mono.creation[1:], mono.vacuum)
            # acted holds (digit, code) pairs
            digit = mode_digit(cfg, sl2, c1)
            for m2 in images[module.encode(w)][1]:
                string = module.decode(m2).creation
                if not string or c1 <= string[0]:
                    written += (digit, m2) not in acted
                else:
                    peeled += (digit, m2) in acted
    assert written > 100 and peeled > 100
