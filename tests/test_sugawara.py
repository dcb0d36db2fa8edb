"""Sugawara operators: coefficients, applications, commutator audits."""

import random

import pytest

from knwznw import Rat
from knwznw._kernel import RAT0, form, merge, rats
from knwznw.basis import Config, GradedElement, KNIndex, kn_basis_element
from knwznw.errors import CriticalLevelError, DomainError
from knwznw.finite_lie import make_algebra
from knwznw import sugawara
from knwznw.modules import ModuleSpec, ModuleVector, induce_module
from knwznw.ratfield import residue_at
from knwznw.sugawara import (SugawaraIndex, T_of_vectorfield,
                             _triple_coefficient, apply_L, apply_L_raw,
                             rescaled_L, sugawara_coefficients,
                             sugawara_commutator_audit, total_degree_band)


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
    for d in (0, -2, -4):
        for mono in fock.slice_basis(d)[:3]:
            v = ModuleVector.monomial(mono)
            for k in (-2, -1, 0, 1, 2):
                assert apply_L(fock, (k, 1), v) == \
                    apply_L(fock, (k, 1), v, extra_margin=3)


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
    module = induce_module(sl2, cfg2, ModuleSpec("weyl", (1, 1), Rat(1), 3))
    for d in (0, -1):
        for mono in module.slice_basis(d)[:4]:
            v = ModuleVector.monomial(mono)
            for idx in ((0, 1), (1, 2), (-1, 1)):
                assert apply_L(module, idx, v) == \
                    apply_L(module, idx, v, tie_swap=True)


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
    sl2, ab = make_algebra("sl2"), make_algebra("abelian1")
    cfg2 = Config(["0", "1"])
    yield induce_module(sl2, cfg2, ModuleSpec("weyl", (1, 1), Rat(1), 4))
    yield induce_module(sl2, Config(["1/2", "-7/3"]),
                        ModuleSpec("weyl", (2, 1), Rat(2), 4))
    yield induce_module(ab, cfg2, ModuleSpec("fock", (Rat(1, 2), Rat(-3)),
                                             Rat(1), 4))
    yield induce_module(sl2, cfg2,
                        ModuleSpec("verma", (Rat(1), Rat(2)), Rat(1), 3, 3))


def test_memoised_images_match_the_direct_oracle():
    rng = random.Random(11)
    compared = 0
    for module in oracle_modules():
        vectors = []
        for _ in range(3):
            v = {}
            for d in (0, -1, -2):
                mono = rng.choice(module.slice_basis(d))
                v[mono] = Rat(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
            vectors.append(v)
        for v in vectors:
            for idx in ((0, 1), (1, 2), (-1, 1), (2, 1)):
                for tie_swap in (False, True):
                    for margin in (0, 3):
                        got = apply_L_raw(module, idx, form(v), tie_swap,
                                          margin)
                        want = direct_apply_L(module, idx, v, tie_swap, margin)
                        # a canonical form is unique, so it is the form
                        # of the oracle's Rat dict
                        assert got == form(want)
                        assert rats(*got) == want
                        compared += bool(want)
    assert compared > 100


def test_each_margin_and_tie_rule_computes_its_own_image(sl2, cfg2):
    module = induce_module(sl2, cfg2, ModuleSpec("weyl", (1, 1), Rat(1), 3))
    mono = module.slice_basis(-1)[0]
    memo = module._sugawara_memo
    unit = (1, {mono: 1})
    apply_L_raw(module, (0, 1), unit)
    assert len(memo) == 1
    plain = memo[((0, 1), False, 0, mono)]
    apply_L_raw(module, (0, 1), unit, extra_margin=3)
    apply_L_raw(module, (0, 1), unit, tie_swap=True)
    assert len(memo) == 3
    assert memo[((0, 1), False, 3, mono)] is not plain
    assert memo[((0, 1), True, 0, mono)] is not plain
    # the memo holds the image as an integer form (D, {monomial: int});
    # a caller gets a fresh nonzero form and may mutate it, the memo never
    # changes
    den, nums = plain
    want = (den, dict(nums))
    out = apply_L_raw(module, (0, 1), unit)
    assert out == want and want[1]
    out[1].clear()
    assert memo[((0, 1), False, 0, mono)] == want
    assert apply_L_raw(module, (0, 1), unit) == want


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
    # the multipoint-centrality module: the audit applies L to vectors whose
    # monomials repeat across the slice basis, so the memo must hold fewer
    # images than apply_L_raw saw input monomials (numerators of its
    # input forms)
    module = induce_module(sl2, cfg2, ModuleSpec("weyl", (1, 1), Rat(1), 4))
    seen = []
    real = sugawara.apply_L_raw

    def counting(module, idx, vec, *args):
        seen.append(len(vec[1]))
        return real(module, idx, vec, *args)

    monkeypatch.setattr(sugawara, "apply_L_raw", counting)
    pairs = [((1, 1), (-1, 2)), ((1, 2), (-1, 1)), ((0, 1), (0, 2))]
    res = sugawara_commutator_audit(cfg2, sl2, module, pairs, [-1, -2])
    assert all(e.is_scalar for e in res)
    assert 2 * len(module._sugawara_memo) < sum(seen)
