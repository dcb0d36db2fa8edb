"""Induced modules: slices, exact action, truncation, coinvariants."""

import functools
import random
from collections import Counter
from itertools import product
from math import gcd
from time import perf_counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import section_of
from knwznw import Rat, verify
from knwznw._kernel import RAT0, RAT1, ZERO_FORM, merge, rats
from knwznw.affine import (AffineElement, _block_expansions, affine_bracket,
                           block_algebra_basis)
from knwznw.basis import Config
from knwznw.errors import DomainError, TruncationOverflow
from knwznw.finite_lie import factor_op, make_algebra
from knwznw.modules import (MODE_BOUND, InducedModule, ModuleSpec,
                            ModuleVector, PBWMonomial, _relation_span,
                            degree_zero_coinvariant_dimension,
                            induce_module, mode_digit)
from knwznw.sugawara import sugawara_commutator_audit

E, H, F = 0, 1, 2


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
def weyl11(sl2, cfg2):
    return induce_module(sl2, cfg2, ModuleSpec("weyl", (1, 1), Rat(1), 4))


@pytest.fixture(scope="module")
def fock(ab, cfg1):
    return induce_module(ab, cfg1, ModuleSpec("fock", (RAT0,), Rat(1), 6))


def test_spec_validation(ab, cfg1):
    with pytest.raises(DomainError):
        ModuleSpec("coherent", (1,), Rat(1), 3)
    with pytest.raises(DomainError):
        ModuleSpec("verma", (Rat(1),), Rat(1), 3)  # width required
    with pytest.raises(DomainError):
        induce_module(make_algebra("sl2"), cfg1,
                      ModuleSpec("fock", (RAT0,), Rat(1), 2))
    # a width bounds verma strings only
    for kind, weights in (("weyl", (1,)), ("fock", (RAT0,))):
        for width in (0, 1, 10 ** 9):
            with pytest.raises(DomainError, match="verma modules only"):
                ModuleSpec(kind, weights, Rat(1), 2, width)


@pytest.mark.parametrize("args, message", [
    (("coherent", (1,), Rat(1)), "unknown module kind 'coherent'"),
    (("weyl", (1,), Rat(1), -1), "depth bound must be >= 0"),
    (("verma", (Rat(1),), Rat(1), 3), "verma induction requires a width"),
    (("fock", (RAT0,), Rat(1), 2, 3), "a width bound applies to verma"),
])
def test_spec_is_checked_when_constructed(args, message):
    # the spec refuses itself, with no induce_module call
    with pytest.raises(DomainError, match=message):
        ModuleSpec(*args)


def test_spec_is_immutable():
    spec = ModuleSpec("verma", (Rat(1),), Rat(1), 2, width=3)
    assert spec == ModuleSpec("verma", (Rat(1),), Rat(1), depth=2, width=3)
    for field in ("kind", "weights", "level", "depth", "width"):
        with pytest.raises(AttributeError):
            setattr(spec, field, None)
    with pytest.raises(AttributeError):
        spec.extra = 1  # no instance dict to hold it
    assert (spec.depth, spec.width) == (2, 3)


def test_slice_dimensions_weyl(sl2, cfg1):
    m = induce_module(sl2, cfg1, ModuleSpec("weyl", (1,), Rat(1), 4))
    assert m.slice_dimension(0) == 2
    # one negative key per (g-index), three colors: colored partitions
    assert m.slice_dimension(-1) == 3 * 2
    assert m.slice_dimension(-2) == (3 + 6) * 2


def test_slice_dimensions_fock(fock):
    # partitions of d (single color)
    assert [fock.slice_dimension(-d) for d in range(7)] == \
        [1, 1, 2, 3, 5, 7, 11]


def test_slice_dimensions_tensor(weyl11):
    assert weyl11.slice_dimension(0) == 4
    assert weyl11.slice_dimension(-1) == 6 * 4


def test_verma_slices(sl2, cfg1):
    m = induce_module(sl2, cfg1, ModuleSpec("verma", (Rat(1),), Rat(1), 2, 3))
    # degree-0 strings: powers of f(0,1) up to the width bound
    assert m.slice_dimension(0) == 4
    deg0 = [mono.creation for mono in m.slice_basis(0)]
    assert () in deg0 and ((0, 1, F),) in deg0
    assert ((0, 1, F), (0, 1, F), (0, 1, F)) in deg0
    # degree -1 strings: one negative key plus degree-0 tails
    assert all(mono.degree == -1 for mono in m.slice_basis(-1))
    assert m.slice_dimension(-1) == 3 * 3  # 3 negative keys x <=2 zero tails


def test_slice_dimension_counts_the_slice(sl2, ab, cfg1, cfg2, weyl11, fock):
    # the partition count the CLI bounds audits with, against enumeration
    modules = [weyl11, fock,
               induce_module(sl2, Config(["0", "1", "-1"]),
                             ModuleSpec("weyl", (1, 1, 1), Rat(1))),
               induce_module(ab, cfg2, ModuleSpec("fock", (Rat(1), RAT0),
                                                  Rat(1)))]
    for width in (0, 1, 2, 3):
        for cfg in (cfg1, cfg2):
            weights = (Rat(1),) * cfg.n_points
            modules.append(induce_module(sl2, cfg, ModuleSpec(
                "verma", weights, Rat(1), 2, width)))
    for m in modules:
        for d in range(1, -5, -1):
            assert m.slice_dimension(d) == len(m.slice_basis(d)), \
                (m.spec, d)
    # README's module: slice -4 holds 8 * 1,035 monomials
    assert modules[2].slice_dimension(-4) == 8280
    assert modules[2].slice_dimension(-5) == 30024


def test_slice_dimension_does_not_grow_with_width(sl2, cfg1):
    # a verma string's degree-zero tails are counted in closed form, not
    # by a table as wide as the width bound
    verma = induce_module(sl2, cfg1, ModuleSpec("verma", (Rat(1),), Rat(1),
                                                0, 10 ** 9))
    # degree 0: f(0,1)^j for j <= width; degree -1: three negative keys,
    # each with a tail of at most width - 1 entries
    assert verma.slice_dimension(0) == 10 ** 9 + 1
    assert verma.slice_dimension(-1) == 3 * 10 ** 9


def test_pbw_monomial_contract(weyl11):
    # two monomials built independently are equal and hash alike; sorting
    # follows (creation, vacuum); repr and degree read the string
    ops = [(-2, 1, E), (-1, 2, H)]
    a = PBWMonomial(tuple(ops), 1)
    b = PBWMonomial((tuple(ops[:1]) + ((-1, 2, H),)), 1)
    assert a == b and hash(a) == hash(b) and a is not b
    assert {a: 1}[b] == 1
    assert (a.creation, a.vacuum) == (tuple(ops), 1)
    assert a.degree == -3 and PBWMonomial((), 0).degree == 0
    assert repr(a) == "[x0(-2,1) x1(-1,2)|w1]"
    assert repr(PBWMonomial((), 0)) == "[|w0]"
    basis = weyl11.slice_basis(-2)
    shuffled = random.Random(3).sample(basis, len(basis))
    assert sorted(shuffled) == sorted(
        basis, key=lambda m: (m.creation, m.vacuum))
    assert PBWMonomial(((-1, 1, E),), 3) < PBWMonomial(((-1, 1, H),), 0)
    assert PBWMonomial(((-1, 1, E),), 0) < PBWMonomial(((-1, 1, E),), 1)


def test_level_action(weyl11, fock):
    t = AffineElement.center()
    v = ModuleVector.monomial(weyl11.slice_basis(-1)[0])
    assert weyl11.act(t, v) == v
    f2 = induce_module(fock.alg, fock.cfg,
                       ModuleSpec("fock", (RAT0,), Rat(5, 2), 2))
    assert f2.act(t, f2.vacuum_vector()) == \
        f2.vacuum_vector().scale(Rat(5, 2))


def test_annihilation(weyl11):
    v = weyl11.vacuum_vector(0)
    for n in (1, 2, 3):
        for p in (1, 2):
            for i in range(3):
                assert weyl11.act(AffineElement.loop_term(i, n, p), v) \
                    .is_zero()


def test_classical_associativity_oracle(sl2, cfg1):
    # (e ot z^-1)(f ot 1) vac = [e ot z^-1, f ot 1] vac + (f ot 1)(e ot z^-1) vac
    m = induce_module(sl2, cfg1, ModuleSpec("weyl", (1,), Rat(1), 3))
    v = m.vacuum_vector(0)
    a = AffineElement.loop_term(E, -1, 1)
    b = AffineElement.loop_term(F, 0, 1)
    lhs = m.act(a, m.act(b, v))
    br = affine_bracket(cfg1, sl2, a, b)
    rhs = m.act(br, v) + m.act(b, m.act(a, v))
    assert lhs == rhs


def test_representation_property_weyl(weyl11, cfg2, sl2):
    rng = random.Random(31)
    for _ in range(25):
        def rnd():
            e = AffineElement()
            for _j in range(2):
                e = e + AffineElement.loop_term(
                    rng.randrange(3), rng.randint(-1, 1),
                    rng.randint(1, 2), Rat(rng.randint(-2, 2)))
            return e
        a, b = rnd(), rnd()
        v = ModuleVector.monomial(rng.choice(weyl11.slice_basis(-1)))
        br = affine_bracket(cfg2, sl2, a, b)
        lhs = ModuleVector(weyl11._act_affine_raw(br, v.terms))
        r1 = ModuleVector(weyl11._act_affine_raw(
            a, weyl11._act_affine_raw(b, v.terms)))
        r2 = ModuleVector(weyl11._act_affine_raw(
            b, weyl11._act_affine_raw(a, v.terms)))
        assert lhs == r1 - r2


def test_representation_property_fock(fock, cfg1, ab):
    rng = random.Random(32)
    for _ in range(25):
        def rnd():
            e = AffineElement()
            for _j in range(2):
                e = e + AffineElement.loop_term(
                    0, rng.randint(-2, 2), 1, Rat(rng.randint(-2, 2)))
            return e
        a, b = rnd(), rnd()
        v = ModuleVector.monomial(rng.choice(fock.slice_basis(-2)))
        br = affine_bracket(cfg1, ab, a, b)
        lhs = ModuleVector(fock._act_affine_raw(br, v.terms))
        r1 = ModuleVector(fock._act_affine_raw(
            a, fock._act_affine_raw(b, v.terms)))
        r2 = ModuleVector(fock._act_affine_raw(
            b, fock._act_affine_raw(a, v.terms)))
        assert lhs == r1 - r2


def test_admissibility(weyl11):
    for d in (0, -1, -2):
        for mono in weyl11.slice_basis(d):
            n0 = -d + 1
            for n in range(n0, n0 + 4):
                for p in (1, 2):
                    for i in range(3):
                        assert not weyl11._act_gen((n, p, i), mono)


def test_a_nonzero_annihilator_fails_admissibility(monkeypatch):
    # x_(1,2,f) acts on every vacuum monomial as the identity in place of
    # zero: a positive mode above slice 0 no longer annihilates it
    assert verify.admissibility()[0]
    real = InducedModule._vacuum_action

    def wrong(self, gen, vac):
        if self.generator(gen) == (1, 2, F):
            return 1, {vac: 1}
        return real(self, gen, vac)

    monkeypatch.setattr(InducedModule, "_vacuum_action", wrong)
    assert verify.admissibility() == (False, "not admissible at (0, 1, 2, 2)")


def test_a_wrong_vacuum_action_entry_fails_weyl_degree_zero(monkeypatch):
    # one entry of the degree-0 action on the vacuum codes, h(0,1) on
    # vacuum 0 (the weight, 1), moves by one
    assert verify.weyl_degree_zero()[0]
    real = InducedModule._vacuum_action
    moved = []

    def wrong(self, gen, vac):
        out = real(self, gen, vac)
        if self.generator(gen) == (0, 1, H) and vac == 0:
            assert out == (1, {0: 1})
            moved.append(vac)
            return 1, {0: 2}
        return out

    monkeypatch.setattr(InducedModule, "_vacuum_action", wrong)
    assert verify.weyl_degree_zero() == (False, "degree-0 action mismatch")
    assert moved == [0]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), kind=st.sampled_from(("weyl", "fock", "verma")),
       n=st.integers(1, 4), d=st.integers(-4, 0))
def test_the_codec_round_trips_and_keeps_the_tuple_order(sl2, ab, data,
                                                         kind, n, d):
    # every slice monomial survives encode and decode; digits order the
    # generators as tuples do; peel, prepend and the degree read off a
    # code are the tuple operations; a mode past the bound is refused
    cfg = Config([str(x) for x in range(n)])
    alg = ab if kind == "fock" else sl2
    width = data.draw(st.integers(0, 3)) if kind == "verma" else None
    weights = tuple(data.draw(st.integers(0, 1)) if kind == "weyl"
                    else Rat(data.draw(st.integers(-3, 3))) for _ in range(n))
    module = induce_module(alg, cfg, ModuleSpec(kind, weights, Rat(1),
                                                width=width))
    assume(module.slice_dimension(d) <= 1500)
    basis, codes = module.slice_basis(d), module._slice_codes(d)
    assert len(basis) == len(set(codes)) == module.slice_dimension(d)
    assert [module.encode(m) for m in basis] == codes
    assert [module.decode(c) for c in codes] == basis
    gens = [(m, p, i) for m in (-MODE_BOUND, -2, -1, 0, 1, MODE_BOUND)
            for p in range(1, n + 1) for i in range(alg.dim)]
    digits = [mode_digit(cfg, alg, g) for g in gens]
    assert digits == sorted(digits) and len(set(digits)) == len(gens)
    assert [module.generator(x) for x in digits] == gens
    keys = module.creation_keys(-2)
    for mono, code in zip(basis[:20], codes):
        c1, w = module._peel(code)
        assert module.code_degree(code) == mono.degree
        if mono.creation:
            assert module.generator(c1) == mono.creation[0]
            assert module.decode(w) == PBWMonomial(mono.creation[1:],
                                                   mono.vacuum)
            assert module._prepend(c1, w) == code
        else:
            assert (c1, w) == (0, code)
        for gen in keys:
            if not mono.creation or gen <= mono.creation[0]:
                got = module._prepend(mode_digit(cfg, alg, gen), code)
                assert module.decode(got) == PBWMonomial(
                    (gen,) + mono.creation, mono.vacuum)
    for bad in ((MODE_BOUND + 1, 1, 0), (-MODE_BOUND - 1, n, 0)):
        with pytest.raises(DomainError, match=r"\|n\| <= 127 \(MODE_BOUND"):
            mode_digit(cfg, alg, bad)
        with pytest.raises(DomainError, match="MODE_BOUND"):
            module.encode(PBWMonomial((bad,), 0))


def test_degree_zero_matches_finite_module(weyl11):
    basis0 = weyl11.slice_basis(0)
    index = {m: i for i, m in enumerate(basis0)}
    for p in (1, 2):
        for i in range(3):
            got = [[RAT0] * 4 for _ in range(4)]
            for col, mono in enumerate(basis0):
                for m2, c in weyl11._act_gen((0, p, i), mono).items():
                    got[index[m2]][col] = c
            want = factor_op(weyl11.factors, p - 1,
                             weyl11.factors[p - 1].entries[i])
            assert got == [list(r) for r in want]


def generator_bracket(module, a, b):
    """[a, b] of two single generators (n, p, i) by the general
    `affine_bracket`, independently of `InducedModule._bracket_form`: the
    loop terms as ((n, p, i), c) and the central term times the level."""
    br = affine_bracket(module.cfg, module.alg,
                        AffineElement.loop_term(a[2], a[0], a[1]),
                        AffineElement.loop_term(b[2], b[0], b[1]))
    return ([((n, p, i), c) for (i, n, p), c in br.loop.items()],
            br.central * module.level)


def test_bracket_forms_match_the_affine_bracket(sl2, ab):
    # the structure-constant form against the general bracket, at rational
    # points and a fractional level, so loop and central parts both show
    cfg = Config(["1/2", "-7/3", "5"])
    modules = [
        induce_module(sl2, cfg, ModuleSpec("weyl", (1, 1, 2), Rat(3, 2))),
        induce_module(ab, cfg, ModuleSpec("fock", (Rat(1),) * 3, Rat(2, 3)))]
    seen = Counter()
    for module in modules:
        gens = [(n, p, i) for n in (-2, -1, 0, 1, 2) for p in (1, 2, 3)
                for i in range(module.alg.dim)]
        for a, b in product(gens, repeat=2):
            loop, central = generator_bracket(module, a, b)
            want = dict(loop)
            if central.num != 0:
                want[None] = central
            got = rats(*module._bracket_form(digit(module, a),
                                             digit(module, b)))
            # None keys the central part
            assert {g if g is None else module.generator(g): c
                    for g, c in got.items()} == want
            seen["loop"] += bool(loop)
            seen["central"] += central.num != 0
        assert len(module._bracket_memo) == len(gens) ** 2
    assert seen["loop"] > 1000 and seen["central"] > 100


def digit(module, gen):
    return mode_digit(module.cfg, module.alg, gen)


def vacuum_action(module, gen, vac):
    """`InducedModule._vacuum_action` of a generator (n, p, i) through the
    codec, its integer form read as {monomial: Rat}."""
    return {module.decode(c): v for c, v
            in rats(*module._vacuum_action(digit(module, gen), vac)).items()}


def is_creation(module, gen):
    """Whether gen = (n, p, i) creates: n <= -1, or a degree-0 lowering
    generator of a verma module."""
    n, _p, i = gen
    return n <= -1 or (n == 0 and module.spec.kind == "verma"
                       and i in module.alg.minus_indices)


def rat_act_gen(module, gen, mono, memo):
    """The action of one generator on a monomial by the normal-ordering
    recursion summed in Rat, kept as an oracle for the integer forms of
    `InducedModule._act_form`: gen.(c1.rest) = c1.(gen.rest) +
    [gen, c1].rest, memoised in `memo`."""
    key = (gen, mono)
    hit = memo.get(key)
    if hit is not None:
        return hit
    creation = mono.creation
    if not creation:
        res = vacuum_action(module, gen, mono.vacuum)
    elif is_creation(module, gen) and gen <= creation[0]:
        res = {PBWMonomial((gen,) + creation, mono.vacuum): RAT1}
    else:
        rest = PBWMonomial(creation[1:], mono.vacuum)
        c1 = creation[0]
        res = {}
        for m2, c in rat_act_gen(module, gen, rest, memo).items():
            merge(res, rat_act_gen(module, c1, m2, memo), c)
        loop, central = generator_bracket(module, gen, c1)
        for gen2, cb in loop:
            merge(res, rat_act_gen(module, gen2, rest, memo), cb)
        if central.num != 0:
            merge(res, {rest: central})
    memo[key] = res
    return res


def test_integer_action_matches_the_rat_recursion(sl2, ab):
    cfg = Config(["1/2", "-7/3", "5"])
    modules = [
        induce_module(sl2, cfg, ModuleSpec("weyl", (1, 1, 2), Rat(3, 2))),
        induce_module(ab, cfg, ModuleSpec("fock", (Rat(1, 2), Rat(-7, 3),
                                                   Rat(5)), Rat(2, 3))),
        induce_module(sl2, Config(["1/2", "-7/3"]),
                      ModuleSpec("verma", (Rat(1, 2), Rat(3)), Rat(-5, 4),
                                 2, 3)),
    ]
    compared = widened = 0
    for module in modules:
        memo = {}
        gens = [(n, p, i) for n in range(-2, 3)
                for p in range(1, module.cfg.n_points + 1)
                for i in range(module.alg.dim)]
        for d in (0, -1):
            for mono in module.slice_basis(d):
                for gen in gens:
                    want = rat_act_gen(module, gen, mono, memo)
                    got = module._act_gen(gen, mono)
                    assert got == want, (gen, mono)
                    compared += bool(want)
                    key = module.encode(mono) << module._dbits | digit(
                        module, gen)
                    widened += module._act_memo[key][0] > 1
    assert compared > 3000 and widened > 1000


def assert_canonical(form):
    den, nums = form
    assert den > 0
    if not nums:
        assert form is ZERO_FORM
        return
    assert all(x != 0 for x in nums.values())
    assert gcd(den, *nums.values()) == 1


def test_memoised_forms_are_canonical(sl2):
    # a multipoint-centrality-sized audit, at rational points and level so
    # that denominators other than 1 and 2 occur
    for points, level in ((["0", "1"], Rat(1)), (["1/2", "-7/3"], Rat(3, 2))):
        cfg = Config(points)
        module = induce_module(sl2, cfg, ModuleSpec("weyl", (1, 1), level))
        pairs = [((1, 1), (-1, 2)), ((1, 2), (-1, 1)), ((0, 1), (0, 2))]
        res = sugawara_commutator_audit(cfg, sl2, module, pairs, [-1, -2])
        assert all(e.is_scalar for e in res)
        images = [img for memo in module._sugawara_memo.values()
                  for img in memo.values()]
        for forms in (list(module._act_memo.values()), images):
            assert len(forms) > 1000
            zeros = 0
            for form in forms:
                assert_canonical(form)
                zeros += not form[1]
            assert zeros > 0


def test_act_below_the_depth_is_exact(weyl11):
    # the depth bounds no computation: an image below -depth is returned
    deep = ModuleVector.monomial(weyl11.slice_basis(-4)[0])
    a = (AffineElement.loop_term(E, -1, 1)
         + AffineElement.loop_term(F, 2, 2, Rat(3)))
    got = weyl11.act(a, deep)
    assert got.degrees()[0] == -5
    assert got == ModuleVector(weyl11._act_affine_raw(a, deep.terms))


def test_width_overflow_is_loud(sl2, cfg1):
    m = induce_module(sl2, cfg1, ModuleSpec("verma", (Rat(1),), Rat(1), 2, 2))
    mono = PBWMonomial(((0, 1, F), (0, 1, F)), 0)
    with pytest.raises(TruncationOverflow) as ei:
        m.act(AffineElement.loop_term(F, 0, 1), ModuleVector.monomial(mono))
    assert ei.value.lost_widths == (3,)


def test_degree_zero_action_past_the_width_bound(sl2):
    # f(0,1) lengthens the strings of length 3 past the width bound
    m = induce_module(sl2, Config(["0", "1"]),
                      ModuleSpec("verma", (Rat(2), RAT0), Rat(1), 2, 3))
    with pytest.raises(TruncationOverflow) as ei:
        m.degree_zero_action(1, F)
    assert ei.value.lost_widths == (4,)
    m.degree_zero_action(1, E)  # e never lengthens a string: no raise


def test_reduce_degree_zero_unchanged(weyl11):
    v = weyl11.vacuum_vector(2)
    assert weyl11.coinvariant_reduce(v) == v


def test_reduce_single_mode_fock(fock):
    # u ot (z - 0)^{-1} is itself a block generator, so u(-1,1) vac dies
    v = ModuleVector(fock._act_affine_raw(
        AffineElement.loop_term(0, -1, 1), fock.vacuum_vector().terms))
    assert fock.coinvariant_reduce(v).is_zero()


def test_reduce_diagonal_action(weyl11, cfg2, sl2):
    # x ot 1 = sum_p x ot A_{0,p} acts by the diagonal tensor action and
    # is already a degree-0 representative (its class is zero)
    from knwznw.basis import expand_in_basis
    from knwznw.ratfield import RationalFunction as RF
    one = expand_in_basis(cfg2, section_of(cfg2, 0, RF.one()))
    xa = AffineElement({(E, n, p): c for (n, p), c in one.terms.items()})
    v = weyl11.vacuum_vector(3)
    img = weyl11.act(xa, v)
    red = weyl11.coinvariant_reduce(img)
    assert red == img  # degree-0 representative is already reduced
    # and it matches the diagonal finite-dimensional action
    D = factor_op(weyl11.factors, 0, weyl11.factors[0].entries[E])
    D2 = factor_op(weyl11.factors, 1, weyl11.factors[1].entries[E])
    want = {}
    for m2, c in img.terms.items():
        want[m2.vacuum] = c
    col = 3
    for r in range(4):
        expect = D[r][col] + D2[r][col]
        assert want.get(r, RAT0) == expect


def reference_rules(module, pole_bound):
    """Rewriting rules of the block algebra: each leading pole (-j, p)
    maps to the other terms (n, p2, c) of the basis expansion of
    (z - P_p)^-j, whose leading coefficient must be 1."""
    rules = {}
    for p, j, _f, exp in _block_expansions(module.cfg, pole_bound):
        if j == 0:
            continue
        assert exp.coefficient(-j, p) == RAT1, "expansion not normalized"
        rest = [(n, pp, c) for (n, pp), c in exp.items()
                if (n, pp) != (-j, p)]
        assert all(n > -j for n, _pp, _c in rest), "no unique leader"
        rules[(-j, p)] = tuple(rest)
    return rules


# the one row of every monomial that reduces to zero; never mutated
_ZERO_ROW = {}


class _Reduction:
    """Degree-0 rows of monomials modulo the block algebra, memoised: the
    block rewriting that `InducedModule.coinvariant_reduce` replaced by
    the degree-0 part, kept as a reference that never assumes the
    genus-0 argument.

    A row is a dict {monomial: Rat} over the degree-0 slice, plus any
    monomial left without a rule; the rows of monomials that reduce to
    zero are all the shared `_ZERO_ROW`.  Rows are never mutated once
    memoised.  `row(m)` is the representative of m: m itself when its
    leading entry has degree >= 0 or no rule, else that entry x_(n,p,i)
    is rewritten through the block generator
    x (x) (z - P_p)^n = x_(n,p,i) + sum c2 x_(n2,p2,i), all n2 > n, so
    row(m) = -sum c2 act_row(x_(n2,p2,i), rest).  `act_row(g, m)` is the
    row of g.m; it follows the normal ordering of `InducedModule._act_gen`
    without building the dict g.m itself.  Total degree rises strictly
    with each rewrite, so the recursion ends.
    """

    __slots__ = ("module", "rules", "rows", "act_rows")

    def __init__(self, module, rules):
        self.module = module
        # leading entry (n, p, i) -> the terms (x_(n2,p2,i), -c2) of its rule
        self.rules = {(n, p, i): tuple(((n2, p2, i), -c2)
                                       for n2, p2, c2 in rule)
                      for (n, p), rule in rules.items()
                      for i in range(module.alg.dim)}
        self.rows = {}
        self.act_rows = {}

    def row(self, mono):
        hit = self.rows.get(mono)
        if hit is not None:
            return hit
        creation = mono.creation
        rule = self.rules.get(creation[0]) if creation else None
        if rule is None:
            res = {mono: RAT1}
        else:
            rest = PBWMonomial(creation[1:], mono.vacuum)
            acc = {}
            for gen, c in rule:
                r = self.act_row(gen, rest)
                if r:
                    merge(acc, r, c)
            res = acc or _ZERO_ROW
        self.rows[mono] = res
        return res

    def act_row(self, gen, mono):
        key = (gen, mono)
        hit = self.act_rows.get(key)
        if hit is not None:
            return hit
        module = self.module
        creation = mono.creation
        if not creation:
            acc = {}
            for m2, c in vacuum_action(module, gen, mono.vacuum).items():
                merge(acc, self.row(m2), c)
            res = acc or _ZERO_ROW
        elif is_creation(module, gen) and gen <= creation[0]:
            res = self.row(PBWMonomial((gen,) + creation, mono.vacuum))
        else:
            rest = PBWMonomial(creation[1:], mono.vacuum)
            c1 = creation[0]
            acc = {}
            for m2, c in module._act_gen(gen, rest).items():
                r = self.act_row(c1, m2)
                if r:
                    merge(acc, r, c)
            loop, central = generator_bracket(module, gen, c1)
            for gen2, cb in loop:
                r = self.act_row(gen2, rest)
                if r:
                    merge(acc, r, cb)
            if central.num != 0:
                merge(acc, self.row(rest), central)
            res = acc or _ZERO_ROW
        self.act_rows[key] = res
        return res


@functools.lru_cache(maxsize=4)
def reference_reduction(module, pole_bound):
    return _Reduction(module, reference_rules(module, pole_bound))


def reference_reduce(module, v, pole_bound):
    """v modulo the block algebra by rewriting, as (vector, status): the
    status is 'budget-exhausted' when a monomial whose leading pole is
    deeper than pole_bound, and so has no rule, is left over."""
    reduction = reference_reduction(module, pole_bound)
    acc = {}
    for m, c in v.terms.items():
        merge(acc, reduction.row(m), c)
    stuck = any(m.creation and m.creation[0][0] < 0 for m in acc)
    return (ModuleVector(acc),
            "budget-exhausted" if stuck else "reduced-to-degree-0")


def pass_batch_reduce(module, v, pole_bound):
    """The level-by-level block rewriting, kept as an oracle.  Each pass
    takes the lowest-degree monomials whose leading entry has a rule,
    rewrites that entry through its rule and normal-orders the result.
    It goes on past monomials without a rule, so that its vector can be
    compared then too.  Its rules come from the basis expansions of the
    block generators (z - P_p)^-j directly."""
    rules = {}
    for p, j, _f, exp in _block_expansions(module.cfg, pole_bound):
        if j:
            assert exp.coefficient(-j, p) == RAT1
            rules[(-j, p)] = [(n, pp, c) for (n, pp), c in exp.items()
                              if (n, pp) != (-j, p)]
    terms = dict(v.terms)

    def leader(m):
        return m.creation[0][:2] if m.creation else (0, 0)

    while True:
        pending = [m for m in terms if leader(m)[0] < 0]
        ready = [m for m in pending if leader(m) in rules]
        if not ready:
            return ModuleVector(terms), ("budget-exhausted" if pending
                                         else "reduced-to-degree-0")
        dmin = min(m.degree for m in ready)
        for m in [m for m in ready if m.degree == dmin]:
            c = terms.pop(m)
            rest = PBWMonomial(m.creation[1:], m.vacuum)
            i = m.creation[0][2]
            for n2, p2, c2 in rules[leader(m)]:
                merge(terms, module._act_gen((n2, p2, i), rest), -c * c2)


def oracle_modules():
    sl2, ab = make_algebra("sl2"), make_algebra("abelian1")
    cfg2, cfg3 = Config(["0", "1"]), Config(["0", "1", "-1"])
    yield induce_module(sl2, cfg2, ModuleSpec("weyl", (1, 2), Rat(1), 4))
    yield induce_module(sl2, cfg2, ModuleSpec("weyl", (2, 2), Rat(2), 4))
    yield induce_module(sl2, cfg3, ModuleSpec("weyl", (1, 1, 2), Rat(1), 4))
    yield induce_module(sl2, Config(["1/2", "-7/3", "5"]),
                        ModuleSpec("weyl", (2, 1, 1), Rat(1), 4))
    yield induce_module(ab, cfg2, ModuleSpec("fock", (Rat(1, 2), Rat(-3)),
                                             Rat(1), 4))
    yield induce_module(sl2, cfg2,
                        ModuleSpec("verma", (Rat(1), Rat(2)), Rat(1), 4, 3))


def test_reduce_matches_the_pass_batch_oracle():
    # At pole bound = depth every reachable leader has a rule, and the
    # rewriting ends in the degree-0 part, which is `coinvariant_reduce`.
    # At pole bound 2 leaders at degree -3 have no rule and survive, which
    # makes the rules' coefficients and every bracket term visible in the
    # vectors of the memoised reference rewriting.
    rng = random.Random(5)
    seen = Counter()
    for module in oracle_modules():
        depth = module.spec.depth
        gens = block_algebra_basis(module.cfg, module.alg, depth)
        images = []
        for d in (0, -1, -2, -3):
            slice_d = module.slice_basis(d)
            us = [u for u in gens if u.pole_order - d <= depth]
            for _ in range(6):
                u, w = rng.choice(us), rng.choice(slice_d)
                images.append(ModuleVector(module._act_affine_raw(
                    u.as_affine(), {w: RAT1})))
        for _ in range(8):
            v = ModuleVector()
            for img in rng.sample(images, 3):
                v = v + img.scale(Rat(rng.randint(-3, 3), rng.randint(1, 3)))
            deg = rng.choice((-1, -2, -3))
            v = v + ModuleVector.monomial(rng.choice(module.slice_basis(deg)))
            images.append(v)
        for v in images:
            want = pass_batch_reduce(module, v, depth)
            assert want[1] == "reduced-to-degree-0"
            assert module.coinvariant_reduce(v) == want[0]
            assert reference_reduce(module, v, depth) == want
            got = reference_reduce(module, v, 2)
            assert got == pass_batch_reduce(module, v, 2)
            seen[got[1]] += 1
    assert seen["budget-exhausted"] > 30
    # a lone monomial whose leading pole is deeper than the pole bound
    fock = induce_module(make_algebra("abelian1"), Config(["0"]),
                         ModuleSpec("fock", (RAT0,), Rat(1), 6))
    deep = ModuleVector.monomial(fock.slice_basis(-3)[0])
    got = reference_reduce(fock, deep, 2)
    assert got == (deep, "budget-exhausted")
    assert got == pass_batch_reduce(fock, deep, 2)
    assert fock.coinvariant_reduce(deep).is_zero()


def test_coinvariant_dimension_stabilizes(sl2):
    # the registry check coinvariant-clebsch-gordan covers (1,1,1), (2,2)
    # and others; this is a one-dimensional block space
    cfg3 = Config(["0", "1", "-1"])
    m = induce_module(sl2, cfg3, ModuleSpec("weyl", (1, 1, 0), Rat(1), 3))
    assert degree_zero_coinvariant_dimension(m) == 1


def test_relations_past_the_width_bound_raise(sl2):
    # the relations of this verma module reach degree-0 strings of length 3
    m = induce_module(sl2, Config(["0", "1"]),
                      ModuleSpec("verma", (Rat(1), Rat(1)), Rat(1), 2, 2))
    with pytest.raises(TruncationOverflow) as ei:
        degree_zero_coinvariant_dimension(m)
    assert ei.value.lost_widths == (3,)


def sl2_invariant_count(weights):
    """Multiplicity of the trivial sl2 module in the tensor product of the
    irreducibles V_w: (# states of h-weight 0) - (# of h-weight 2)."""
    sums = Counter(sum(hs) for hs in
                   product(*(range(-w, w + 1, 2) for w in weights)))
    return sums[0] - sums[2]


CG_CASES = [((1, 1), 2), ((2, 2), 2), ((1, 1, 2), 2), ((2, 2, 2), 2),
            ((1, 1, 1, 1), 1), ((2, 1, 1, 2), 1)]


@pytest.mark.parametrize("weights, depth", CG_CASES, ids=[
    "weights%s-depth%d" % ("".join(map(str, w)), d) for w, d in CG_CASES])
def test_coinvariant_dimension_is_the_clebsch_gordan_count(sl2, weights,
                                                          depth):
    cfg = Config(["0", "1", "-1", "2"][:len(weights)])
    m = induce_module(sl2, cfg, ModuleSpec("weyl", weights, Rat(1), depth))
    assert degree_zero_coinvariant_dimension(m) == \
        sl2_invariant_count(weights)


rationals = st.builds(Rat, st.integers(-9, 9), st.integers(1, 5))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data(), n=st.one_of(st.integers(2, 4), st.integers(6, 8)))
def test_coinvariant_dimension_is_the_clebsch_gordan_count_at_random(
        data, n):
    # from classical representation theory, outside the code path: random
    # rational points and sl2 weights, degree-0 slices of at most 350
    # monomials; N = 6..8 as in the coinvariant requests of many points
    # that the CLI's work bound admits
    points = data.draw(st.lists(rationals, min_size=n, max_size=n,
                                unique=True))
    size, weights = 1, []
    for _ in points:
        w = data.draw(st.integers(0, min(12, 350 // size - 1)))
        weights.append(w)
        size *= w + 1
    m = induce_module(make_algebra("sl2"), Config(points),
                      ModuleSpec("weyl", tuple(weights), Rat(1)))
    assert degree_zero_coinvariant_dimension(m) == \
        sl2_invariant_count(weights)


@pytest.mark.parametrize("weights,points", [
    ((4, 9, 7), ("0", "1", "-1")), ((4, 9, 7), ("1/2", "-7/3", "5")),
    ((6, 6, 6), ("0", "1", "-1"))])
def test_wide_slices_reduce_fast(sl2, weights, points):
    # 400 and 343 monomials; the integer rows grow unless each row's
    # content is divided out, and (6,6,6) then ran for minutes
    m = induce_module(sl2, Config(points), ModuleSpec("weyl", weights,
                                                      Rat(1)))
    start = perf_counter()
    span = _relation_span(m)
    assert perf_counter() - start < 5
    assert len(m.slice_basis(0)) - len(span) == \
        sl2_invariant_count(weights) == 1
    for lead, row in span.items():
        assert max(row) == lead and gcd(*row.values()) == 1


def exhaustive_relation_span(module):
    """Echelon rows of every relation u . w with pole order + |degree| <=
    depth, reduced by the reference rewriting, with no stop at a full span:
    an oracle for the genus-0 argument that `_relation_span` keeps only
    the relations of x (x) 1 on degree 0."""
    depth = module.spec.depth
    reduction = reference_reduction(module, depth)
    basis0 = module.slice_basis(0)
    index = {m: i for i, m in enumerate(basis0)}
    rows = []
    for d in range(0, -depth - 1, -1):
        monos = module.slice_basis(d)  # decoded once per slice
        for u in block_algebra_basis(module.cfg, module.alg, depth):
            if u.pole_order - d > depth:
                continue
            for mono in monos:
                acc = {}
                for (i, n, p), c in u.as_affine().loop.items():
                    merge(acc, reduction.act_row((n, p, i), mono), c)
                if any(m2 not in index for m2 in acc):
                    continue  # past a verma module's width bound
                row = [RAT0] * len(basis0)
                for m2, c in acc.items():
                    row[index[m2]] = c
                rows.append(row)
    return rref(rows)


def rref(rows):
    """The reduced row echelon form of rows, without its zero rows."""
    out = []
    for row in rows:
        for piv in out:
            lead = next(j for j, x in enumerate(piv) if x.num != 0)
            f = row[lead]
            if f.num != 0:
                row = [x - f * y for x, y in zip(row, piv)]
        lead = next((j for j, x in enumerate(row) if x.num != 0), None)
        if lead is None:
            continue
        inv = RAT1 / row[lead]
        row = [x * inv for x in row]
        for k, piv in enumerate(out):
            f = piv[lead]
            if f.num != 0:
                out[k] = [x - f * y for x, y in zip(piv, row)]
        out.append(row)
    return sorted(out, key=lambda r: next(j for j, x in enumerate(r)
                                          if x.num != 0))


def span_oracle_modules():
    sl2 = make_algebra("sl2")
    cfg3 = Config(["0", "1", "-1"])
    for weights in product(range(3), repeat=3):
        if list(weights) == sorted(weights):
            yield induce_module(sl2, cfg3,
                                ModuleSpec("weyl", weights, Rat(1), 2))
    yield induce_module(sl2, cfg3, ModuleSpec("weyl", (1, 1, 2), Rat(1), 3))
    yield induce_module(make_algebra("abelian1"), Config(["0", "1"]),
                        ModuleSpec("fock", (Rat(1, 2), Rat(-1, 2)),
                                   Rat(1), 3))
    yield induce_module(sl2, Config(["0", "1"]),
                        ModuleSpec("verma", (Rat(2), RAT0), Rat(1), 2, 3))


def test_skipped_relations_leave_the_span_unchanged():
    # the relations `_relation_span` leaves out (all but those of x (x) 1
    # on degree 0) add nothing: same rank and same row space
    dims = []
    for module in span_oracle_modules():
        want = exhaustive_relation_span(module)
        dim0 = len(module.slice_basis(0))
        got = rref([[Rat(row.get(c, 0)) for c in range(dim0)]
                    for row in _relation_span(module).values()])
        assert len(got) == len(want)
        assert got == want
        dims.append(len(module.slice_basis(0)) - len(got))
    assert max(dims) >= 1 and min(dims) == 0


def test_relation_rows_stay_few():
    # (1,1,2) is at its Clebsch-Gordan count 1 at depths 3 and 4
    for depth in (3, 4):
        m = induce_module(make_algebra("sl2"), Config(["0", "1", "-1"]),
                          ModuleSpec("weyl", (1, 1, 2), Rat(1), depth))
        assert degree_zero_coinvariant_dimension(m) == 1
