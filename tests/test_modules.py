"""Induced modules: slices, exact action, truncation, coinvariants."""

import random
from collections import Counter
from itertools import product

import pytest

from conftest import section_of
from knwznw import Rat
from knwznw._kernel import RAT0, RAT1
from knwznw.affine import AffineElement, affine_bracket, block_algebra_basis
from knwznw.basis import Config
from knwznw.errors import (CoinvariantReductionError, DomainError,
                           TruncationOverflow)
from knwznw.finite_lie import factor_op, make_algebra
from knwznw.modules import (ModuleSpec, ModuleVector, PBWMonomial,
                            _merge, _relation_span,
                            degree_zero_coinvariant_dimension,
                            induce_module)

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
                             weyl11.factors[p - 1].matrices[i])
            assert got == [list(r) for r in want]


def test_truncation_overflow_is_loud(weyl11):
    deep = weyl11.slice_basis(-4)[0]
    a = AffineElement.loop_term(E, -1, 1)
    with pytest.raises(TruncationOverflow) as ei:
        weyl11.act(a, ModuleVector.monomial(deep))
    assert ei.value.lost_degrees == (-5,)


def test_width_overflow_is_loud(sl2, cfg1):
    m = induce_module(sl2, cfg1, ModuleSpec("verma", (Rat(1),), Rat(1), 2, 2))
    mono = PBWMonomial(((0, 1, F), (0, 1, F)), 0)
    with pytest.raises(TruncationOverflow) as ei:
        m.act(AffineElement.loop_term(F, 0, 1), ModuleVector.monomial(mono))
    assert ei.value.lost_widths == (3,)


def test_reduce_degree_zero_unchanged(weyl11):
    v = weyl11.vacuum_vector(2)
    red, status = weyl11.coinvariant_reduce(v, 2)
    assert status == "reduced-to-degree-0" and red == v


def test_reduce_single_mode_fock(fock):
    # u ot (z - 0)^{-1} is itself a block generator, so u(-1,1) vac dies
    v = ModuleVector(fock._act_affine_raw(
        AffineElement.loop_term(0, -1, 1), fock.vacuum_vector().terms))
    red, status = fock.coinvariant_reduce(v, 2)
    assert status == "reduced-to-degree-0" and red.is_zero()


def test_reduce_diagonal_action(weyl11, cfg2, sl2):
    # x ot 1 = sum_p x ot A_{0,p} acts by the diagonal tensor action and
    # is already a degree-0 representative (its class is zero)
    from knwznw.basis import expand_in_basis
    from knwznw.ratfield import RationalFunction as RF
    one = expand_in_basis(cfg2, section_of(cfg2, 0, RF.one()))
    xa = AffineElement({(E, n, p): c for (n, p), c in one.terms.items()})
    v = weyl11.vacuum_vector(3)
    img = weyl11.act(xa, v)
    red, status = weyl11.coinvariant_reduce(img, 4)
    assert status == "reduced-to-degree-0"
    assert red == img  # degree-0 representative is already reduced
    # and it matches the diagonal finite-dimensional action
    D = factor_op(weyl11.factors, 0, weyl11.factors[0].matrices[E])
    D2 = factor_op(weyl11.factors, 1, weyl11.factors[1].matrices[E])
    want = {}
    for m2, c in img.terms.items():
        want[m2.vacuum] = c
    col = 3
    for r in range(4):
        expect = D[r][col] + D2[r][col]
        assert want.get(r, RAT0) == expect


def test_reduce_is_projection(weyl11, cfg2, sl2):
    gens = block_algebra_basis(cfg2, sl2, 2)
    for u in gens[::2]:
        for mono in weyl11.slice_basis(-1)[:4]:
            img = ModuleVector(weyl11._act_affine_raw(
                u.as_affine(), {mono: RAT1}))
            red, status = weyl11.coinvariant_reduce(img, 4)
            assert status == "reduced-to-degree-0"
            again, st2 = weyl11.coinvariant_reduce(img - red, 4)
            assert st2 == "reduced-to-degree-0" and again.is_zero()


def test_reduce_budget_exhaustion_is_status(fock):
    # the leading entry has degree -3, and pole bound 2 has no rule for it
    deep = ModuleVector.monomial(fock.slice_basis(-3)[0])
    red, status = fock.coinvariant_reduce(deep, 2)
    assert status == "budget-exhausted"


def pass_batch_reduce(module, v, pole_bound):
    """The level-by-level reduction the memoised rows replaced, kept as an
    oracle.  Each pass takes the lowest-degree monomials whose leading
    entry has a rule, rewrites that entry through its rule and
    normal-orders the result.  Unlike the loop it replaces, which stopped
    at the first degree holding a monomial without a rule, it goes on
    past such monomials, so that its vector can be compared then too."""
    rules = module._rules(pole_bound)
    terms = dict(v.terms)

    def add(terms, more, scale):
        for m, c in more.items():
            w = terms.get(m, RAT0) + c * scale
            if w.num == 0:
                terms.pop(m, None)
            else:
                terms[m] = w

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
                add(terms, module._act_gen((n2, p2, i), rest), -c * c2)


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
    # At pole bound = depth every reachable leader has a rule, and at genus
    # 0 the negative loop part lies in the block algebra, so the reduction
    # of every monomial of negative degree is 0.  At pole bound 2 leaders
    # at degree -3 have no rule and survive, which makes the rules'
    # coefficients and every bracket term visible in the vectors.
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
            got = module.coinvariant_reduce(v, depth)
            assert got == pass_batch_reduce(module, v, depth)
            assert got == (ModuleVector({m: c for m, c in v.terms.items()
                                         if m.degree == 0}),
                           "reduced-to-degree-0")
            got = module.coinvariant_reduce(v, 2)
            assert got == pass_batch_reduce(module, v, 2)
            seen[got[1]] += 1
    assert seen["budget-exhausted"] > 30
    # a lone monomial whose leading pole is deeper than the pole bound
    fock = induce_module(make_algebra("abelian1"), Config(["0"]),
                         ModuleSpec("fock", (RAT0,), Rat(1), 6))
    deep = ModuleVector.monomial(fock.slice_basis(-3)[0])
    got = fock.coinvariant_reduce(deep, 2)
    assert got == (deep, "budget-exhausted")
    assert got == pass_batch_reduce(fock, deep, 2)


def test_coinvariant_dimension_stabilizes(sl2):
    # the (1,1,1) and (2,2) stabilisation over depths 2-4 is the registry
    # check coinvariant-stabilization; this is a one-dimensional block space
    cfg3 = Config(["0", "1", "-1"])
    m = induce_module(sl2, cfg3, ModuleSpec("weyl", (1, 1, 0), Rat(1), 3))
    assert degree_zero_coinvariant_dimension(m) == 1


def test_unreduced_relations_raise(sl2):
    cfg = Config(["0", "1"])
    m = induce_module(sl2, cfg, ModuleSpec("weyl", (1, 1), Rat(1), 2))
    rules = dict(m._rules(2))
    del rules[(-1, 1)]
    m._rules = lambda pole_bound: rules
    with pytest.raises(CoinvariantReductionError,
                       match=r"^\d+ relation\(s\) failed to reduce"):
        degree_zero_coinvariant_dimension(m)


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


def exhaustive_relation_span(module):
    """Echelon rows of every relation u . w with pole order + |degree| <=
    depth, the x (x) 1 relations on negative degrees included and with no
    stop at a full span: the loop `_relation_span` shortens, kept as an
    oracle."""
    depth = module.spec.depth
    reduction = module._reduction(depth)
    basis0 = module.slice_basis(0)
    index = {m: i for i, m in enumerate(basis0)}
    rows = []
    for d in range(0, -depth - 1, -1):
        for u in block_algebra_basis(module.cfg, module.alg, depth):
            if u.pole_order - d > depth:
                continue
            for mono in module.slice_basis(d):
                acc = {}
                for (i, n, p), c in u.as_affine().loop.items():
                    _merge(acc, reduction.act_row((n, p, i), mono), c)
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
    # the x (x) 1 relations on negative degrees, which `_relation_span`
    # leaves out, add nothing: same rank and same row space
    dims = []
    for module in span_oracle_modules():
        want = exhaustive_relation_span(module)
        got = rref(list(_relation_span(module).values()))
        assert len(got) == len(want)
        assert got == want
        dims.append(len(module.slice_basis(0)) - len(got))
    assert max(dims) >= 1 and min(dims) == 0


def test_relation_rows_stay_few():
    # (1,1,2) stabilises at its Clebsch-Gordan count 1 by depth 3, as
    # coinvariant-stabilization asserts for (2,2); and a tripwire for a
    # silent return of the identically zero relations: at depth 4 they
    # took act_rows from 42,660 entries to 188,784
    for depth in (3, 4):
        m = induce_module(make_algebra("sl2"), Config(["0", "1", "-1"]),
                          ModuleSpec("weyl", (1, 1, 2), Rat(1), depth))
        assert degree_zero_coinvariant_dimension(m) == 1
    assert len(m._reductions[4].act_rows) < 60000
