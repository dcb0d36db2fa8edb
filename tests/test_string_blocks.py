"""The per-string blocks of the module engine against a per-code oracle.

`InducedModule._act_block` and `sugawara._L_image` build each action and
each Sugawara image once per creation string s, for every vacuum vector
v at once: one integer form over keys code << _vbits | v whose column v
is the form of the monomial s.v.  The oracle here is the per-monomial
recursion they replaced: one canonical integer form per (operator,
monomial code), from the same single-generator brackets, vacuum action,
term plans and relation plans.  Every column of every block the engine
builds on slices 0..-3 equals the oracle's form, and the commutator
audit reports what the per-monomial audit reports, counterexample
included, also under the `multipoint-centrality` fault.
"""

import inspect
import sys
import textwrap

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import column, peel, vacuum_action
from knwznw import Rat, sugawara
from knwznw._kernel import RAT0, add_scaled, canonical
from knwznw.affine import AffineElement
from knwznw.algebras import R_ZERO, cocycle_chi, vf_bracket
from knwznw.basis import Config, GradedElement
from knwznw.finite_lie import make_algebra
from knwznw.modules import (ModuleSpec, ModuleVector, induce_module,
                            mode_digit)
from knwznw.sugawara import AuditEntry, sugawara_commutator_audit


class PerCode:
    """Actions and Sugawara images of one module, one form per code."""

    def __init__(self, module):
        self.module = module
        self.actions = {}
        self.images = {}

    def act(self, gen, code):
        """gen.(c1.rest) = c1.(gen.rest) + [gen, c1].rest on one code."""
        key = (gen, code)
        hit = self.actions.get(key)
        if hit is not None:
            return hit
        m = self.module
        c1, rest = peel(m, code)
        if not c1:
            res = vacuum_action(m, gen, code)
        elif gen <= c1 and (gen < m._zero or gen in m._lowering):
            res = (1, {m._prepend(gen, code): 1})
        else:
            den, acc = 1, {}
            di, inner = self.act(gen, rest)
            for m2, x in inner.items():
                d2, t2 = self.act(c1, m2)
                if t2:
                    den = add_scaled(den, acc, d2, t2, x, di)
            bden, bnums = m._bracket_form(gen, c1)
            for gen2, x in bnums.items():
                d2, t2 = (1, {rest: 1}) if gen2 is None else self.act(gen2,
                                                                     rest)
                if t2:
                    den = add_scaled(den, acc, d2, t2, x, bden)
            res = canonical(den, acc)
        self.actions[key] = res
        return res

    def apply_plan(self, plan, base):
        """A term plan on one code, every action from `act`."""
        pden, terms = plan
        args = {}
        for second, firsts in terms:
            dm, mid = self.act(second, base)
            if not mid:
                continue
            for first, num in firsts:
                arg = args.setdefault(first, [1, {}])
                arg[0] = add_scaled(arg[0], arg[1], dm, mid, num, pden)
        den, acc = 1, {}
        for first, (aden, arg) in args.items():
            for m2, x in arg.items():
                if x:
                    d2, t2 = self.act(first, m2)
                    if t2:
                        den = add_scaled(den, acc, d2, t2, x, aden)
        return canonical(den, acc)

    def image(self, k, r, code):
        """L(k, r) on one code: the term plan of degree 0 on a vacuum
        code, else L(c1.w) = c1.L(w) + [L(k, r), c1].w."""
        key = (k, r, code)
        hit = self.images.get(key)
        if hit is not None:
            return hit
        m = self.module
        c1, w = peel(m, code)
        if not c1:
            res = self.apply_plan(sugawara._term_plan(m.cfg, m.alg, k, r, 0),
                                  code)
        else:
            dw = m.code_degree(w)
            den, acc = 1, {}
            wden, wnums = self.image(k, r, w)
            for m2, x in wnums.items():
                d2, t2 = self.act(c1, m2)
                if t2:
                    den = add_scaled(den, acc, d2, t2, x, wden)
            rden, rterms = sugawara._relation_plan(m, k, r, c1, -dw)
            for gen, num in rterms:
                d2, t2 = self.act(gen, w)
                if t2:
                    den = add_scaled(den, acc, d2, t2, num, rden)
            res = canonical(den, acc)
        self.images[key] = res
        return res

    def apply_L(self, idx, den, acc, vec, a, b):
        vden, terms = vec
        for code, x in terms.items():
            img = self.image(*idx, code)
            if img[1]:
                den = add_scaled(den, acc, *img, a * x, b * vden)
        return den

    def audit(self, pairs, window):
        """`sugawara_commutator_audit`, one difference per monomial."""
        m = self.module
        cfg, alg = m.cfg, m.alg
        fac = sugawara.rescale_factor(alg, m.level)
        f2 = fac * fac
        out = []
        for (k, r), (q, s) in pairs:
            bracket = vf_bracket(cfg, GradedElement.unit(-1, k, r),
                                 GradedElement.unit(-1, q, s))
            per_slice, is_scalar, counterexample = {}, True, None
            for d in dict.fromkeys(window):
                sigma = None
                for mono in map(m.encode, m.slice_basis(d)):
                    den, acc = 1, {}
                    for outer, inner, fnum in (((k, r), (q, s), f2.num),
                                               ((q, s), (k, r), -f2.num)):
                        den = self.apply_L(outer, den, acc,
                                           self.image(*inner, mono), fnum,
                                           f2.den)
                    for hu, cb in bracket.terms.items():
                        c = fac * cb
                        den = self.apply_L(hu, den, acc, (1, {mono: 1}),
                                           -c.num, c.den)
                    den, diff = canonical(den, acc)
                    got = Rat(diff.get(mono, 0), den)
                    if sigma is None:
                        sigma = got
                    if got != sigma or any(m2 != mono for m2 in diff):
                        is_scalar = False
                        counterexample = (d, m.decode(mono), ModuleVector(
                            m.decode_form(den, diff)))
                        break
                per_slice[d] = sigma
                if not is_scalar:
                    break
            scalars = set(per_slice.values())
            common = scalars.pop() if len(scalars) == 1 else None
            is_scalar = is_scalar and common is not None
            chi = cocycle_chi(cfg, GradedElement.unit(-1, k, r),
                              GradedElement.unit(-1, q, s), R_ZERO)
            ratio = common / chi if is_scalar and chi.num != 0 else None
            out.append(AuditEntry(((k, r), (q, s)), is_scalar,
                                  RAT0 if common is None else common, chi,
                                  ratio, per_slice, counterexample))
        return out


def multipoint_fault():
    """`_relation_plan` losing the modes that land in slice 0 exactly (the
    `multipoint-centrality` fault of tests/test_check_sensitivity.py)."""
    fn = sugawara._relation_plan
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count("if m <= top") == 1
    out = {}
    exec(compile(src.replace("if m <= top", "if m < top"),
                 inspect.getsourcefile(fn), "exec"),
         sys.modules[fn.__module__].__dict__, out)
    return out["_relation_plan"]


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4).map(
    lambda f: Rat(f.numerator, f.denominator))


@st.composite
def modules(draw, kinds=("weyl", "fock", "verma")):
    """A weyl module at N = 1..3 with sl2 weights 0..2, a fock module
    with rational weights, or a verma module of width 2; at distinct
    rational points and a rational level of either sign, off the
    critical one."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, 2 if kind == "verma" else 3))
    points = draw(st.lists(rationals, min_size=n, max_size=n, unique=True))
    if kind == "weyl":
        alg, weights = "sl2", tuple(draw(st.lists(
            st.integers(0, 2), min_size=n, max_size=n)))
    else:
        alg, weights = ("abelian1" if kind == "fock" else "sl2"), tuple(
            draw(st.lists(rationals, min_size=n, max_size=n)))
    level = draw(rationals)
    alg = make_algebra(alg)
    assume(level + alg.k_dual != 0)
    return (alg, [str(p) for p in points], ModuleSpec(
        kind, weights, level, width=2 if kind == "verma" else None))


def fresh(case):
    alg, points, spec = case
    return induce_module(alg, Config(points), spec)


def assert_columns_are_per_code(module, ops, draw_strings):
    """Build the images of ops on strings of slices 0..-3 (draw_strings
    picks them from a slice's sorted strings), then compare every column
    of every action and image block with the oracle's form."""
    oracle = PerCode(module)
    vb, dim = module._vbits, module.vac_dim
    for d in (0, -1, -2, -3):
        strings = sorted(module._slice_strings(d))
        for string in draw_strings(strings):
            for k, r in ops:
                sugawara._image(module, k, r, string, d)
    columns = 0
    for key, block in module._act_memo.items():
        string, gen = key >> module._dbits, key & module._dmask
        for v in range(dim):
            code = string << vb | v
            assert column(module, block, v) == oracle.act(gen, code)
            columns += 1
    for (k, r), images in module._sugawara_memo.items():
        for string, block in images.items():
            for v in range(dim):
                code = string << vb | v
                assert column(module, block, v) == oracle.image(k, r, code)
                columns += 1
    return columns


@pytest.mark.parametrize("kind", ["weyl", "fock", "verma"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_every_block_column_is_the_per_code_form(kind, data):
    module = fresh(data.draw(modules((kind,))))
    n, dim = module.cfg.n_points, module.vac_dim
    ops = data.draw(st.lists(st.tuples(st.integers(-2, 2),
                                       st.integers(1, n)),
                             min_size=1, max_size=2, unique=True))
    # a few strings of each slice, one when dim V is 27
    columns = assert_columns_are_per_code(module, ops, lambda strings: (
        data.draw(st.lists(st.sampled_from(strings), min_size=1,
                           max_size=max(1, 12 // dim), unique=True))))
    assert columns >= 2 * dim


@pytest.mark.parametrize("kind", ["weyl", "fock", "verma"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_the_placed_vacuum_block_is_the_per_column_action(kind, data):
    # the block of every generator of modes -2..2 on the vacuum string,
    # built in one pass: creators (with a verma module's degree-0
    # lowering ones), degree-0 generators through the irreps or the verma
    # weights, and positive modes; it is canonical, it is what the action
    # memo holds, and each column v is the per-column action on vacuum v
    module = fresh(data.draw(modules((kind,))))
    alg, n = module.alg, module.cfg.n_points
    seen = {"create": 0, "zero": 0, "positive": 0}
    for mode in range(-2, 3):
        for p in range(1, n + 1):
            for i in range(alg.dim):
                gen = mode_digit(module.cfg, alg, (mode, p, i))
                block = module._vacuum_block(gen)
                assert canonical(*block) == block
                assert module._act_block(gen, 0) == block
                for v in range(module.vac_dim):
                    assert column(module, block, v) == vacuum_action(
                        module, gen, v)
                kind_of = ("create" if gen < module._zero
                           or gen in module._lowering else
                           "positive" if mode > 0 else "zero")
                seen[kind_of] += bool(block[1])
    assert seen["create"] == 2 * n * alg.dim + (
        n * len(alg.minus_indices) if kind == "verma" else 0)
    assert seen["positive"] == 0
    assert bool(seen["zero"]) == any(w.num for w in module.weights)


def test_the_largest_vacuum_space_is_the_per_code_form():
    # weyl (2,2,2) at three rational points, dim V = 27, at a negative
    # level: the columns of three strings per slice for four operators
    module = induce_module(make_algebra("sl2"), Config(["1/2", "-7/3", "5"]),
                           ModuleSpec("weyl", (2, 2, 2), Rat(-5, 3)))
    ops = [(1, 1), (-1, 2), (0, 3), (-2, 1)]
    columns = assert_columns_are_per_code(
        module, ops, lambda strings: sorted({
            strings[0], strings[len(strings) // 2], strings[-1]}))
    assert columns > 9000


@pytest.mark.parametrize("faulted", [False, True], ids=["sound", "fault"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=modules(), data=st.data())
def test_the_audit_is_the_per_code_audit(faulted, case, data):
    module = fresh(case)
    n = module.cfg.n_points
    index = st.tuples(st.integers(-2, 2), st.integers(1, n))
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1,
                               max_size=2))
    # the oracle audits one monomial at a time, so its slices stay small;
    # slice 0 holds at most 27 monomials
    small = [d for d in (0, -1, -2) if 0 < module.slice_dimension(d) <= 120]
    window = data.draw(st.lists(st.sampled_from(small), min_size=1,
                                max_size=2))
    with pytest.MonkeyPatch.context() as mp:
        if faulted:
            mp.setattr(sugawara, "_relation_plan", multipoint_fault())
        got = sugawara_commutator_audit(module.cfg, module.alg, module,
                                        pairs, window)
        want = PerCode(fresh(case)).audit(pairs, window)
    assert got == want


def test_the_fault_is_seen_by_both_audits():
    # weyl (1,1) at 0,1 is the module `multipoint-centrality` audits: the
    # faulted relation plans make its pair (1,1),(-1,2) non-scalar on
    # slice -1, and the blocks report the per-code counterexample
    case = (make_algebra("sl2"), ["0", "1"],
            ModuleSpec("weyl", (1, 1), Rat(1)))
    pairs, window = [((1, 1), (-1, 2)), ((0, 1), (0, 2))], [-1, -2]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sugawara, "_relation_plan", multipoint_fault())
        module = fresh(case)
        got = sugawara_commutator_audit(module.cfg, module.alg, module,
                                        pairs, window)
        want = PerCode(fresh(case)).audit(pairs, window)
    assert got == want
    assert not got[0].is_scalar and got[0].counterexample is not None


@pytest.mark.parametrize("kind", ["weyl", "fock", "verma"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_one_vacuum_vector_takes_the_block_path(kind, data):
    # dim V = 1: fock, verma of width 2 and weyl at weight 0, where a
    # code is its creation string.  apply_L_raw on a scaled vector over
    # codes, apply_L_raw on a memoised image block added into an
    # accumulator, and an affine element with a central term act through
    # the grouping by string and `_join`; each equals the per-code sums
    alg, points, spec = data.draw(modules((kind,)))
    if kind == "weyl":
        spec = ModuleSpec("weyl", (0,) * len(points), spec.level)
    module = induce_module(alg, Config(points), spec)
    oracle = PerCode(module)
    assert module.vac_dim == 1 and module._vbits == 0
    n = module.cfg.n_points
    d = data.draw(st.sampled_from((0, -1, -2)))
    codes = data.draw(st.lists(st.sampled_from(module._slice_strings(d)),
                               min_size=1, max_size=4, unique=True))
    ints = st.integers(-5, 5).filter(bool)
    vec = (data.draw(st.integers(1, 6)),
           {code: data.draw(ints) for code in codes})
    a, b = data.draw(ints), data.draw(st.integers(1, 6))
    index = st.tuples(st.integers(-2, 2), st.integers(1, n))
    outer, inner = data.draw(index), data.draw(index)

    acc = {}
    den = oracle.apply_L(outer, 1, acc, vec, 1, 1)
    assert sugawara.apply_L_raw(module, outer, vec) == canonical(den, acc)
    den, acc = 1, {}
    den = oracle.apply_L(outer, den, acc, vec, a, b)
    got = sugawara.apply_L_raw(module, outer, vec, (1, {}), a, b)
    assert canonical(*got) == canonical(den, acc)

    string = codes[0]
    block = sugawara._image(module, *inner, string, d)
    den, acc = 1, {}
    den = oracle.apply_L(outer, den, acc, oracle.image(*inner, string), a, b)
    got = sugawara.apply_L_raw(module, outer, block, (1, {}), a, b,
                               module._vbits)
    assert canonical(*got) == canonical(den, acc)

    loop = {(data.draw(st.integers(0, alg.dim - 1)),
             data.draw(st.integers(-2, 2)), data.draw(st.integers(1, n))):
            data.draw(rationals.filter(lambda c: c.num != 0))
            for _ in range(2)}
    central = data.draw(rationals.filter(lambda c: c.num != 0))
    element = AffineElement(loop, central)
    den, acc = 1, {}
    c = central * module.level
    if c.num:
        den = add_scaled(den, acc, *vec, c.num, c.den)
    for (i, m, p), coef in loop.items():
        gen = mode_digit(module.cfg, alg, (m, p, i))
        for code, x in vec[1].items():
            d2, t2 = oracle.act(gen, code)
            if t2:
                den = add_scaled(den, acc, d2, t2, coef.num * x,
                                 coef.den * vec[0])
    assert canonical(*module._act_affine_form(element, *vec)) == \
        canonical(den, acc)
