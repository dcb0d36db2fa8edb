"""Sugawara operators from the normal-ordered current square.

The energy-momentum field is half the normal-ordered contraction of the
currents over a dual pair of gauge-algebra bases.  Pairing it against the
vector field e_{k,r} through the weight-(-1)/weight-2 duality collapses
the contour integral to exact triple-residue coefficients

    c_{(n,p),(m,s)} = sum_i res_{P_i}( w^{n,p} w^{m,s} e_{k,r} ),

with w^{n,p} the weight-one dual basis.  Each factor is a constant times
a monomial M_k, so c is a constant times the cached residue sum of one
monomial (`basis.monomial_residue`), and

    L(k,r) = 1/2 sum_i sum_{(n,p),(m,s)} c_{(n,p),(m,s)} :u_i(n,p) u^i(m,s): .

Normal ordering moves strictly positive degrees right and strictly
negative degrees left; a degree-0/degree-0 pair keeps its written order,
which is immaterial: c_{(0,p),(0,s)} and the dual-basis matrix are
symmetric (the verify check `normal-ordering-equivalence`), so the
swapped order sums the same terms.  On an admissible module every
application is a finite sum: for a vector of degree d only mode indices
n in [t + d, -d] can contribute to total degree t, which the
implementation uses as its summation bound.

L(k,r) is linear, so its image of each PBW monomial is computed once per
module and memoised (`_image`, read by `apply_L_raw`) as an integer form
(D, {monomial: int}) of the kernel.  A vacuum monomial is summed over the
term plan of its degree: one plan per (algebra, k, r, degree), cached
on the configuration (`_term_plan`), writes u^i = sum_j D_ij u_j,
keeps the nonzero coefficients, merges every total and mode of the band
and groups the terms by the operator that acts first.
A monomial c1.w, with c1 the first entry of its creation string, peels
c1 (`_L_image`):

    L(c1.w) = c1.L(w) + [L, c1].w,

with L(w) read from the image memo.  Three facts make this exact, and no
Sugawara commutation theorem is used.  For each term c F S of the plan
of c1.w's degree, [F S, c1] = F [S, c1] + [F, c1] S, with the brackets
of single generators.  Every term of that plan that the plan of w's
degree lacks annihilates w (the summation bound above), so the plan of
c1.w's degree applied to w is L(w).  And the module is a
representation, so a product a.b of two generators with a > b is
b.a + [a, b].  The terms of [L, c1] are merged into one commutator plan
per (k, r, degree, c1) (`_commutator_plan`), each product in that
normal order, so a pair a.b - b.a cancels to its bracket.  On
the modules the tests and audits build every product cancels and the
plan is linear, as the Sugawara commutation relations predict; nothing
relies on that.  Its central parts carry the level, so these plans are
memoised per module, never on the configuration, which modules of
several levels share.

Both plans are (den, ((op2, ((op1, num), ...)), ...)): integer
numerators over one denominator per plan.  One helper applies either
plan (`_apply_plan`): it applies each distinct operator that acts first
once and sums the scaled results into the arguments of the operators
that act after it, each argument an integer form of its own; it then
applies each of those operators once to its argument and sums the
results into one accumulator.  Every sum is the kernel's `add_scaled`.  Images and the commutator audit's
difference are integer forms; Rat is built only by `apply_L`, by
`kz.kz_matrices` for its entries, and for the audit's scalar and
counterexample.

The rescaled operators -1/(level + dual Coxeter) L(k,r) represent the
centrally extended vector-field algebra; the audit measures the central
scalar instead of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import NamedTuple

from ._kernel import RAT0, Rat, add_scaled, canonical, form, rats
from .algebras import R_ZERO, cocycle_chi, vf_bracket
from .basis import (GradedElement, KNIndex, kn_basis_element,
                    monomial_residue)
from .errors import CriticalLevelError, DomainError
from .modules import ModuleVector, PBWMonomial


_HALF = Rat(1, 2)


class SugawaraIndex(NamedTuple):
    k: int
    r: int


@dataclass
class TripleCoefficientTable:
    """Residue-pairing coefficients for one operator index (k, r)."""

    k: int
    r: int
    entries: dict  # ((n, p), (m, s)) -> Rat

    def coefficient(self, n, p, m, s):
        return self.entries.get(((n, p), (m, s)), RAT0)


def _triple_coefficient(cfg, k, r, n, p, m, s):
    key = ("sugw3", k, r, n, p, m, s)
    hit = cfg.cache.get(key)
    if hit is None:
        # each basis element is c M_k, so the product is c1 c2 ce M_K
        w1 = kn_basis_element(cfg, KNIndex(1, -n, p)).form(cfg)
        w2 = kn_basis_element(cfg, KNIndex(1, -m, s)).form(cfg)
        e = kn_basis_element(cfg, KNIndex(-1, k, r)).form(cfg)
        hit = monomial_residue(cfg, tuple(
            x + y + z for x, y, z in zip(w1.k, w2.k, e.k))) * Rat(
                w1.nums[0] * w2.nums[0] * e.nums[0], w1.den * w2.den * e.den)
        cfg.cache[key] = hit
    return hit


def _triple_row(cfg, k, r, t, n):
    """The nonzero c_{(n,p),(t-n,s)} of L(k, r) as a tuple of (p, s, c),
    row (t, n) of the sparse table cfg.cache[("sugw3rows", k, r)]."""
    table = cfg.cache.get(("sugw3rows", k, r))
    if table is None:
        table = cfg.cache[("sugw3rows", k, r)] = {}
    row = table.get((t, n))
    if row is None:
        pts = range(1, cfg.n_points + 1)
        row = table[(t, n)] = tuple(
            (p, s, c) for p in pts for s in pts
            for c in (_triple_coefficient(cfg, k, r, n, p, t - n, s),)
            if c.num != 0)
    return row


def _term_plan(cfg, alg, k, r, dv):
    """The terms of L(k, r) on a monomial of degree dv, grouped by the
    operator that acts first (the right factor, `second`).

    A term is c/2 D_ij :u_i(n,p) u_j(t-n,s): for t in the band, n in
    [t + dv, -dv] (the summation bound), c = c_{(n,p),(t-n,s)} != 0
    and u^i = sum_j D_ij u_j.  Its operators a = (n, p, i) and
    b = (t-n, s, j) are applied as first.(second.mono) with (first,
    second) = (a, b), or (b, a) when normal ordering swaps them.  The plan
    is (den, ((second, ((first, num), ...)), ...)), every (t, n) merged,
    with num/den the summed coefficient of the pair: one denominator for
    the whole plan.  One plan per (algebra, k, r, dv) in cfg.cache, so
    every monomial of degree dv shares it, and its generator tuples key
    the module's action memo.  The plan of a lower degree holds every
    term of this one and more modes past the bound; the verify check
    `summation-bounds` applies such a plan directly (`_apply_plan`)."""
    key = ("sugw-plan", alg.kind, k, r, dv)
    plan = cfg.cache.get(key)
    if plan is not None:
        return plan
    groups = {}  # second -> {first: coefficient}
    t_lo, t_hi = total_degree_band(cfg, k)
    for t in range(t_lo, t_hi + 1):
        for n in range(t + dv, -dv + 1):
            m = t - n
            # positive degrees go right, negative degrees left; a
            # degree-0/degree-0 pair keeps its written order
            swap = (n > 0 and m <= 0) or (m < 0 and n >= 0)
            for p, s, c in _triple_row(cfg, k, r, t, n):
                half = c * _HALF
                for i, dual in enumerate(alg.dual_vectors):
                    for j, d in enumerate(dual):
                        if d.num != 0:
                            a, b = (n, p, i), (m, s, j)
                            first, second = (b, a) if swap else (a, b)
                            firsts = groups.setdefault(second, {})
                            firsts[first] = firsts.get(first, RAT0) + half * d
    den = lcm(*(v.den for firsts in groups.values() for v in firsts.values()))
    plan = cfg.cache[key] = (den, tuple(
        (second, terms) for second, firsts in groups.items()
        for terms in (tuple((first, v.num * (den // v.den))
                            for first, v in firsts.items() if v.num != 0),)
        if terms))
    return plan


def total_degree_band(cfg, k):
    """Totals n + m with possibly nonzero coefficients: [k, k + B]."""
    return (k, k if cfg.n_points == 1 else k + 1)


def sugawara_coefficients(cfg, idx, band):
    """Table of coefficients over a finite band of (n, m) totals.

    band is (t_min, t_max); per total, mode indices run over a window wide
    enough for any vector with degree >= t_min - band use (callers slice
    what they need; entries outside the structural band [k, k+B] vanish).
    """
    k, r = idx
    t_min, t_max = band
    entries = {}
    span = max(abs(t_min), abs(t_max)) + abs(k) + 2
    for t in range(t_min, t_max + 1):
        for n in range(t - span, span + 1):
            for p, s, c in _triple_row(cfg, k, r, t, n):
                entries[((n, p), (t - n, s))] = c
    return TripleCoefficientTable(k, r, entries)


def _commutator_plan(module, k, r, dv, c1):
    """The terms of [L(k, r), c1] on monomials of degree dv that start
    with the creation entry c1, grouped by the operator that acts first
    on the rest of the string.

    Each term c F S of the term plan of degree dv gives
    c [F S, c1] = c F [S, c1] + c [F, c1] S, with the single-generator
    brackets of `InducedModule._bracket_form`, integer forms memoised
    per (op, c1) in the module's bracket memo.  The plan is
    (den, ((op2, ((op1, num), ...)), ...)), read as op1.(op2.rest) with
    coefficient num/den; op1 is None for a central part, which leaves
    op2.rest as it is, and op2 is None for a scalar part, num/den times
    rest.  Every pair is summed, the pairs whose degree alone sends rest
    to an empty slice are dropped, and each remaining product with
    op1 > op2 is put in normal order, op1.op2 = op2.op1 + [op1, op2], so
    that the products which cancel are gone.  The denominator is the
    term plan's times the lcm of the brackets' denominators, with the gcd
    of the whole plan divided out once.  The central parts carry the
    level, so the plans are memoised per module
    (`InducedModule._commutator_plans`), never on the configuration."""
    key = (k, r, dv, c1)
    plans = module._commutator_plans
    plan = plans.get(key)
    if plan is not None:
        return plan
    tden, terms = _term_plan(module.cfg, module.alg, k, r, dv)
    # a mode-n generator maps degree d into degrees >= d + n (almost
    # grading), and slices above 0 are empty; rest has degree -top, so an
    # op2 with mode above top, or an op1 above top - op2's mode, gives 0
    top = c1[0] - dv
    bracket = module._bracket_form
    forms = {}  # op -> [op, c1] as an integer form, central part under None
    for second, firsts in terms:
        forms[second] = bracket(second, c1)
        if second[0] <= top:  # [F, c1] is read only after a live second
            for first, _num in firsts:
                forms[first] = bracket(first, c1)
    # every product of a term and a bracket over tden * blcm
    blcm = lcm(*(d for d, _nums in forms.values()))
    groups = {}  # op2 -> {op1: numerator over tden * blcm}
    for second, firsts in terms:
        if second[0] <= top:
            # c [F, c1] S: the bracket of each first, after S
            after = groups.get(second)
            if after is None:
                after = groups[second] = {}
            for first, num in firsts:
                bden, bnums = forms[first]
                f = num * (blcm // bden)
                for op1, b in bnums.items():
                    after[op1] = after.get(op1, 0) + f * b
        # c F [S, c1]: each first, after the bracket of S
        sden, snums = forms[second]
        sf = blcm // sden
        for op, b in snums.items():
            f = sf * b
            if op is None:  # the central part leaves S's argument alone
                for first, num in firsts:
                    g = groups.get(first)
                    if g is None:
                        g = groups[first] = {}
                    g[None] = g.get(None, 0) + num * f
            elif op[0] <= top:
                g = groups.get(op)
                if g is None:
                    g = groups[op] = {}
                for first, num in firsts:
                    g[first] = g.get(first, 0) + num * f
    # keep the terms that the degrees of rest admit, each pair in normal
    # order, the higher operator acting first: a term x a.(b.rest) with
    # a > b is x b.(a.rest) + x [a, b].rest, so a pair a.b - b.a of the
    # merged terms cancels to its bracket.  op2 None: rest itself
    kept = {}  # op2 -> {op1: numerator over tden * blcm * scale}
    swaps = []  # (a, b, x) for a term x a.(b.rest) with a > b
    for op2, acc in groups.items():
        room = top - op2[0]
        if room < 0:
            continue
        for op1, x in acc.items():
            if x and (op1 is None or op1[0] <= room):
                if op1 is not None and op1 > op2:
                    swaps.append((op1, op2, x))
                else:
                    kept.setdefault(op2, {})[op1] = x
    swapped = [(a, b, x, bracket(a, b)) for a, b, x in swaps]
    scale = lcm(*(sw[3][0] for sw in swapped))
    if scale > 1:
        for acc in kept.values():
            for op1 in acc:
                acc[op1] *= scale
    for a, b, x, (bden, bnums) in swapped:
        if a[0] <= top:  # b.(a.rest); a.rest is 0 above top
            acc = kept.setdefault(a, {})
            acc[b] = acc.get(b, 0) + x * scale
        f = x * (scale // bden)
        for op, c in bnums.items():
            if op is None or op[0] <= top:
                acc = kept.setdefault(op, {})
                acc[None] = acc.get(None, 0) + f * c
    plan = []
    for op2, acc in kept.items():
        nums = [(op1, x) for op1, x in acc.items() if x]
        if nums:
            plan.append((op2, tuple(nums)))
    den = tden * blcm * scale
    common = gcd(den, *(x for _op2, nums in plan for _op1, x in nums))
    if common > 1:
        den //= common
        plan = [(op2, tuple([(op1, x // common) for op1, x in nums]))
                for op2, nums in plan]
    plan = plans[key] = (den, tuple(plan))
    return plan


def _image(module, k, r, mono):
    """The memoised image of one monomial (`_L_image`), keyed by
    ((k, r), monomial) in the module's image memo; never mutated."""
    memo = module._sugawara_memo
    key = ((k, r), mono)
    img = memo.get(key)
    if img is None:
        img = memo[key] = _L_image(module, k, r, mono)
    return img


def _L_image(module, k, r, mono):
    """L(k, r) on one monomial, as an integer form (D, {monomial: int}).

    A monomial c1.rest with a creation entry c1 is computed as
    c1.L(rest) + [L(k, r), c1].rest: L(rest) is read from the image memo
    and becomes the argument of c1, and the commutator plan of c1 at
    mono's degree (`_commutator_plan`) acts on rest.  The terms of
    L(k, r) that the degree of mono admits beyond those of rest's degree
    annihilate rest (the summation bound), so c1.L(rest) is exact.  A
    vacuum monomial is summed over the term plan of its degree
    (`_term_plan`).
    """
    creation = mono.creation
    if not creation:
        return _apply_plan(module, _term_plan(module.cfg, module.alg, k, r,
                                              mono.degree), mono, {})
    c1 = creation[0]
    rest = PBWMonomial(creation[1:], mono.vacuum)
    rden, rnums = _image(module, k, r, rest)
    return _apply_plan(module, _commutator_plan(module, k, r, mono.degree, c1),
                       rest, {c1: [rden, dict(rnums)]} if rnums else {})


def _apply_plan(module, plan, base, args):
    """A plan (den, ((second, ((first, num), ...)), ...)) applied to the
    monomial base, plus each operator of args applied to its argument,
    as a canonical integer form.

    args maps an operator that acts last to its argument, an integer form
    [den, {monomial: int}] that this call may mutate.  Each second acts
    once on base (None: a scalar part, base itself); its image, scaled by
    each of its terms, is summed with `add_scaled` into the argument of
    first.  Then each first acts once on each monomial of its argument,
    summed into one accumulator (None: the argument is added as it is).
    Actions are read from the module's action memo first.
    """
    memo = module._act_memo
    act = module._act_form
    pden, terms = plan
    for second, firsts in terms:
        if second is None:  # a scalar part of a commutator plan
            dm, mid = 1, {base: 1}
        else:
            dm, mid = memo.get((second, base)) or act(second, base)
        if not mid:
            continue
        for first, num in firsts:
            arg = args.get(first)
            if arg is None:
                arg = args[first] = [1, {}]
            arg[0] = add_scaled(arg[0], arg[1], dm, mid, num, pden)
    den, acc = 1, {}
    for first, (aden, arg) in args.items():
        if first is None:
            den = add_scaled(den, acc, aden, arg, 1, 1)
            continue
        for m2, x in arg.items():
            if x:
                d2, t2 = memo.get((first, m2)) or act(first, m2)
                if t2:
                    den = add_scaled(den, acc, d2, t2, x, aden)
    return canonical(den, acc)


def apply_L_raw(module, idx, vec):
    """Exact L(k, r) on an integer form vec = (D, {monomial: int}), as a
    canonical integer form.

    L(k, r) is linear, so the image of each monomial is computed once per
    module and memoised under ((k, r), monomial) (`_image`); the image of
    vec sums the cached numerators scaled by vec's numerators over one
    denominator.  Memoised images are never mutated.
    """
    k, r = idx
    vden, terms = vec
    den, acc = 1, {}
    for mono, cm in terms.items():
        img = _image(module, k, r, mono)
        if img[1]:
            den = add_scaled(den, acc, *img, cm, 1)
    return canonical(den * vden, acc)


def apply_L(module, idx, v):
    """L(k, r) on a module vector: the exact image, whatever its degrees.
    The one place a Sugawara image becomes Rat."""
    return ModuleVector(rats(*apply_L_raw(module, idx, form(v.terms))))


def rescale_factor(alg, level):
    den = level + alg.k_dual
    if den.num == 0:
        raise CriticalLevelError(
            "critical level: level + dual Coxeter number = 0")
    return Rat(-1) / den


def rescaled_L(module, idx, v):
    """-1/(level + dual Coxeter) times L(k, r)."""
    f = rescale_factor(module.alg, module.level)
    return apply_L(module, idx, v).scale(f)


def T_of_vectorfield(module, l, v):
    """Sugawara operator attached to a vector field.

    l is a weight-(-1) graded element; duality collapses the contour
    pairing to the sum of its coefficients times the rescaled operators.
    """
    if not isinstance(l, GradedElement) or l.lam != -1:
        raise DomainError("expected a weight -1 graded element")
    f = rescale_factor(module.alg, module.level)
    out = ModuleVector({})
    for (k, r), c in l.terms.items():
        out = out + apply_L(module, SugawaraIndex(k, r), v).scale(f * c)
    return out


@dataclass
class AuditEntry:
    pair: tuple               # ((k, r), (m, s))
    is_scalar: bool
    scalar: Rat               # the measured central scalar (0 if none)
    chi: Rat                  # chi_0(e_{k,r}, e_{m,s})
    ratio: object             # scalar / chi, or None when chi == 0
    per_slice: dict = field(default_factory=dict)
    counterexample: object = None


def sugawara_commutator_audit(cfg, alg, module, pairs, window):
    """Measure [L*_{k,r}, L*_{m,s}] - L*_{[e_{k,r}, e_{m,s}]} on the window.

    The difference must be a scalar multiple of the identity on every
    slice (zero when the slices do not match); the common scalar and its
    ratio to the zero-connection cocycle are reported.  Every image is
    exact, so any slice d <= 0 may be audited, whatever the module depth;
    an empty slice (any d > 0) has no scalar to measure: DomainError.  A
    repeated slice is audited once.
    """
    window = list(dict.fromkeys(window))
    for d in window:
        if not module.slice_dimension(d):
            raise DomainError("window slice %d is empty; it holds no "
                              "monomial" % d)
    fac = rescale_factor(alg, module.level)
    f2 = fac * fac
    results = []
    for (k, r), (m, s) in pairs:
        bracket = vf_bracket(cfg, GradedElement.unit(-1, k, r),
                             GradedElement.unit(-1, m, s))
        scaled = [(hu, fac * cb) for hu, cb in bracket.terms.items()]
        per_slice = {}
        is_scalar = True
        counterexample = None
        for d in window:
            basis = module.slice_basis(d)
            sigma = None
            for mono in basis:
                base = (1, {mono: 1})
                w1 = apply_L_raw(module, (m, s), base)
                w1 = apply_L_raw(module, (k, r), w1)
                w2 = apply_L_raw(module, (k, r), base)
                w2 = apply_L_raw(module, (m, s), w2)
                acc = {}
                den = add_scaled(1, acc, *w1, f2.num, f2.den)
                den = add_scaled(den, acc, *w2, -f2.num, f2.den)
                for hu, c in scaled:
                    wb = apply_L_raw(module, hu, base)
                    den = add_scaled(den, acc, *wb, -c.num, c.den)
                den, diff = canonical(den, acc)
                got = Rat(diff.get(mono, 0), den)
                if sigma is None:
                    sigma = got
                if got != sigma or any(m2 != mono for m2 in diff):
                    is_scalar = False
                    counterexample = (d, mono, ModuleVector(rats(den, diff)))
                    break
            per_slice[d] = sigma
            if not is_scalar:
                break
        scalars = set(per_slice.values())
        common = scalars.pop() if len(scalars) == 1 else None
        if common is None:
            is_scalar = False
        chi = cocycle_chi(cfg, GradedElement.unit(-1, k, r),
                          GradedElement.unit(-1, m, s), R_ZERO)
        ratio = None
        if is_scalar and chi.num != 0:
            ratio = common / chi
        results.append(AuditEntry(((k, r), (m, s)), is_scalar,
                                  common if common is not None else RAT0,
                                  chi, ratio, per_slice, counterexample))
    return results
