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
(D, {code: int}) over monomial codes (`modules`; plans hold digits).  A
vacuum monomial has degree 0 and is summed over the term plan of degree
0 (`_term_plan`), which writes u^i = sum_j D_ij u_j and groups the terms
by the operator that acts first.  A monomial c1.w, with c1 = (n, p, i)
the first entry of its creation string, follows from the image of w by
the current relation of the global Sugawara construction (Schlichenmaier
and Sheinman, Russian Math. Surveys 54 (1999)), [L(e), x(A)] =
-(level + h^v) x(e.A) (`_L_image`):

    L(c1.w) = c1.L(w) - (level + h^v) x_i(e_{k,r}.A_{n,p}).w,

with L(w) read from the image memo.  A monomial of L(w) whose string is
empty or starts at or after c1 takes c1 in front by one integer write;
c1 acts on the others (`_act_form`).  The relation's terms, over the
cached Lie-derivative entry e_{k,r}.A_{n,p}, are memoised per module
and (k, r, c1, degree of w) (`_relation_plan`): their scalar carries the
level.  The degree of w is that of c1.w minus n, carried down the
recursion; only an image whose caller gives no degree reads it off the
code's digits, and the audit gives the degree of its slice.  The term
plan applied directly stays the definition of L, and the oracle the
relation is checked against: the verify check `summation-bounds`
compares the engine's images with the wider plan of degree d - 3
applied to each monomial, on a module with h^v != 0.

Images are integer forms, summed with the kernel's `add_scaled`.
`apply_L_raw` hands a caller a fresh one, or adds a scaled image into
the caller's accumulator: the commutator audit sums each identity on a
monomial into one accumulator, reading memoised images in place, and
takes `canonical` once.  Rat and `PBWMonomial` are built only by
`apply_L` and for the audit's scalar and counterexample.

The rescaled operators -1/(level + dual Coxeter) L(k,r) represent the
centrally extended vector-field algebra; the audit measures the central
scalar instead of assuming it.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from ._kernel import RAT0, Rat, add_scaled, canonical, form
from .algebras import (R_ZERO, _unit_lie_derivative, cocycle_chi,
                       vf_bracket)
from .basis import (GradedElement, KNIndex, kn_basis_element,
                    monomial_residue)
from .errors import CriticalLevelError, DomainError
from .modules import ModuleVector, mode_digit


_HALF = Rat(1, 2)


class SugawaraIndex(NamedTuple):
    k: int
    r: int


class TripleCoefficientTable(NamedTuple):
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
    operator that acts first.

    A term is c/2 D_ij :u_i(n,p) u_j(t-n,s): for t in the structural
    band (`total_degree_band`), n in [t + dv, -dv] (the summation
    bound), c = c_{(n,p),(t-n,s)} != 0 and u^i = sum_j D_ij u_j.  Its
    operators a = (n, p, i) and b = (t-n, s, j), as digits, are applied
    as first.(second.mono) with (first, second) = (a, b), or (b, a) when
    normal ordering swaps them.  The plan is (den, ((second, ((first,
    num), ...)), ...)), every (t, n) merged, with num/den the summed
    coefficient of the pair: one denominator for the whole plan.  One
    plan per (algebra, k, r, dv) in cfg.cache, so every monomial of
    degree dv shares it, and its digits key the module's action memo.
    The plan of a lower degree holds every term of this one and more
    modes past the bound; the check `summation-bounds` applies such a
    plan directly (`_apply_plan`)."""
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
                            a = mode_digit(cfg, alg, (n, p, i))
                            b = mode_digit(cfg, alg, (m, s, j))
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


def _image(module, k, r, code, degree=None):
    """The memoised image of one monomial code (`_L_image`), in the image
    memo `_sugawara_memo[(k, r)]`; never mutated.  A caller that knows
    the monomial's degree passes it."""
    images = module._sugawara_memo[(k, r)]
    img = images.get(code)
    if img is None:
        img = images[code] = _L_image(module, k, r, code, degree)
    return img


def _relation_scalar(module):
    """-(level + h^v), the scalar of [L(e), x(A)] = -(level + h^v) x(e.A)."""
    return -(module.level + module.alg.k_dual)


def _relation_plan(module, k, r, c1, top):
    """[L(k, r), c1] on monomials w of degree -top, c1 = (n, p, i), as
    (den, (((m, q, i), num), ...)) over digits, the terms -(level + h^v)
    l_{m,q} x_i(m, q) over e_{k,r}.A_{n,p} = sum l_{m,q} A_{m,q}, the
    cached weight-0 unit entry of the Lie derivative.  A term with m > top
    sends w past slice 0 and is dropped; at the critical level there is
    none.  The scalar carries the level, so the plans are memoised per
    module (`InducedModule._relation_plans`), never on the configuration."""
    key = (k, r, c1, top)
    plan = module._relation_plans.get(key)
    if plan is None:
        s, (n, p, i) = _relation_scalar(module), module.generator(c1)
        lden, lnums = _unit_lie_derivative(module.cfg, (k, r), 0, (n, p))
        plan = module._relation_plans[key] = (lden * s.den, tuple(
            (mode_digit(module.cfg, module.alg, (m, q, i)), s.num * x)
            for (m, q), x in lnums.items() if m <= top) if s.num else ())
    return plan


def _L_image(module, k, r, code, degree):
    """L(k, r) on one monomial code, as an integer form (D, {code: int}).

    A vacuum monomial is summed over the term plan of degree 0
    (`_term_plan`).  A monomial c1.w follows from the current relation
    L(c1.w) = c1.L(w) + [L(k, r), c1].w (`_relation_plan`), with L(w)
    read from the image memo.  A monomial of L(w) whose string is empty
    or starts at or after c1 takes c1 in front by one write (the shifts of
    `_prepend`), its numerator scaled to the current denominator; c1 acts
    on the others (`_act_form`).  The degree of w is that of c1.w minus n
    when a caller gave it; else it is read off w's digits.
    """
    c1, w = module._peel(code)
    if not c1:
        return _apply_plan(module, _term_plan(module.cfg, module.alg, k, r,
                                              0), code)
    act = module._act_form
    dw = (module.code_degree(w) if degree is None
          else degree - module.generator(c1)[0])
    wden, wnums = _image(module, k, r, w, dw)
    vb, vmask, dmask = module._vbits, module._vmask, module._dmask
    shift, head = module._dbits + vb, c1 << vb
    den, acc = wden, {}
    for m2, x in wnums.items():
        first = m2 >> vb & dmask
        if not first or c1 <= first:
            m3 = m2 >> vb << shift | head | m2 & vmask
            acc[m3] = acc.get(m3, 0) + x * (den // wden)
        else:
            d2, t2 = act(c1, m2)
            if t2:
                den = add_scaled(den, acc, d2, t2, x, wden)
    rden, rterms = _relation_plan(module, k, r, c1, -dw)
    for gen, num in rterms:
        d2, t2 = act(gen, w)
        if t2:
            den = add_scaled(den, acc, d2, t2, num, rden)
    return canonical(den, acc)


def _apply_plan(module, plan, base):
    """A plan (den, ((second, ((first, num), ...)), ...)) applied to the
    monomial code base, as a canonical integer form.

    Each second acts once on base; its image, scaled by each of its
    terms, is summed with `add_scaled` into an integer form of its own
    for each first.  Then each first acts once on each monomial of its
    form, summed into one accumulator.  Actions come from `_act_form`,
    which owns the module's action memo.
    """
    act = module._act_form
    pden, terms = plan
    args = {}  # first -> [den, {code: int}]
    for second, firsts in terms:
        dm, mid = act(second, base)
        if not mid:
            continue
        for first, num in firsts:
            arg = args.get(first)
            if arg is None:
                arg = args[first] = [1, {}]
            arg[0] = add_scaled(arg[0], arg[1], dm, mid, num, pden)
    den, acc = 1, {}
    for first, (aden, arg) in args.items():
        for m2, x in arg.items():
            if x:
                d2, t2 = act(first, m2)
                if t2:
                    den = add_scaled(den, acc, d2, t2, x, aden)
    return canonical(den, acc)


def apply_L_raw(module, idx, vec, into=None, a=1, b=1):
    """Exact L(k, r) on an integer form vec = (D, {code: int}), as a fresh
    canonical integer form; or, given a caller's accumulator
    into = (den, acc), a/b L(k, r) vec added into it (acc is extended in
    place and may hold zero numerators), returning the new (den, acc).

    L(k, r) is linear, so the image of each monomial is computed once per
    module and memoised (`_image`); the image of vec sums the cached
    numerators scaled by vec's numerators over one denominator.  Neither
    vec nor a memoised image is mutated, so vec may be a memoised image
    itself.
    """
    k, r = idx
    vden, terms = vec
    den, acc = into or (1, {})
    e = b * vden
    for code, cm in terms.items():
        img = _image(module, k, r, code)
        if img[1]:
            den = add_scaled(den, acc, *img, a * cm, e)
    return (den, acc) if into else canonical(den, acc)


def apply_L(module, idx, v):
    """L(k, r) on a module vector: the exact image, whatever its degrees.
    The one place a Sugawara image becomes Rat."""
    vec = form({module.encode(m): c for m, c in v.terms.items()})
    return ModuleVector(module.decode_form(*apply_L_raw(module, idx, vec)))


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


class AuditEntry(NamedTuple):
    pair: tuple               # ((k, r), (m, s))
    is_scalar: bool
    scalar: Rat               # the measured central scalar (0 if none)
    chi: Rat                  # chi_0(e_{k,r}, e_{m,s})
    ratio: object             # scalar / chi, or None when chi == 0
    per_slice: dict
    counterexample: object


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
            basis = module._slice_codes(d)
            sigma = None
            for mono in basis:
                # f2 L_kr(L_ms mono) - f2 L_ms(L_kr mono) - sum c L_hu mono,
                # summed into one accumulator; the inner images are read
                # from the memo in place
                acc = (1, {})
                for outer, inner, fnum in (((k, r), (m, s), f2.num),
                                           ((m, s), (k, r), -f2.num)):
                    acc = apply_L_raw(module, outer,
                                      _image(module, *inner, mono, d), acc,
                                      fnum, f2.den)
                den, acc = acc
                for hu, c in scaled:
                    hden, hnums = _image(module, *hu, mono, d)
                    if hnums:
                        den = add_scaled(den, acc, hden, hnums, -c.num, c.den)
                den, diff = canonical(den, acc)
                got = Rat(diff.get(mono, 0), den)
                if sigma is None:
                    sigma = got
                if got != sigma or any(m2 != mono for m2 in diff):
                    is_scalar = False
                    counterexample = (d, module.decode(mono), ModuleVector(
                        module.decode_form(den, diff)))
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
