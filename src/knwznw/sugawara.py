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

L(k,r) is linear and acts on s (x) v through the creation string s, so
its image is computed once per module and string, for every vacuum
vector v at once, and memoised (`_image`) as a block: an integer form
(D, {code << _vbits | v: int}) whose column v is the image of the
monomial s.v (`modules`; plans hold digits).  On the vacuum string the
term plan of degree 0 (`_term_plan`), which writes u^i = sum_j D_ij u_j
and groups the terms by the operator that acts first, is applied to
every v at once.  A string c1.w, with c1 = (n, p, i) its first entry,
follows from the block of w by the current relation of the global Sugawara
construction (Schlichenmaier and Sheinman, Russian Math. Surveys 54
(1999)), [L(e), x(A)] = -(level + h^v) x(e.A) (`_L_image`):

    L(c1.w) = c1.L(w) - (level + h^v) x_i(e_{k,r}.A_{n,p}).w,

with L(w) read from the image memo.  A code of L(w) whose string is
empty or starts at or after c1 takes c1 in front by one integer write;
c1 acts on the others (`InducedModule._create`), and each relation term
adds the action block of its generator on w, once for every v.  The
relation's terms, over the cached Lie-derivative entry e_{k,r}.A_{n,p},
are memoised per module and (k, r, c1, degree of w) (`_relation_plan`):
their scalar carries the level.  The degree of w is that of c1.w minus
n, carried down the recursion; only an image whose caller gives no
degree reads it off the string's digits, and the audit gives the degree
of its slice.  The term plan applied directly stays the definition of
L, and the oracle the relation is checked against: the verify check
`summation-bounds` compares the engine's images with the wider plan of
degree d - 3 applied to each monomial, on a module with h^v != 0.

Images are integer forms, summed with the kernel's `add_scaled`.
`apply_L_raw` applies L to a vector over codes or to every column of a
block on one path: its terms grouped by string meet each string's image
block once (`modules._join`).  It hands a caller a fresh form or adds
into the caller's accumulator:
the commutator audit sums each identity on a string s into one block
over s (x) V, reading memoised images in place, takes `canonical` once
and finds the difference scalar when it is sigma times the identity
there.  Rat and `PBWMonomial` are built only by `apply_L` and for the
audit's scalar and counterexample.

The rescaled operators -1/(level + dual Coxeter) L(k,r) represent the
centrally extended vector-field algebra; the audit measures the central
scalar instead of assuming it.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from ._kernel import RAT0, ZERO_FORM, Rat, add_scaled, canonical, form
from .algebras import (R_ZERO, _unit_lie_derivative, cocycle_chi,
                       vf_bracket)
from .basis import GradedElement, kn_basis_record, monomial_residue
from .errors import CriticalLevelError, DomainError
from .modules import ModuleVector, _join, mode_digit


_HALF = Rat(1, 2)


def _triple_coefficient(cfg, k, r, n, p, m, s):
    key = ("sugw3", k, r, n, p, m, s)
    hit = cfg.cache.get(key)
    if hit is None:
        # each basis element is c M_k, so the product is c1 c2 ce M_K
        w1 = kn_basis_record(cfg, (1, -n, p))._form
        w2 = kn_basis_record(cfg, (1, -m, s))._form
        e = kn_basis_record(cfg, (-1, k, r))._form
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
    """The nonzero coefficients {((n, p), (m, s)): c} of L(k, r), idx =
    (k, r), over a finite band of (n, m) totals.

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
    return entries


def _image(module, k, r, string, degree=None):
    """The memoised image block of one creation string (`_L_image`), in
    the image memo `_sugawara_memo[(k, r)]`; never mutated.  A caller
    that knows the string's degree passes it."""
    images = module._sugawara_memo[(k, r)]
    img = images.get(string)
    if img is None:
        img = images[string] = _L_image(module, k, r, string, degree)
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
    none.  The scalar carries the level, so the plans are memoised with
    the module's other memos (`InducedModule._relation_plans`, one per
    level, the scalar itself under None), never in the configuration's
    cache."""
    plans, key = module._relation_plans, (k, r, c1, top)
    plan = plans.get(key)
    if plan is None:
        s = plans.get(None)
        if s is None:
            s = plans[None] = _relation_scalar(module)
        n, p, i = module.generator(c1)
        lden, lnums = _unit_lie_derivative(module.cfg, (k, r), 0, (n, p))
        plan = plans[key] = (lden * s.den, tuple(
            (mode_digit(module.cfg, module.alg, (m, q, i)), s.num * x)
            for (m, q), x in lnums.items() if m <= top) if s.num else ())
    return plan


def _L_image(module, k, r, string, degree):
    """L(k, r) on s (x) v for one creation string s and every vacuum
    vector v, as a block (D, {code << _vbits | v: int}) (`modules`).

    On the vacuum string the term plan of degree 0 (`_term_plan`) is
    applied directly (`_apply_plan`).  A string c1.w follows from the
    current relation L(c1.w) = c1.L(w) + [L(k, r), c1].w
    (`_relation_plan`), with the block L(w) read from the image memo.  A
    code of L(w) whose string is empty or starts at or after c1 takes c1
    in front by one write; c1 acts on the others
    (`InducedModule._create`).  Each relation term adds the action block
    of its generator on w, once for every v.  The degree of w is that of
    c1.w minus n when a caller gave it; else it is read off w's digits.
    """
    c1 = string & module._dmask
    if not c1:
        plan = _term_plan(module.cfg, module.alg, k, r, 0)
        return _apply_plan(module, plan, string)
    w = string >> module._dbits
    dw = (module.code_degree(w << module._vbits) if degree is None
          else degree - (c1 - module._zero) // module._row)
    den, acc = module._create(c1, _image(module, k, r, w, dw))
    rden, rterms = _relation_plan(module, k, r, c1, -dw)
    act = module._act_block
    for gen, num in rterms:
        d2, t2 = act(gen, w)
        if t2:
            den = add_scaled(den, acc, d2, t2, num, rden)
    return canonical(den, acc)


def _apply_plan(module, plan, string):
    """A plan (den, ((second, ((first, num), ...)), ...)) applied to s (x)
    v for the creation string s and every vacuum vector v, as a canonical
    block (D, {code << _vbits | v: int}).

    Each second acts once on the string, as its action block; that
    block, scaled by each of its terms, is summed with `add_scaled` into
    a block of its own for each first.  Then each first acts once on
    each string of its block (`_join`), summed into one accumulator.
    """
    act, vb = module._act_block, module._vbits
    pden, terms = plan
    args = {}  # first -> [den, {code << _vbits | v: int}]
    for second, firsts in terms:
        dm, mid = act(second, string)
        if not mid:
            continue
        for first, num in firsts:
            arg = args.get(first)
            if arg is None:
                arg = args[first] = [1, {}]
            arg[0] = add_scaled(arg[0], arg[1], dm, mid, num, pden)
    den, acc = 1, {}
    for first, (aden, arg) in args.items():
        for s, cols in module._by_string(arg, vb).items():
            den = _join(den, acc, aden, act(first, s), cols, vb, vb)
    return canonical(den, acc)


def apply_L_raw(module, idx, vec, into=None, a=1, b=1, vb=0):
    """Exact L(k, r) on every column of an integer form vec = (D,
    {code << vb | v: int}), as a fresh canonical integer form over the
    same keys; or, given a caller's accumulator into = (den, acc), a/b
    L(k, r) vec added into it (acc is extended in place and may hold zero
    numerators), returning the new (den, acc).  With vb = 0 vec is one
    vector over codes; with the module's `_vbits` it is a block.

    L(k, r) is linear and acts on s (x) v through the string s, so vec's
    terms are grouped by the string of their code
    (`InducedModule._by_string`), and each string's memoised image block
    (`_image`) is read once, its column u meeting the terms on the code
    s.u (`_join`).  Neither vec nor a memoised image is mutated, so vec
    may be a memoised image itself.
    """
    vden, nums = vec
    den, acc = into or (1, {})
    images, mvb, e = module._sugawara_memo[idx], module._vbits, b * vden
    for string, cols in module._by_string(nums, vb, a).items():
        img = images.get(string) or _image(module, *idx, string)
        if img[1]:
            den = _join(den, acc, e, img, cols, mvb, vb)
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
        out = out + apply_L(module, (k, r), v).scale(f * c)
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
    repeated slice is audited once.  cfg must be the module's
    configuration: DomainError otherwise.
    """
    if cfg != module.cfg:
        raise DomainError("audit at %r of a module at %r" % (cfg, module.cfg))
    window = list(dict.fromkeys(window))
    for d in window:
        if not module.slice_dimension(d):
            raise DomainError("window slice %d is empty; it holds no "
                              "monomial" % d)
    fac = rescale_factor(alg, module.level)
    f2 = fac * fac
    results = []
    n, vb, vmask = module.vac_dim, module._vbits, module._vmask
    for (k, r), (m, s) in pairs:
        bracket = vf_bracket(cfg, GradedElement.unit(-1, k, r),
                             GradedElement.unit(-1, m, s))
        scaled = [(hu, fac * cb) for hu, cb in bracket.terms.items()]
        per_slice = {}
        is_scalar = True
        counterexample = None
        for d in window:
            sigma = None
            for string in module._slice_strings(d):
                # f2 L_kr(L_ms s) - f2 L_ms(L_kr s) - sum c L_hu s on the
                # string s, for every v at once: the inner image blocks
                # are read from the memo in place
                first = string << vb  # the code s.0
                den, acc = 1, {}
                for outer, inner, fnum in (((k, r), (m, s), f2.num),
                                           ((m, s), (k, r), -f2.num)):
                    den, acc = apply_L_raw(
                        module, outer, _image(module, *inner, string, d),
                        (den, acc), fnum, f2.den, vb)
                for hu, c in scaled:
                    hden, hnums = _image(module, *hu, string, d)
                    if hnums:
                        den = add_scaled(den, acc, hden, hnums, -c.num, c.den)
                den, diff = canonical(den, acc)
                if sigma is None:
                    sigma = Rat(diff.get(first << vb, 0), den)
                # scalar on s (x) V: sigma times the identity there
                if (den, diff) == ((sigma.den, dict.fromkeys(
                        module._identity(string), sigma.num))
                        if sigma.num else ZERO_FORM):
                    continue
                # else the first monomial whose column is not sigma times
                # itself: a term off the diagonal, or another one on it
                off = {key & vmask for key in diff
                       if key >> vb != string << vb | key & vmask}
                v = next(v for v in range(n) if v in off or Rat(
                    diff.get((first | v) << vb | v, 0), den) != sigma)
                is_scalar = False
                counterexample = (d, module.decode(first | v),
                                  ModuleVector(module.decode_form(den, {
                                      key >> vb: x for key, x in diff.items()
                                      if key & vmask == v})))
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
