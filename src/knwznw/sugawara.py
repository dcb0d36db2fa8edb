"""Sugawara operators from the normal-ordered current square.

The energy-momentum field is half the normal-ordered contraction of the
currents over a dual pair of gauge-algebra bases.  Pairing it against the
vector field e_{k,r} through the weight-(-1)/weight-2 duality collapses
the contour integral to exact triple-residue coefficients

    c_{(n,p),(m,s)} = sum_i res_{P_i}( w^{n,p} w^{m,s} e_{k,r} ),

with w^{n,p} the weight-one dual basis, and

    L(k,r) = 1/2 sum_i sum_{(n,p),(m,s)} c_{(n,p),(m,s)} :u_i(n,p) u^i(m,s): .

Normal ordering moves strictly positive degrees right and strictly
negative degrees left; a degree-0/degree-0 pair keeps its written order
(the swapped tie rule is exposed for the equivalence audit).  On an
admissible module every application is a finite sum: for a vector of
degree d only mode indices n in [t + d, -d] can contribute to total
degree t, which the implementation uses as its summation bound.

L(k,r) is linear, so its image of each PBW monomial is computed once per
module and memoised (`apply_L_raw`) as an integer form (D, {monomial:
int}) of the kernel.  One image writes u^i = sum_j D_ij u_j once, reads
only the nonzero coefficients from a sparse table per (k, r), applies
each second normal-ordered operator once per distinct operator and each
first operator once to the sum of its arguments (`_L_image`).  Images
and the commutator audit's difference are integer forms; Rat is built
only by `apply_L` and for the audit's scalar and counterexample.

The rescaled operators -1/(level + dual Coxeter) L(k,r) represent the
centrally extended vector-field algebra; the audit measures the central
scalar instead of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ._kernel import RAT0, Rat, add_scaled, canonical, form, rats
from .algebras import R_ZERO, cocycle_chi, vf_bracket
from .basis import GradedElement, KNIndex, kn_basis_element, residue_sum
from .errors import CriticalLevelError, DomainError
from .modules import ModuleVector


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
        w1 = kn_basis_element(cfg, KNIndex(1, -n, p)).form(cfg)
        w2 = kn_basis_element(cfg, KNIndex(1, -m, s)).form(cfg)
        e = kn_basis_element(cfg, KNIndex(-1, k, r)).form(cfg)
        hit = residue_sum(cfg, w1 * w2, e)
        cfg.cache[key] = hit
    return hit


def _table_row(cfg, key, t, n, build):
    """Row (t, n) of the sparse table cfg.cache[key], built on demand."""
    table = cfg.cache.get(key)
    if table is None:
        table = cfg.cache[key] = {}
    hit = table.get((t, n))
    if hit is None:
        hit = table[(t, n)] = build()
    return hit


def _triple_row(cfg, k, r, t, n):
    """The nonzero c_{(n,p),(t-n,s)} of L(k, r) as a tuple of (p, s, c)."""
    def build():
        pts = range(1, cfg.n_points + 1)
        return tuple((p, s, c) for p in pts for s in pts
                     for c in (_triple_coefficient(cfg, k, r, n, p, t - n, s),)
                     if c.num != 0)
    return _table_row(cfg, ("sugw3rows", k, r), t, n, build)


def _current_terms(cfg, alg, k, r, swap, t, n):
    """The terms of L(k, r) at total t and mode n, grouped by the operator
    that acts second.  A term is c/2 D_ij :u_i(n,p) u_j(t-n,s): for
    c = c_{(n,p),(t-n,s)} != 0 and u^i = sum_j D_ij u_j; its operators are
    a = (n, p, i) and b = (t-n, s, j), applied as first.(second.mono) with
    (first, second) = (a, b), or (b, a) when swap.  The row is
    ((second, ((first, num, den), ...)), ...) with c/2 D_ij = num/den.
    One table per algebra, (k, r) and swap, so every image shares these
    generator tuples (they key the module's action memo)."""
    def build():
        groups = {}
        for p, s, c in _triple_row(cfg, k, r, t, n):
            for i, dual in enumerate(alg.dual_vectors):
                for j, d in enumerate(dual):
                    if d.num != 0:
                        a, b = (n, p, i), (t - n, s, j)
                        first, second = (b, a) if swap else (a, b)
                        v = c * _HALF * d
                        groups.setdefault(second, []).append(
                            (first, v.num, v.den))
        return tuple((second, tuple(firsts))
                     for second, firsts in groups.items())
    return _table_row(cfg, ("sugw-terms", alg.kind, k, r, swap), t, n,
                      build)


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


def _L_image(module, k, r, tie_swap, extra_margin, mono):
    """L(k, r) on one monomial, as an integer form (D, {monomial: int}).

    Each term c/2 D_ij :u_i(n,p) u_j(m,s): is normal ordered into
    first.(second.mono).  Each distinct second operator acts once per
    (t, n); its image, scaled by each of its terms, is summed into the
    argument of the first operator, and each first operator then acts once
    on its argument.  Both phases sum integer numerators over one
    widening denominator (`add_scaled`).
    """
    cfg = module.cfg
    alg = module.alg
    act = module._act_form
    t_lo, t_hi = total_degree_band(cfg, k)
    dv = mono.degree
    groups = {}  # first operator -> [den, {monomial: int}] it acts on
    for t in range(t_lo, t_hi + 1):
        for n in range(t + dv - extra_margin, -dv + extra_margin + 1):
            m = t - n
            # positive degrees go right, negative degrees left; a
            # degree-0/degree-0 pair keeps its written order unless swapped
            swap = ((n > 0 and m <= 0) or (m < 0 and n >= 0)
                    or (tie_swap and n == 0 and m == 0))
            for second, firsts in _current_terms(cfg, alg, k, r, swap, t, n):
                dm, mid = act(second, mono)
                if not mid:
                    continue
                for first, num, den in firsts:
                    arg = groups.get(first)
                    if arg is None:
                        arg = groups[first] = [1, {}]
                    arg[0] = add_scaled(arg[0], arg[1], dm, mid, num, den)
    den, acc = 1, {}
    for first, (aden, arg) in groups.items():
        for m2, x in arg.items():
            if x:
                d2, t2 = act(first, m2)
                if t2:
                    den = add_scaled(den, acc, d2, t2, x, aden)
    return canonical(den, acc)


def apply_L_raw(module, idx, vec, tie_swap=False, extra_margin=0):
    """Exact L(k, r) on an integer form vec = (D, {monomial: int}), as a
    canonical integer form.

    L(k, r) is linear, so the image of each monomial is computed once per
    module and memoised under ((k, r), tie_swap, extra_margin, monomial)
    (`_L_image`); the image of vec sums the cached numerators scaled by
    vec's numerators over one denominator.  Both flags are in the key, so
    the tie-rule and summation-bound audits compare two computations,
    never one cached image with itself.  Memoised images are never
    mutated.
    """
    k, r = kr = tuple(idx)
    tie_swap = bool(tie_swap)
    memo = module._sugawara_memo
    vden, terms = vec
    den, acc = 1, {}
    for mono, cm in terms.items():
        key = (kr, tie_swap, extra_margin, mono)
        img = memo.get(key)
        if img is None:
            img = memo[key] = _L_image(module, k, r, tie_swap, extra_margin,
                                       mono)
        if img[1]:
            den = add_scaled(den, acc, *img, cm, 1)
    return canonical(den * vden, acc)


def apply_L(module, idx, v, tie_swap=False, extra_margin=0):
    """L(k, r) on a module vector: the exact image, whatever its degrees.
    The one place a Sugawara image becomes Rat."""
    return ModuleVector(rats(*apply_L_raw(module, SugawaraIndex(*idx),
                                          form(v.terms), tie_swap,
                                          extra_margin)))


def rescale_factor(alg, level):
    den = level + alg.k_dual
    if den.num == 0:
        raise CriticalLevelError(
            "critical level: level + dual Coxeter number = 0")
    return Rat(-1) / den


def rescaled_L(module, idx, v, tie_swap=False):
    """-1/(level + dual Coxeter) times L(k, r)."""
    f = rescale_factor(module.alg, module.level)
    return apply_L(module, idx, v, tie_swap=tie_swap).scale(f)


def T_of_vectorfield(module, l, v, tie_swap=False):
    """Sugawara operator attached to a vector field.

    l is a weight-(-1) graded element; duality collapses the contour
    pairing to the sum of its coefficients times the rescaled operators.
    """
    if not isinstance(l, GradedElement) or l.lam != -1:
        raise DomainError("expected a weight -1 graded element")
    f = rescale_factor(module.alg, module.level)
    out = ModuleVector({})
    for (k, r), c in l.terms.items():
        out = out + apply_L(module, SugawaraIndex(k, r), v,
                            tie_swap=tie_swap).scale(f * c)
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


def sugawara_commutator_audit(cfg, alg, module, pairs, window,
                              tie_swap=False):
    """Measure [L*_{k,r}, L*_{m,s}] - L*_{[e_{k,r}, e_{m,s}]} on the window.

    The difference must be a scalar multiple of the identity on every
    slice (zero when the slices do not match); the common scalar and its
    ratio to the zero-connection cocycle are reported.  Every image is
    exact, so any slice d <= 0 may be audited, whatever the module depth;
    a slice d > 0 is empty and raises DomainError.
    """
    for d in window:
        if d > 0:
            raise DomainError("window slice %d is empty; need d <= 0" % d)
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
                w1 = apply_L_raw(module, (m, s), base, tie_swap)
                w1 = apply_L_raw(module, (k, r), w1, tie_swap)
                w2 = apply_L_raw(module, (k, r), base, tie_swap)
                w2 = apply_L_raw(module, (m, s), w2, tie_swap)
                acc = {}
                den = add_scaled(1, acc, *w1, f2.num, f2.den)
                den = add_scaled(den, acc, *w2, -f2.num, f2.den)
                for hu, c in scaled:
                    wb = apply_L_raw(module, hu, base, tie_swap)
                    den = add_scaled(den, acc, *wb, -c.num, c.den)
                den, diff = canonical(den, acc)
                got = Rat(diff.get(mono, 0), den)
                if sigma is None:
                    sigma = got
                if got != sigma or any(m2 != mono for m2 in diff):
                    is_scalar = False
                    counterexample = (d, mono, ModuleVector(rats(den, diff)))
                    break
            per_slice[d] = sigma if sigma is not None else RAT0
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
