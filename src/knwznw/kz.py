"""Formal Knizhnik-Zamolodchikov system on the configuration space.

At genus zero the configuration directions are the N point-moving vector
fields: e_{-1,p} has leading term d/dxi_p at P_p and a zero at every other
marked point (for N >= 3 the three global vector fields make the N fields
span the N-3 true moduli directions with a kernel; the raw fields are kept
and the kernel is reported as metadata).

The connection matrix in direction p is the Sugawara operator of e_{-1,p}
on the degree-zero slice, which holds the coinvariant representative of
every vector at genus 0, so no system is partial.  The emitted system reads

    dPhi/dz_p = -A_p Phi .

Measured matrices decompose exactly as

    A_p = kappa * sum_{j != p} Omega_{pj} / (z_p - z_j) + sigma_p * Id,

one global kappa with |kappa| = 1/(level + dual Coxeter), and per-point
scalar shifts sigma_p.  The shifts are the conformal-weight part of the
connection (a closed scalar form absorbed by rescaling the unknown); they
obey the closed formula

    sigma_p = -1/(2(level+k)) [ C_p sum_{l!=p} 1/(z_p - z_l)
                                + sum_{q != p} E_p'(z_q) C_q ]

with C the Casimir eigenvalues of the local modules and E_p the
coefficient function of e_{-1,p}.  The fit reports kappa, the shifts and
the residual, which must vanish identically.

Only zero modes keep the degree, and on the degree-zero slice, the
tensor product of the irreps at the points, x_(0,q,i) acts as x_i on
factor q.  So A_p = f/2 sum_{q <= s} (c^p_qs + c^p_sq) O_qs (c^p_qq
alone), f the rescaling factor and c^p_qs = c^p_sq the zero-mode triple
coefficients of L(-1, p); the N directions and the oracle share the
Casimir products O_qs, placed from the local tensors that `finite_lie`
builds once per irrep or pair of irreps, and no module is induced.  A
point whose irrep acts by zero (weight 0) has no O_qs, and no c^p_qs
with q or s there is read.
Every operator is a canonical integer form (D, {(row, column): int}) of
its nonzero entries: `KZSystem.matrices`, `classical_oracle_matrices`
and a flatness counterexample; `Rat` is built only for kappa and the
shifts.
"""

from __future__ import annotations

from itertools import permutations
from math import prod
from typing import NamedTuple, Optional

from ._kernel import RAT0, RAT1, Rat, add_scaled, canonical, form
from .basis import GradedElement, KNIndex, kn_basis_element
from .errors import DomainError
from .finite_lie import (casimir_eigenvalue, finite_irrep, int_entries,
                         int_entry_product, local_casimir, make_algebra,
                         omega_entries, tensor_strides)
from .ratfield import INFINITY
from .sugawara import _triple_coefficient, rescale_factor


def tangent_fields(cfg):
    """The N point-moving fields e_{-1,p}, with verified local behavior.

    Returns (fields, metadata): fields as weight -1 graded elements;
    metadata records per point the leading term at its own point and the
    vanishing order at the others, plus the global-field kernel count.
    """
    fields = []
    meta = {"per_point": {}, "n_points": cfg.n_points,
            "moduli_directions": max(0, cfg.n_points - 3),
            "global_field_kernel": min(3, cfg.n_points)}
    for p in range(1, cfg.n_points + 1):
        sec = kn_basis_element(cfg, KNIndex(-1, -1, p))
        form = sec.form(cfg)
        if form.order(p - 1) != 0 or form.jet(cfg, p - 1, 1)[0] != RAT1:
            raise DomainError("point-moving field not normalized at P_%d" % p)
        others = {}
        for q in range(1, cfg.n_points + 1):
            if q != p:
                o = form.order(q - 1)
                if o < 1:
                    raise DomainError(
                        "e_{-1,%d} does not vanish at P_%d" % (p, q))
                others[q] = o
        meta["per_point"][p] = {
            "leading": "d/dxi_%d" % p,
            "zero_orders": others,
            "order_at_infinity": sec.order_at(INFINITY),
        }
        fields.append(GradedElement.unit(-1, -1, p))
    return fields, meta


class KZSystem(NamedTuple):
    """Fitted KZ data: kappa None for a degenerate fit, scalar_shifts None
    where not scalar, sign_convention +1, -1 or None, partial always False;
    matrices are canonical integer forms (D, {(row, column): int})."""
    config: object
    algebra_kind: str
    weights: tuple
    level: Rat
    matrices: list
    kappa: Optional[Rat]
    scalar_shifts: list
    sign_convention: Optional[int]
    residual_zero: bool
    partial: bool


def _casimir_products(cfg, alg, weights):
    """(dim, O, M): the dimension of the product of the irreps; the
    integer forms O_qs = sum_ij D_ij x_i^(q) x_j^(s), q <= s 0-based with
    both irreps acting (Omega_qs for q < s, the Casimir of factor q for
    q = s), each placed from its cached local tensor; and the oracle
    M_p = sum_{j != p} Omega_pj / (z_p - z_j)."""
    mods = [finite_irrep(alg, w) for w in weights]
    dim, strides = prod(m.dim for m in mods), tensor_strides(mods)
    acting = [q for q, m in enumerate(mods) if any(m.entries)]
    table, n = {}, cfg.n_points
    dens, accs = [1] * n, [{} for _ in range(n)]
    for a, q in enumerate(acting):
        den, local = local_casimir(alg, mods[q])
        sq, dq = strides[q], mods[q].dim
        bases = [b for b in range(dim) if (b // sq) % dq == 0]
        table[q, q] = den, {(b + r * sq, b + c * sq): v
                            for (r, c), v in local.items() for b in bases}
        for s in acting[a + 1:]:
            omega = table[q, s] = form({(r, c): v for r, c, v
                                        in omega_entries(alg, mods, q, s)})
            fac = RAT1 / (cfg.points[q] - cfg.points[s])
            for i, x in ((q, fac.num), (s, -fac.num)):
                dens[i] = add_scaled(dens[i], accs[i], *omega, x, fac.den)
    return dim, table, [canonical(den, acc) for den, acc in zip(dens, accs)]


def classical_oracle_matrices(cfg, alg, weights):
    """sum_{j != p} Omega_{pj} / (z_p - z_j) for each p, as canonical
    integer forms, from the finite-dimensional Casimir tensor only."""
    return _casimir_products(cfg, alg, weights)[2]


def predicted_scalar_shift(cfg, alg, weights, level, p):
    """Closed-form conformal-weight shift of the direction-p matrix."""
    fac = rescale_factor(alg, level) * Rat(1, 2)
    mover = kn_basis_element(cfg, KNIndex(-1, -1, p)).form(cfg)
    zs = cfg.points
    zp = zs[p - 1]
    own = RAT0
    for l in range(1, cfg.n_points + 1):
        if l != p:
            own = own + RAT1 / (zp - zs[l - 1])
    total = casimir_eigenvalue(alg, weights[p - 1]) * own
    for q in range(1, cfg.n_points + 1):
        # E_p'(z_q), the xi-linear coefficient of e_{-1,p} at P_q: the
        # jet starts at the vanishing order, so it is read at order 1
        if q != p and mover.order(q - 1) == 1:
            total = total + (mover.jet(cfg, q - 1, 1)[0]
                             * casimir_eigenvalue(alg, weights[q - 1]))
    return fac * total


def _dot(a, b, dim):
    """Frobenius product of the traceless parts of two integer forms
    a = (D_a, {(row, column): int}) and b, (dim sum a_ij b_ij - tr a tr b)
    / (dim D_a D_b), summed in ints over the nonzero entries."""
    (da, ea), (db, eb) = a, b
    if len(eb) < len(ea):
        ea, eb = eb, ea
    dot = sum(x * eb[rs] for rs, x in ea.items() if rs in eb)
    return Rat(dim * dot - _trace(ea, dim) * _trace(eb, dim), dim * da * db)


def _trace(entries, dim):
    return sum(entries.get((i, i), 0) for i in range(dim))


def _scalar_part(a, m, kappa, dim):
    """s when a - kappa m = s Id, else None, for integer forms (D_a, A)
    and (D_m, M) and kappa = k_n/k_d: entry rs is e_rs/(D_a k_d D_m), and
    the ints e_rs = A_rs k_d D_m - k_n M_rs D_a are compared."""
    (da, ea), (dm, em) = a, m
    fa, fm = kappa.den * dm, kappa.num * da

    def entry(rs):
        return ea.get(rs, 0) * fa - em.get(rs, 0) * fm
    s = entry((0, 0))
    if s and any((i, i) not in ea and (i, i) not in em for i in range(dim)):
        return None
    for rs in ea.keys() | em.keys():
        if entry(rs) != (s if rs[0] == rs[1] else 0):
            return None
    return Rat(s, da * fa)


def kz_matrices(cfg, alg, weights, level, depth=None):
    """Measure A_p from the Casimir products, fit kappa M_p + sigma_p Id
    exactly; `depth` is unread (`perfbench/workloads.py` passes it)."""
    level = level if isinstance(level, Rat) else Rat(level)
    if len(weights) != cfg.n_points:
        raise DomainError("need one weight per marked point")
    dim, table, oracle = _casimir_products(cfg, alg, weights)
    fac = rescale_factor(alg, level)  # raises at the critical level
    half = fac * Rat(1, 2)
    measured = []
    for p in range(1, cfg.n_points + 1):
        den, mat = 1, {}
        for (q, s), o in table.items():
            c = _triple_coefficient(cfg, -1, p, 0, q + 1, 0, s + 1)
            if q != s:  # O_sq = O_qs and c_sq = c_qs: the duals commute
                c = c + c
            if c.num:
                c = c * half
                den = add_scaled(den, mat, *o, c.num, c.den)
        measured.append(canonical(den, mat))
    kappa = sign = None
    den = sum((_dot(m, m, dim) for m in oracle), RAT0)
    if den.num != 0:
        num = sum((_dot(a, m, dim) for a, m in zip(measured, oracle)), RAT0)
        kappa = num / den
    elif any(entries for _, entries in oracle):
        # oracle matrices are scalar (abelian): use the structural value
        kappa = fac
    if kappa is not None:
        sign = 1 if kappa > 0 else -1
    # fully degenerate (all-zero oracle): the matrices must be scalar
    shifts = [_scalar_part(a, m, RAT0 if kappa is None else kappa, dim)
              for a, m in zip(measured, oracle)]
    residual_zero = all(s is not None for s in shifts)
    return KZSystem(cfg, alg.kind, tuple(weights), level, measured, kappa,
                    shifts, sign, residual_zero, False)


class FlatnessReport(NamedTuple):
    holds: bool
    vacuous: bool
    checked_relations: int
    counterexample: object = None


def flatness_check(system):
    """Infinitesimal-braid relations [Omega_pq, Omega_pr + Omega_qr] = 0
    of the fitted classical form, for distinct p, q, r: the algebraic
    identity equivalent to its flatness.  Omega_pq is the identity on
    every factor but p and q, so each relation is checked on
    V_p (x) V_q (x) V_r alone, once per weight key (w_p, w_q, w_r) with
    w_p <= w_q (the relation is symmetric in p and q).  Swapping a point
    past the first three of its weight for an unused one of those three
    keeps a triple's key and makes the triple lexicographically smaller,
    so the first triple of each key, and so the first failure, is among
    the ordered triples of those points, which are walked alone; a
    success counts every ordered triple, N(N-1)(N-2).  The commutator is
    summed in ints on the nonzero entries of the three Omegas, placed from
    the cached local tensors, over one denominator (`omega_entries`,
    `int_entry_product`); the verdict is computed on every call.  A
    counterexample is ((p, q, r), the commutator on those factors as a
    canonical integer form), the first failing ordered triple;
    checked_relations is then its rank in the walk.  Disjoint pairs
    commute by construction.  Exact; vacuous for N = 2.
    """
    cfg = system.config
    n = cfg.n_points
    if n < 3:
        return FlatnessReport(True, True, 0)
    alg = make_algebra(system.algebra_kind)
    ws = system.weights
    firsts = [i for i, w in enumerate(ws) if ws[:i].count(w) < 3]
    local = {}  # weight key -> the commutator on the three factors
    for checked, (p, q, r) in enumerate(permutations(firsts, 3), 1):
        # the relation of (p, q, r) is that of (q, p, r)
        a, b = (q, p) if ws[q] < ws[p] else (p, q)
        key = (ws[a], ws[b], ws[r])
        lhs = local.get(key)
        if lhs is None:
            mods = [finite_irrep(alg, w) for w in key]
            pq, pr, qr = (omega_entries(alg, mods, i, j)
                          for i, j in ((0, 1), (0, 2), (1, 2)))
            den, ents = int_entries(pq + pr + qr)
            pq, rest = ents[:len(pq)], ents[len(pq):]
            acc = int_entry_product(pq, rest)
            add_scaled(1, acc, 1, int_entry_product(rest, pq), -1, 1)
            lhs = local[key] = canonical(den * den, acc)
        if lhs[1]:
            return FlatnessReport(False, False, checked, ((a, b, r), lhs))
    return FlatnessReport(True, False, n * (n - 1) * (n - 2))
