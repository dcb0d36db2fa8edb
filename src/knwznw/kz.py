"""Formal Knizhnik-Zamolodchikov system on the configuration space.

At genus zero the configuration directions are the N point-moving vector
fields: e_{-1,p} has leading term d/dxi_p at P_p and a zero at every other
marked point (for N >= 3 the three global vector fields make the N fields
span the N-3 true moduli directions with a kernel; the raw fields are kept
and the kernel is reported as metadata).

The connection matrix in direction p is the Sugawara operator of e_{-1,p}
on the degree-zero slice of the induced module, read modulo the block
algebra: at genus 0 the coinvariant representative of a vector is its
degree-zero part (see `modules.InducedModule.coinvariant_reduce`), so
every image reduces and no system is partial.  The emitted system reads

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

Only zero modes keep the degree, so the N directions share the Casimir
products O_qs = sum_ij D_ij X_{q,i} X_{s,j} of the degree-0 actions.
Every operator is a canonical integer form (D, {(row, column): int}) of
its nonzero entries: `KZSystem.matrices`, `classical_oracle_matrices`
and a flatness counterexample; `Rat` is built only for kappa and the
shifts.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ._kernel import RAT0, RAT1, Rat, add_scaled, canonical, form, merge
from .basis import GradedElement, KNIndex, kn_basis_element
from .errors import DomainError
from .finite_lie import (casimir_eigenvalue, entry_product, finite_irrep,
                         make_algebra, omega_entries)
from .modules import ModuleSpec, induce_module, mode_digit
from .ratfield import INFINITY
from .sugawara import _triple_row, rescale_factor


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


def classical_oracle_matrices(cfg, alg, weights):
    """The matrices sum_{j != p} Omega_{pj} / (z_p - z_j) as canonical
    integer forms (D, {(row, column): int}) of their nonzero entries,
    built from the finite-dimensional Casimir tensor only.  The tensor is
    symmetric, so each Omega_pq is built once per unordered pair and
    enters M_p and M_q through its nonzero entries (`omega_entries`)."""
    mods = [finite_irrep(alg, w) for w in weights]
    n = cfg.n_points
    dens, accs = [1] * n, [{} for _ in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            eden, entries = form({(r, s): v for r, s, v
                                  in omega_entries(alg, mods, p, q)})
            fac = RAT1 / (cfg.points[p] - cfg.points[q])
            for i, a in ((p, fac.num), (q, -fac.num)):
                dens[i] = add_scaled(dens[i], accs[i], eden, entries, a,
                                     fac.den)
    return [canonical(den, acc) for den, acc in zip(dens, accs)]


def point_mover_linear_coefficient(cfg, p, q):
    """E_p'(z_q): the xi-linear coefficient of e_{-1,p} at P_q (q != p)."""
    form = kn_basis_element(cfg, KNIndex(-1, -1, p)).form(cfg)
    # the jet starts at the vanishing order; the linear coefficient is the
    # order-1 coefficient
    if form.order(q - 1) == 1:
        return form.jet(cfg, q - 1, 1)[0]
    return RAT0


def predicted_scalar_shift(cfg, alg, weights, level, p):
    """Closed-form conformal-weight shift of the direction-p matrix."""
    fac = rescale_factor(alg, level) * Rat(1, 2)
    zs = cfg.points
    zp = zs[p - 1]
    own = RAT0
    for l in range(1, cfg.n_points + 1):
        if l != p:
            own = own + RAT1 / (zp - zs[l - 1])
    total = casimir_eigenvalue(alg, weights[p - 1]) * own
    for q in range(1, cfg.n_points + 1):
        if q == p:
            continue
        total = total + (point_mover_linear_coefficient(cfg, p, q)
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


def _casimir_pair(module, basis, q, s):
    """O_qs on the vacuum monomials as an integer form (D, {(row,
    column): int}), row a degree-0 code: x_(0,s,j) acts, then x_(0,q,i)."""
    act, cfg, alg = module._act_form, module.cfg, module.alg
    den, acc = 1, {}
    for i, dual in enumerate(alg.dual_vectors):
        a = mode_digit(cfg, alg, (0, q, i))
        for j, d in enumerate(dual):
            b = mode_digit(cfg, alg, (0, s, j))
            for col, mono in enumerate(basis if d.num else ()):
                dm, mid = act(b, mono)
                for m2, x in mid.items():
                    d2, t2 = act(a, m2)
                    den = add_scaled(den, acc, d2, {
                        (m3, col): y for m3, y in t2.items()},
                        x * d.num, dm * d.den)
    return den, acc


def kz_matrices(cfg, alg, weights, level, depth=None):
    """Measure the connection matrices and fit the classical form.

    Builds the induced module (weyl for sl2, fock for the abelian
    algebra) and reads -1/(level + dual Coxeter) L(-1, p) on its vacuum
    monomials.  A term of total t moves the degree by t, so the
    degree-zero part of an image, its coinvariant representative
    (`coinvariant_reduce`), sums the zero-mode terms: row (0, 0) of the
    triple table (`_triple_row`), empty for N = 1.  O_sq = O_qs, as
    actions on different factors commute and D is symmetric, so each is
    built once, for q <= s (`_casimir_pair`), and enters A_p with
    c^p_qs + c^p_sq.  Each A_p, an integer form (D, {(row, column):
    int}), is fitted as A_p = kappa M_p + sigma_p Id against the sparse
    Casimir oracle M_p (`classical_oracle_matrices`): the traceless dot
    and the scalar test sum and compare ints over the nonzero entries.
    Residuals must vanish exactly.  `matrices` holds the canonical forms
    of the A_p.  `partial` is always False.  The matrices have no depth;
    `depth` is not read, and is accepted because the benchmark's block
    workload (`perfbench/workloads.py`) passes it by position.
    """
    level = level if isinstance(level, Rat) else Rat(level)
    kind = "fock" if alg.kind == "abelian1" else "weyl"
    module = induce_module(alg, cfg, ModuleSpec(kind, tuple(weights), level))
    fac = rescale_factor(alg, level)  # raises at the critical level
    basis = module._slice_codes(0)
    dim = len(basis)
    half = fac * Rat(1, 2)
    pairs = {}  # (q, s) with q <= s -> O_qs, built on first read
    measured = []
    for p in range(1, cfg.n_points + 1):
        coefs = {}  # O_sq = O_qs, so c_sq adds to c_qs
        for q, s, c in _triple_row(cfg, -1, p, 0, 0):
            qs = (min(q, s), max(q, s))
            coefs[qs] = coefs.get(qs, RAT0) + c * half
        den, mat = 1, {}
        for qs, c in coefs.items():
            if qs not in pairs:
                pairs[qs] = _casimir_pair(module, basis, *qs)
            den = add_scaled(den, mat, *pairs[qs], c.num, c.den)
        measured.append(canonical(den, mat))

    oracle = classical_oracle_matrices(cfg, alg, weights)
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
    w_p <= w_q (the relation is symmetric in p and q), and counted once
    per ordered triple.  The commutator is taken on the nonzero entries
    of the three Omegas (`omega_entries`, `entry_product`).  A
    counterexample is ((p, q, r), the commutator on those factors as a
    canonical integer form).  Disjoint pairs commute by construction.  Exact;
    vacuous for N = 2.
    """
    cfg = system.config
    n = cfg.n_points
    if n < 3:
        return FlatnessReport(True, True, 0)
    alg = make_algebra(system.algebra_kind)
    ws = system.weights
    local = {}  # weight key -> the commutator on the three factors
    checked = 0
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            # the relation of (p, q, r) is that of (q, p, r)
            a, b = (q, p) if ws[q] < ws[p] else (p, q)
            for r in range(n):
                if r in (p, q):
                    continue
                key = (ws[a], ws[b], ws[r])
                lhs = local.get(key)
                if lhs is None:
                    mods = [finite_irrep(alg, w) for w in key]
                    pq, pr, qr = (omega_entries(alg, mods, i, j)
                                  for i, j in ((0, 1), (0, 2), (1, 2)))
                    lhs = local[key] = merge(entry_product(pq, pr + qr),
                                             entry_product(pr + qr, pq),
                                             -RAT1)
                checked += 1
                if lhs:
                    return FlatnessReport(False, False, checked,
                                          ((a, b, r), form(lhs)))
    return FlatnessReport(True, False, checked)
