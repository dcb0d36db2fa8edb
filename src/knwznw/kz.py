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

The fit and `flatness_check` read operators as their nonzero entries;
dense `Rat` matrices are built only for output (`KZSystem.matrices`,
`classical_oracle_matrices`, a flatness counterexample).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._kernel import RAT0, RAT1, Rat, merge
from .basis import GradedElement, KNIndex, kn_basis_element
from .errors import DomainError
from .finite_lie import (casimir_eigenvalue, entry_product, finite_irrep,
                         make_algebra, omega_entries)
from .modules import ModuleSpec, induce_module
from .ratfield import INFINITY
from .sugawara import apply_L_raw, rescale_factor


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


class KZSystem:
    """Fitted KZ data: kappa None for a degenerate fit, scalar_shifts None
    where not scalar, sign_convention +1, -1 or None, partial always False.
    A plain object, so a caller may drop `matrices` once it is used."""

    def __init__(self, config, algebra_kind, weights, level, matrices,
                 kappa, scalar_shifts, sign_convention, residual_zero,
                 partial):
        self.config = config
        self.algebra_kind = algebra_kind
        self.weights = weights
        self.level = level
        self.matrices = matrices
        self.kappa = kappa
        self.scalar_shifts = scalar_shifts
        self.sign_convention = sign_convention
        self.residual_zero = residual_zero
        self.partial = partial


def _sparse_oracle(cfg, alg, weights):
    """The matrices sum_{j != p} Omega_{pj} / (z_p - z_j) as
    {(row, column): Rat} dicts of their nonzero entries, built from the
    finite-dimensional Casimir tensor only.  The tensor is symmetric, so
    each Omega_pq is built once per unordered pair and enters M_p and M_q
    through its nonzero entries (`omega_entries`)."""
    mods = [finite_irrep(alg, w) for w in weights]
    n = cfg.n_points
    out = [{} for _ in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            entries = {(r, s): v
                       for r, s, v in omega_entries(alg, mods, p, q)}
            fac = RAT1 / (cfg.points[p] - cfg.points[q])
            merge(out[p], entries, fac)
            merge(out[q], entries, -fac)
    return out


def classical_oracle_matrices(cfg, alg, weights):
    """The Casimir oracle of `_sparse_oracle` as dense matrices."""
    dim = math.prod(finite_irrep(alg, w).dim for w in weights)
    return [_dense(m, dim) for m in _sparse_oracle(cfg, alg, weights)]


def _dense(entries, dim):
    mat = [[RAT0] * dim for _ in range(dim)]
    for (r, s), v in entries.items():
        mat[r][s] = v
    return mat


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
    """Frobenius product of the traceless parts of two sparse matrices:
    sum_ij a_ij b_ij - tr(a) tr(b) / dim, over the nonzero entries."""
    if len(b) < len(a):
        a, b = b, a
    dot = sum((x * b[rs] for rs, x in a.items() if rs in b), RAT0)
    return dot - _trace(a, dim) * _trace(b, dim) / dim


def _trace(m, dim):
    return sum((m[(i, i)] for i in range(dim) if (i, i) in m), RAT0)


def _scalar_part(a, m, kappa, dim):
    """s when a - kappa m = s Id, else None; reads the nonzero entries
    of the sparse matrices a and m only."""
    def entry(rs):
        return a.get(rs, RAT0) - kappa * m.get(rs, RAT0)
    s = entry((0, 0))
    if s.num != 0 and any((i, i) not in a and (i, i) not in m
                          for i in range(dim)):
        return None
    for rs in a.keys() | m.keys():
        if entry(rs) != (s if rs[0] == rs[1] else RAT0):
            return None
    return s


def kz_matrices(cfg, alg, weights, level, depth=None):
    """Measure the connection matrices and fit the classical form.

    Builds the induced module (weyl for sl2, fock for the abelian
    algebra) and applies the Sugawara operator of each point-moving
    field e_{-1,p}, -1/(level + dual Coxeter) L(-1, p), to the degree-zero
    basis as an integer form (`apply_L_raw`).  Each column keeps the
    degree-zero part of its image, its coinvariant representative
    (`coinvariant_reduce`), as a sparse {(row, column): Rat} matrix, and

        A_p = kappa * M_p + sigma_p * Id

    is fitted against the sparse Casimir oracle M_p (`_sparse_oracle`):
    the traceless dot, the scalar test and the residual read nonzero
    entries only.  Residuals must vanish exactly.  The dense `matrices`
    are filled once, for output.  `partial` is always False.  Every
    image is exact, so the matrices have no depth; `depth` is not read,
    and is accepted because the benchmark's block workload
    (`perfbench/workloads.py`) passes it by position.
    """
    level = level if isinstance(level, Rat) else Rat(level)
    kind = "fock" if alg.kind == "abelian1" else "weyl"
    spec = ModuleSpec(kind, tuple(weights), level)
    module = induce_module(alg, cfg, spec)
    fac = rescale_factor(alg, level)  # raises at the critical level
    basis = module.slice_basis(0)
    dim = len(basis)
    index = {m: i for i, m in enumerate(basis)}
    measured = []
    for p in range(1, cfg.n_points + 1):
        mat = {}
        for col, mono in enumerate(basis):
            den, nums = apply_L_raw(module, (-1, p), (1, {mono: 1}))
            for m2, x in nums.items():
                if m2 in index:  # the degree-0 part
                    mat[(index[m2], col)] = Rat(x * fac.num, den * fac.den)
        measured.append(mat)

    oracle = _sparse_oracle(cfg, alg, weights)
    kappa = None
    sign = None
    den = sum((_dot(m, m, dim) for m in oracle), RAT0)
    if den.num != 0:
        num = sum((_dot(a, m, dim)
                   for a, m in zip(measured, oracle)), RAT0)
        kappa = num / den
    elif any(oracle):
        # oracle matrices are scalar (abelian): use the structural value
        kappa = fac
    if kappa is not None:
        sign = 1 if kappa > 0 else -1
    # fully degenerate (all-zero oracle): the matrices must be scalar
    shifts = [_scalar_part(a, m, RAT0 if kappa is None else kappa, dim)
              for a, m in zip(measured, oracle)]
    residual_zero = all(s is not None for s in shifts)
    return KZSystem(cfg, alg.kind, tuple(weights), level,
                    [_dense(a, dim) for a in measured], kappa, shifts,
                    sign, residual_zero, False)


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
    dense matrix).  Disjoint pairs commute by construction.  Exact;
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
                    dim = math.prod(m.dim for m in mods)
                    return FlatnessReport(False, False, checked,
                                          ((a, b, r), _dense(lhs, dim)))
    return FlatnessReport(True, False, checked)
