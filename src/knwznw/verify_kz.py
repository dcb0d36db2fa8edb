"""The kz suite's checks: the classical KZ form, its flatness and the
genus-0 coinvariants, each against an oracle from outside the code path.

They are listed in the registry `verify.CHECKS` under the suite "kz", and
sample their points through `verify_samples.sample_config`.  A check whose
verdict would not change if it were handed another point set reads its
points back (`_elsewhere`), so that a wrong share of configurations fails
it.
"""

from __future__ import annotations

from math import prod

from ._kernel import RAT0, ZERO_FORM, Rat, add_scaled, canonical
from .finite_lie import make_algebra
from .kz import (classical_oracle_matrices, flatness_check, kz_matrices,
                 predicted_scalar_shift, tangent_fields)
from .modules import (ModuleSpec, degree_zero_coinvariant_dimension,
                      induce_module)
from .ratfield import as_rat
from .verify_samples import sample_config


def _elsewhere(cfg, points):
    """True if cfg is not at the points that were asked for."""
    return cfg.points != tuple(as_rat(p) for p in points)


def kz_tangent_fields():
    for n_pts in (1, 2, 3):
        fields, _meta = tangent_fields(sample_config(n_pts))
        if len(fields) != n_pts:
            return False, "wrong field count"
    return True, "point movers normalized with zeros elsewhere"


def kz_classical_agreement():
    sl2 = make_algebra("sl2")
    cases = [
        (sample_config(("0", "1")), (1, 1)),
        (sample_config(("0", "1", "-1")), (1, 1, 1)),
    ]
    kappas = set()
    for cfg, weights in cases:
        system = kz_matrices(cfg, sl2, weights, Rat(1))
        if system.partial or not system.residual_zero:
            return False, "fit failed at N=%d" % cfg.n_points
        if abs(system.kappa) != Rat(1, 3):
            return False, "|kappa| != 1/3"
        kappas.add(system.kappa)
        oracle = classical_oracle_matrices(cfg, sl2, weights)
        ident = {(i, i): 1 for i in range(prod(w + 1 for w in weights))}
        for p in range(1, cfg.n_points + 1):
            shift = predicted_scalar_shift(cfg, sl2, weights, Rat(1), p)
            if system.scalar_shifts[p - 1] != shift:
                return False, "scalar shift mismatch at p=%d" % p
            kappa, want = system.kappa, {}
            den = add_scaled(1, want, *oracle[p - 1], kappa.num, kappa.den)
            den = add_scaled(den, want, 1, ident, shift.num, shift.den)
            if system.matrices[p - 1] != canonical(den, want):
                return False, "A_%d != kappa Omega + shift" % p
    if len(kappas) != 1:
        return False, "kappa not global"
    return True, ("A_p = kappa sum Omega/(z_p-z_j) + shift entry by entry, "
                  "one kappa, |kappa| = 1/3, zero residual")


def kz_translation_covariance():
    sl2 = make_algebra("sl2")
    w = (1, 1)
    s1 = kz_matrices(sample_config(("0", "1")), sl2, w, Rat(1))
    s2 = kz_matrices(sample_config(("5", "6")), sl2, w, Rat(1))
    if _elsewhere(s1.config, ("0", "1")) or _elsewhere(s2.config, ("5", "6")):
        return False, "a system sits at other points"
    if s1.matrices != s2.matrices:
        return False, "matrices moved under translation"
    return True, "common shift of the points leaves every A_p fixed"


def kz_abelian():
    ab = make_algebra("abelian1")
    cfg = sample_config(("0", "1", "3"))
    weights = (Rat(1), Rat(2), Rat(-1))
    system = kz_matrices(cfg, ab, weights, Rat(1))
    if _elsewhere(system.config, ("0", "1", "3")):
        return False, "the system sits at other points"
    if system.partial or not system.residual_zero:
        return False, "abelian fit failed"
    for p in range(1, 4):
        total = RAT0
        zp = cfg.points[p - 1]
        for j in range(1, 4):
            if j != p:
                total = total + (weights[p - 1] * weights[j - 1]
                                 / (zp - cfg.points[j - 1]))
        want = system.kappa * total + system.scalar_shifts[p - 1]
        if system.matrices[p - 1] != canonical(want.den, {(0, 0): want.num}):
            return False, "abelian matrix mismatch"
    return True, "abelian system matches kappa sum l_p l_j/(z_p-z_j)+shift"


def kz_trivial():
    sl2 = make_algebra("sl2")
    system = kz_matrices(sample_config(("0", "1")), sl2, (0, 0), Rat(1))
    zero = all(m == ZERO_FORM for m in system.matrices)
    return zero, "all matrices vanish for trivial weights"


def kz_flatness():
    system = kz_matrices(sample_config(("0", "1", "-1")), make_algebra("sl2"),
                         (1, 1, 1), Rat(1))
    rep = flatness_check(system)
    if not rep.holds:
        return False, "braid relations fail"
    return True, ("infinitesimal braid relations exact (%d relations)"
                  % rep.checked_relations)


def coinvariant_clebsch_gordan():
    sl2 = make_algebra("sl2")
    # (points, weights, the sl2 Clebsch-Gordan count of invariants in the
    # tensor product)
    cases = ((("0", "1", "-1"), (1, 1, 1), 0), (("0", "1"), (2, 2), 1),
             (("0", "1", "-1"), (1, 1, 2), 1),
             (("0", "1", "-1", "2"), (1, 1, 1, 1), 2),
             (("1/2", "-7/3", "5"), (2, 1, 1), 1))
    ok = True
    parts = []
    for points, weights, want in cases:
        module = induce_module(sl2, sample_config(points),
                               ModuleSpec("weyl", weights, Rat(1)))
        dim = degree_zero_coinvariant_dimension(module)
        ok = ok and dim == want and not _elsewhere(module.cfg, points)
        parts.append("%s at %s: %d (Clebsch-Gordan %d)"
                     % (weights, ",".join(points), dim, want))
    return ok, "coinvariant dimensions: %s" % "; ".join(parts)
