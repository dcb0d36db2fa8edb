"""Registry checks can fail under a planted fault.

A fault is one line of a function's or method's source rewritten
(`mutant`) and bound in place of it, in every module that holds the
function, or on its class.  Each check runs alone through the registry
(`verify._run_registry`), on fresh configurations: it passes first and
fails under its fault, with the detail naming where it failed; a fault
that makes the check raise fails it through the registry's own
`error: <Type>: ...` detail.  Every registry check has a fault here or
is named in UNFAULTED.
"""

import inspect
import sys
import textwrap

import pytest

import knwznw
from knwznw import (affine, algebras, basis, finite_lie, kz, modules,
                    sugawara, verify, verify_kz)


def mutant(owner, name, old, new):
    """owner.name (a module's function or a class's method) recompiled
    from its source with the single occurrence of old replaced by new; it
    runs in its module's namespace."""
    fn = getattr(owner, name)
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, (name, old)
    out = {}
    exec(compile(src.replace(old, new), inspect.getsourcefile(fn), "exec"),
         sys.modules[fn.__module__].__dict__, out)
    return out[name]


LIE_WEIGHTS = "lam * (n + 2), -1, -lam)"
ABS_LIE_WEIGHTS = "abs(lam) * (n + 2), -1, -abs(lam))"

# fault -> (check, owner, function, line rewritten, its fault, detail
# under it)
FAULTS = {
    # a monomial residue read as 0 at sum K = -1 drops the residue at
    # infinity, which is what a dual pair at one point pairs through
    "duality-grid": ("duality-grid", basis, "monomial_residue", "s < -1",
                     "s < 0", "failed at (1,"),
    # the pairing's degree bound one too wide: a dual pair whose exponent
    # minima sum to -1 (a simple pole of M_K) is settled as 0
    "duality-grid-pairing-bound": (
        "duality-grid", basis, "kn_pairing", "min(kf) + min(kg) >= 0",
        "min(kf) + min(kg) >= -1", "failed at (1,"),
    # the pairing drops g's constant's denominator: basis constants at 0, 1
    # are +-1, the rescaled ones (5/3)^n are not
    "rescaling-invariance": ("rescaling-invariance", basis, "kn_pairing",
                             "ff.den * gf.den", "ff.den",
                             "not scale invariant"),
    # a rescaled unit entry read at the wrong weight shifts every product
    # down
    "almost-grading-locality": ("almost-grading-locality", algebras,
                                "_rescaled", "e + lam - 1", "e + lam - 2",
                                "lower shift violated"),
    # the base forms of a point pair without their last lowered monomial
    # M_{K0 - e_N}, which every gamma (and Lie derivative) sums
    "cocycle-vanishing": ("cocycle-vanishing", algebras, "_unit_base",
                          "enumerate(low)", "enumerate(low[:-1])",
                          "gamma on block pair"),
    # a unit gamma without its denominator: only the block pairs at 1/2,
    # -7/3, 5 have unit gammas with denominators
    "cocycle-vanishing-denominators": (
        "cocycle-vanishing", algebras, "_unit_gamma",
        "Rat(sum(out.values()), d)", "Rat(sum(out.values()), 1)",
        "gamma on block pair"),
    # the basis element's pole order put at P_1 whatever its point: the
    # order sum is unchanged
    "order-book": ("order-book", basis, "kn_basis_record",
                   "(e,) * (p - 1) + (e - 1,) + (e,) * (cfg.n_points - p)",
                   "(e - 1,) + (e,) * (cfg.n_points - 1)",
                   "orders off KN at (2, -1, -3, 2)"),
    # chi's degree bound one too wide: at N = 1 the pairs with n + m = 0
    # have sum k_e + sum k_f = 2 and lose their (n^3 - n)/12
    "classical-virasoro-chi-bound": (
        "classical-virasoro", algebras, "_unit_chi", "< 2", "< 3",
        "cocycle at ("),
    # a residue sum that widens its denominator without scaling its
    # numerator: the unit gammas at the integer sample points never widen
    # it, chi's connection part with R = (2 - z)/((z - 5)(z - 7)) does
    "cohomologous-connections": (
        "cohomologous-connections", algebras, "_residue_combination",
        "num * g + w", "num + w", "coboundary mismatch"),
    # the central term of the loop bracket with its sign flipped
    "classical-affine": ("classical-affine", affine, "_unit_loop_bracket",
                         "-fij.num", "fij.num", "affine relation at"),
    # the loop part of the bracket one degree too high
    "affine-grading": ("affine-grading", affine, "_unit_loop_bracket",
                       "(0, 0), (n, p), (m, r)", "(0, 0), (n, p), (m + 1, r)",
                       "loop support outside band"),
    # the cocycle of the central part read with both functions at the
    # first one's point: invisible at N = 1, not a cocycle at N = 2
    "affine-jacobi": ("affine-jacobi", affine, "_unit_loop_bracket",
                      "_unit_gamma(cfg, (n, p), (m, r))",
                      "_unit_gamma(cfg, (n, p), (m, p))",
                      "affine Jacobi fails"),
    # the loop part of the bracket put at the first point: at N = 2 a
    # degree-0 bracket at P_2 lands at P_1
    "psi-homomorphism": ("psi-homomorphism", affine, "_unit_loop_bracket",
                         "(k, h, s): v", "(k, h, 1): v",
                         "psi not a homomorphism"),
    # the weights (e_s + lam e_e) S0 - R0 - lam P0 with the sign of lam
    # dropped: at lam = -1 the entry of e s' + s e' in place of the
    # bracket, which the Lie derivative of a vector field and chi's cyclic
    # sum read
    "jacobi": ("jacobi", algebras, "_unit_lie_derivative", LIE_WEIGHTS,
               ABS_LIE_WEIGHTS, "Jacobi fails (N=1)"),
    "lie-module": ("lie-module", algebras, "_unit_lie_derivative",
                   LIE_WEIGHTS, ABS_LIE_WEIGHTS, "module property fails"),
    "cocycle-identities": ("cocycle-identities", algebras,
                           "_unit_lie_derivative", LIE_WEIGHTS,
                           ABS_LIE_WEIGHTS, "chi cocycle identity fails"),
    # the central part of [x_a, x_b] acting as twice the level inside
    # the creation string, but once on the element itself
    "representation-property": (
        "representation-property", modules.InducedModule, "_act_block",
        "(1, self._identity(rest))",
        "(1, dict.fromkeys(self._identity(rest), 2))",
        "representation property fails on ["),
    # a rescaled unit entry read one weight too high shifts every product
    # up: two functions of degree -1 multiply into degree 0, which has a
    # pole at infinity
    "subalgebra-closure": ("subalgebra-closure", algebras, "_rescaled",
                           "e + lam - 1", "e + lam", "minus part not closed"),
    # a graded element realized with every term at P_1
    "expansion-roundtrip": ("expansion-roundtrip", basis,
                            "section_from_graded", "(ge.lam, n, p)",
                            "(ge.lam, n, 1)", "roundtrip failed at N=2"),
    # each element's highest order read as its lowest: at N = 3 the
    # elements at P_2 and P_3 both lead at P_1
    "homogeneous-dimension": ("homogeneous-dimension", basis,
                              "homogeneous_dimension", "min(", "max(",
                              "dimension != N"),
    # an element of order exactly need_pts at every point left in the strip
    "triangular-decomposition": (
        "triangular-decomposition", algebras, "triangular_decompose",
        "o_pts >= need_pts", "o_pts > need_pts",
        "strip [(0, 1), (1, 1)] of L at N=1"),
    # the expansion starts one degree above the lowest order, so A_{-j,p}
    # is never peeled and the reconstruction raises
    "block-algebra-negative-part": (
        "block-algebra-negative-part", basis, "expand_in_basis",
        "n_min = lam + min(orders)", "n_min = lam + min(orders) + 1",
        "error: BasisConstructionError: expansion failed"),
    # the point mover's leading coefficient expected with the wrong sign
    "tangent-fields": ("tangent-fields", kz, "tangent_fields", "!= RAT1",
                       "!= -RAT1", "error: DomainError: point-moving field "
                       "not normalized at P_1"),
    # every field the first point's mover
    "tangent-fields-mover": ("tangent-fields", kz, "tangent_fields",
                             "GradedElement.unit(-1, -1, p)",
                             "GradedElement.unit(-1, -1, 1)",
                             "field 2 off e_{-1,2} at N=2"),
    # the third Omega of each braid relation on the wrong pair of factors
    "kz-flatness": ("kz-flatness", kz, "flatness_check",
                    "((0, 1), (0, 2), (1, 2))", "((0, 1), (0, 2), (0, 2))",
                    "braid relations fail"),
    # P_i + P_q in place of P_i - P_q in the leading coefficients, which
    # scale the basis elements and so the triple coefficients: at 0, 1
    # only signs move, at 5, 6 the magnitudes do
    "translation-covariance": (
        "translation-covariance", basis, "_leading",
        "an * b.den - b.num * ad", "an * b.den + b.num * ad",
        "matrices moved under translation"),
    # the oracle's 1/(z_p - z_j) with its sign flipped: the fitted shifts
    # absorb the scalar difference, the closed form does not
    "kz-abelian": ("kz-abelian", kz, "_casimir_products",
                   "(cfg.points[q] - cfg.points[s])",
                   "(cfg.points[s] - cfg.points[q])",
                   "abelian matrix mismatch"),
    # the relations of x (x) 1 without the last point's zero mode
    "coinvariant-clebsch-gordan": (
        "coinvariant-clebsch-gordan", modules, "_relation_span",
        "range(1, module.cfg.n_points + 1)", "range(1, module.cfg.n_points)",
        "(1, 1, 1) at 0,1,-1: 2 (Clebsch-Gordan 0)"),
    # an irrep's rows placed on the first factor without its stride (the
    # module's vacuum blocks take the offsets of `place_local`): at
    # weights (1, 1) x_(0,1,i) lands on the rows of factor 2
    "weyl-degree-zero": ("weyl-degree-zero", finite_lie, "placement",
                         "sum(map(mul, key[:k], st))", "sum(key[:k])",
                         "degree-0 action mismatch"),
    # every positive mode acts on the vacuum string as the identity in
    # place of zero
    "admissibility": ("admissibility", modules.InducedModule,
                      "_vacuum_block",
                      "# a positive mode\n        return ZERO_FORM",
                      "# a positive mode\n        return 1, self._identity(0)",
                      "not admissible at (0, 1, 1, 0)"),
    # the engine's term plans lose the boundary modes of their window,
    # every term with a mode -dv; the check's plans of degree d - 3 lose
    # only modes that annihilate, so the images part
    "summation-bounds": ("summation-bounds", sugawara, "_term_plan",
                         "range(t + dv, -dv + 1)", "range(t + dv + 1, -dv)",
                         "summation bound unstable"),
    # the measured sum without the one-factor Casimir terms c^p_qq O_qq,
    # which are scalar: the fit holds and every shift moves
    "kz-classical-agreement": ("kz-classical-agreement", kz, "kz_matrices",
                               "if c.num:", "if c.num and q != s:",
                               "scalar shift mismatch at p=1"),
    # the Lie derivative cached under weight 0 whatever its weight: the
    # first weight asked for answers for every other one (a fault linear
    # in the weight would pass, as the Leibniz identity is linear in it)
    "leibniz": ("leibniz", algebras, "_unit_lie_derivative",
                '("lied", a, lam, b)', '("lied", a, 0, b)', "Leibniz fails"),
    # every basis coefficient of an expansion doubled
    "partition-of-unity": ("partition-of-unity", basis, "expand_in_basis",
                           "terms[key] = c", "terms[key] = c + c",
                           "1 != sum A_{0,p}"),
    # the block functions without the highest pole at each point
    "block-algebra": ("block-algebra", affine, "_block_expansions",
                      "range(1, pole_bound + 1)", "range(1, pole_bound)",
                      "block dimension"),
    # the central element acting as 1 whatever the level
    "level": ("level", modules.InducedModule, "_act_affine_form",
              "central = a.central * self.level", "central = a.central",
              "level not respected"),
    # each Sugawara term c D_ij u_i u_j without its 1/2
    "classical-central-charge": ("classical-central-charge", sugawara,
                                 "_term_plan", "half = c * _HALF",
                                 "half = c", "central ratio"),
    # the relation plans lose the modes that land in slice 0 exactly
    "multipoint-centrality": ("multipoint-centrality", sugawara,
                              "_relation_plan", "if m <= top", "if m < top",
                              "difference not scalar"),
    # the second current of each triple coefficient read at the first
    # one's point: c_{(0,p),(0,s)} is no longer symmetric in p and s
    "normal-ordering-equivalence": (
        "normal-ordering-equivalence", sugawara, "_triple_coefficient",
        "(1, -m, s)", "(1, -m, p)", "tie rule changed the operator"),
}

# the registry checks that no fault above plants a failure in yet
UNFAULTED = set()

CHECKS = {name: (name, suite, fn) for name, suite, fn in verify.CHECKS}


def run(check):
    """(passed, detail) of one check run alone by the registry, which
    turns an exception into a failure with detail "error: ..."."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "CHECKS", [CHECKS[check]])
        (res,) = verify._run_registry(CHECKS[check][1], {})
    return res.passed, res.detail


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_planted_fault_fails_the_check(fault, monkeypatch):
    check, owner, name, old, new, detail = FAULTS[fault]
    assert run(check)[0] is True
    bad = mutant(owner, name, old, new)
    if inspect.isclass(owner):
        monkeypatch.setattr(owner, name, bad)
    else:
        orig = getattr(owner, name)
        for ns in (knwznw, basis, algebras, affine, kz, modules, sugawara,
                   verify, verify_kz):
            if getattr(ns, name, None) is orig:
                monkeypatch.setattr(ns, name, bad)
    ok, got = run(check)
    assert ok is False and detail in got, got
    monkeypatch.undo()
    assert run(check)[0] is True


def test_every_check_has_a_fault_or_is_named_unfaulted():
    faulted = {entry[0] for entry in FAULTS.values()}
    assert set(CHECKS) - faulted == UNFAULTED
