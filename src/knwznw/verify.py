"""Machine-checkable property suites.

Every check is a top-level function returning (passed, detail) and is
listed once in the ordered registry CHECKS as (name, suite, fn).  The
suites, the CLI `verify` subcommand and the acceptance tests all run
checks from this one registry.  A check's keyword arguments are its
parameters; their defaults are the ranges the suites run.  Sampling is
deterministic (fixed seeds) so a passing run is reproducible bit for bit.
The checks sample their points through `verify_samples.sample_config`,
which shares one Config per point set while a suite runs.  The kz suite's
checks live in `verify_kz`.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import lcm
from typing import NamedTuple

from ._kernel import (RAT0, RAT1, ZERO_FORM, Rat, add_scaled, canonical,
                      form)
from .affine import (AffineElement, affine_bracket, affine_decompose,
                     block_algebra_basis, g_tuple_bracket, psi_project)
from .algebras import (ProjectiveConnection, R_ZERO, _pairs,
                       _unit_lie_derivative, cocycle_chi, cocycle_gamma,
                       coboundary_compare, grading_report,
                       lie_derivative, multiply, triangular_decompose,
                       vf_bracket, vf_bracket_sum)
from .basis import (DivisorForm, GradedElement, KNIndex, Section,
                    expand_in_basis, homogeneous_dimension, kn_basis_element,
                    kn_basis_record, kn_pairing, linear_combination,
                    section_from_graded)
from .errors import DomainError, KNError
from .finite_lie import factor_op, make_algebra
from .modules import ModuleSpec, ModuleVector, induce_module, mode_digit
from .ratfield import INFINITY, Poly, RationalFunction
from .sugawara import (_apply_plan, _term_plan, apply_L_raw,
                       sugawara_coefficients, sugawara_commutator_audit)
from .verify_kz import (coinvariant_clebsch_gordan, kz_abelian,
                        kz_classical_agreement, kz_flatness, kz_tangent_fields,
                        kz_translation_covariance)
from .verify_samples import (LAMS, NRANGE, sample_config, sample_module,
                             shared_configs)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


# Every action and Sugawara image is exact, so no check reads a module's
# depth, and every module here is built at depth 0.

def _weyl_n2():
    """sl2 Weyl module of weights (1, 1) at level 1, at 0 and 1."""
    return sample_module(make_algebra("sl2"), 2,
                         ModuleSpec("weyl", (1, 1), Rat(1)))


def _fock_n1(level=Rat(1)):
    """Abelian Fock module at the single point 0."""
    return sample_module(make_algebra("abelian1"), 1,
                         ModuleSpec("fock", (RAT0,), level))


def _unit(rng, lam, d, n_pts):
    """A random unit of weight lam: degree in [-d, d], point in 1..n_pts."""
    return GradedElement.unit(lam, rng.randint(-d, d), rng.randint(1, n_pts))


def _loop(rng, terms, gdim, lo, hi, n_pts, c):
    """A sum of `terms` random loop terms: g-index below gdim, degree in
    [lo, hi], point in 1..n_pts, coefficient in [-c, c]."""
    e = AffineElement()
    for _ in range(terms):
        e = e + AffineElement.loop_term(
            rng.randrange(gdim), rng.randint(lo, hi), rng.randint(1, n_pts),
            Rat(rng.randint(-c, c)))
    return e


def _block_pairs_vanish(cfg, gens):
    """True if gamma vanishes on every pair of block functions; it ignores
    the g-index, so each function is taken once."""
    funcs = [u.expansion for u in gens if u.g_index == 0]
    return all(cocycle_gamma(cfg, f, g).num == 0 for f in funcs for g in funcs)


# ---------------------------------------------------------------- basis --

def duality_grid(nrange=NRANGE, degree=6, lams=LAMS):
    for n_pts in nrange:
        cfg = sample_config(n_pts)
        units = [(n, p) for n in range(-degree, degree + 1)
                 for p in range(1, n_pts + 1)]
        for lam in lams:
            a, b = ({u: kn_basis_element(cfg, (w, *u)) for u in units}
                    for w in (lam, 1 - lam))
            for n, p, m, r in _pairs(cfg, (-degree, degree)):
                v = kn_pairing(cfg, a[n, p], b[m, r])
                want = RAT1 if (m == -n and p == r) else RAT0
                if v != want:
                    return False, "failed at %s" % ((n_pts, lam, n, m, p, r),)
    return True, "delta relations over N=%s lam=%s |n|<=%d" % (
        list(nrange), list(lams), degree)


def order_book(nrange=NRANGE, lams=LAMS):
    for n_pts in nrange:
        cfg = sample_config(n_pts)
        for lam in lams:
            for n in range(-3, 4):
                for p in range(1, n_pts + 1):
                    sec = kn_basis_record(cfg, KNIndex(lam, n, p))
                    form, o_inf = sec.form(cfg), sec.order_at(INFINITY)
                    orders = {i + 1: form.order(i) for i in range(n_pts)}
                    total = sum(orders.values()) + o_inf
                    if total != -2 * lam:
                        return False, "order sum %d != %d at %s" % (
                            total, -2 * lam, (n_pts, lam, n, p))
                    # the prescription of the `basis` docstring
                    want = {i: n - lam + (i != p) for i in range(1, n_pts + 1)}
                    if (orders != want
                            or o_inf != -n_pts * (n + 1 - lam) - 2 * lam + 1):
                        return False, "orders off KN at %s" % (
                            (n_pts, lam, n, p),)
    return True, "order book exact; no adjustments at genus 0"


def rescaling_invariance(lams=LAMS):
    # scaling the local coordinate by a rescales the element by a^n and
    # leaves every pairing delta relation unchanged
    a1 = Rat(5, 3)
    cfg = sample_config(2)
    for lam in lams:
        for n in range(-2, 3):
            for p in (1, 2):
                f = kn_basis_element(cfg, KNIndex(lam, n, p))
                g = kn_basis_element(cfg, KNIndex(1 - lam, -n, p))
                fs = Section(lam, linear_combination(
                    cfg.points, [(a1 ** n, f.form(cfg))]))
                gs = Section(1 - lam, linear_combination(
                    cfg.points, [(a1 ** -n, g.form(cfg))]))
                if kn_pairing(cfg, fs, gs) != RAT1:
                    return False, "pairing not scale invariant at %s" % (
                        (lam, n, p),)
    return True, "pairings invariant under first-jet rescaling"


def expansion_roundtrip(nrange=NRANGE, lams=LAMS):
    rng = random.Random(11)
    for n_pts in nrange:
        cfg = sample_config(n_pts)
        for lam in lams:
            terms = {}
            for _ in range(4):
                n = rng.randint(-3, 3)
                p = rng.randint(1, n_pts)
                terms[(n, p)] = Rat(rng.randint(-5, 5))
            ge = GradedElement(lam, terms)
            s = section_from_graded(cfg, ge)
            if s.is_zero():
                continue
            if expand_in_basis(cfg, s) != ge:
                return False, "roundtrip failed at N=%d lam=%d" % (n_pts, lam)
    return True, "expand . combine = id on random combinations"


def homogeneous_dimensions(nrange=NRANGE, lams=LAMS):
    for n_pts in nrange:
        cfg = sample_config(n_pts)
        for lam in lams:
            for n in (-5, 0, 5):
                if homogeneous_dimension(cfg, lam, n) != n_pts:
                    return False, "dimension != N"
    return True, "every homogeneous slice has dimension N"


# -------------------------------------------------------------- algebra --

def classical_virasoro():
    cfg = sample_config(1)
    for n in range(-6, 7):
        for m in range(-6, 7):
            out = vf_bracket(cfg, GradedElement.unit(-1, n, 1),
                             GradedElement.unit(-1, m, 1))
            want = (GradedElement(-1, {(n + m, 1): Rat(m - n)})
                    if m != n else GradedElement(-1, {}))
            if out != want:
                return False, "bracket at (%d,%d)" % (n, m)
            v = cocycle_chi(cfg, GradedElement.unit(-1, n, 1),
                            GradedElement.unit(-1, m, 1))
            wantc = Rat(n ** 3 - n, 12) if n + m == 0 else RAT0
            if v != wantc:
                return False, "cocycle at (%d,%d)" % (n, m)
    return True, "[e_n,e_m]=(m-n)e_{n+m}; chi_0=(n^3-n)/12 delta"


def _vanishes(*forms):
    """True if the integer forms sum to zero."""
    den, acc = 1, {}
    for d, nums in forms:
        den = add_scaled(den, acc, d, nums, 1, 1)
    return not any(acc.values())


def _pack(nums, slot, w):
    """The numerators {key: v} as one int, sum(v << (w * slot[key])): each
    value in the w-bit slot of its column.  Packing is linear, and a sum
    of packed rows is the packed sum of the rows."""
    return sum(v << (w * slot[key]) for key, v in nums.items())


def _jacobi_fault(cfg, units):
    """None if the bracket is antisymmetric and satisfies Jacobi on the
    single-term units, else the name of the identity that fails.

    The bracket of every ordered pair of units is computed once, as a
    canonical integer form (`vf_bracket_sum` of the one pair), and
    [a,b] + [b,a] = 0 is asserted on all of them; this table is what
    catches a wrong sign in `_bilinear_raw`'s fold.  With antisymmetry and
    bilinearity, J(a,b,c) = [[a,b],c] + [[b,c],a] + [[c,a],b] is
    alternating: it changes sign under a swap and vanishes when an entry
    repeats.  So J is evaluated once per triple i < j < k, with the inner
    brackets read from the table.

    An outer bracket [sum_x b_x A_x, u_c] is sum_x b_x [A_x, u_c].  For
    u_c = f A_y the row [A_x, u_c] is f times the unit entry of x and y
    (`_unit_lie_derivative` at weight -1), its sign folded in place
    (-entry(y, x) for x > y, nothing for x = y), and it is built only for
    the (x, c) that some triple reads.  The rows are scaled to one
    denominator D and the table's numerators to one denominator B, so each
    column s of B D J is an integer J_s; one column index `slot` numbers
    the keys.  Each row is packed once into one int (`_pack`), and each
    triple's B D J is summed from the packed rows as one Python int,
    sum_s J_s 2^(w s), tested against 0.

    The slot width w makes that zero test exact.  Every |J_s| is at most
    3 max l1(b) max|row entry| < 2^(w-1) (the unit factor is in the row).
    If J is not zero, let s be its lowest nonzero column: the higher
    columns are multiples of 2^(w(s+1)), so modulo 2^(w(s+1)) the packed
    int is J_s 2^(w s), which is not 0 as 0 < |J_s| < 2^w.  So the packed
    int is 0 exactly when J is.
    """
    forms = [form(u.terms) for u in units]
    if any(len(nums) != 1 for _, nums in forms):
        raise DomainError("Jacobi units must be single-term elements")
    br = {(i, j): vf_bracket_sum(cfg, ((a, b),))
          for i, a in enumerate(forms) for j, b in enumerate(forms)}
    for (i, j), ab in br.items():
        if i <= j and not _vanishes(ab, br[j, i]):
            return "antisymmetry"
    bd = lcm(*(d for d, _ in br.values()))
    inner = {ij: [(x, v * (bd // d)) for x, v in nums.items()]
             for ij, (d, nums) in br.items()}
    # a triple reads the bracket of each of its pairs with its third unit,
    # so term x is read with every unit outside some pair whose bracket
    # holds it
    skips = {}
    for ij, terms in inner.items():
        for x, _ in terms:
            skips[x] = skips.get(x, {*ij}) & {*ij}
    rows = {}  # (c, x): [A_x, u_c] as (den, unit entry, signed factor)
    for c, (d, nums) in enumerate(forms):
        ((y, f),) = nums.items()
        for x, skip in skips.items():
            if c not in skip:
                ed, entry = ZERO_FORM if x == y else _unit_lie_derivative(
                    cfg, min(x, y), -1, max(x, y))
                rows[c, x] = (d * ed, entry, f if x < y else -f)
    rd = lcm(*(d for d, _, _ in rows.values()))
    slot = {key: s for s, key in enumerate(sorted(
        {key for _, nums, _ in rows.values() for key in nums}))}
    top = max((abs(f * v) * (rd // d) for d, nums, f in rows.values()
               for v in nums.values()), default=0)
    l1 = max((sum(abs(v) for _, v in terms) for terms in inner.values()),
             default=0)
    w = (3 * l1 * top).bit_length() + 1
    packed = {cx: _pack(nums, slot, w) * f * (rd // d)
              for cx, (d, nums, f) in rows.items()}
    for i, j, k in combinations(range(len(forms)), 3):
        s = 0
        for terms, c in ((inner[i, j], k), (inner[j, k], i), (inner[k, i], j)):
            for x, v in terms:
                s += v * packed[c, x]
        if s:
            return "Jacobi"
    return None


def vector_field_jacobi():
    for n_pts in (1, 2, 3):
        units = [GradedElement.unit(-1, n, p)
                 for n in range(-3, 4) for p in range(1, n_pts + 1)]
        fault = _jacobi_fault(sample_config(n_pts), units)
        if fault is not None:
            return False, "%s fails (N=%d)" % (fault, n_pts)
    return True, "vector-field Jacobi exact on [-3,3], N in {1,2,3}"


def lie_module():
    rng = random.Random(23)
    for n_pts in (1, 2):
        cfg = sample_config(n_pts)
        for _ in range(10):
            e, f = _unit(rng, -1, 2, n_pts), _unit(rng, -1, 2, n_pts)
            s = _unit(rng, rng.choice((0, 1, 2, -1)), 2, n_pts)
            lhs = lie_derivative(cfg, vf_bracket(cfg, e, f), s)
            rhs = lie_derivative(cfg, e, lie_derivative(cfg, f, s)) \
                - lie_derivative(cfg, f, lie_derivative(cfg, e, s))
            if lhs != rhs:
                return False, "module property fails"
    return True, "Lie-derivative action respects brackets"


def leibniz():
    rng = random.Random(29)
    cfg = sample_config(2)
    for _ in range(10):
        e, s, t = (_unit(rng, lam, 2, 2) for lam in (-1, 0, 1))
        lhs = lie_derivative(cfg, e, multiply(cfg, s, t))
        rhs = multiply(cfg, lie_derivative(cfg, e, s), t) \
            + multiply(cfg, s, lie_derivative(cfg, e, t))
        if lhs != rhs:
            return False, "Leibniz fails"
    return True, "Lie derivative is a derivation of the product"


def cocycle_identities():
    rng = random.Random(31)
    cfg = sample_config(2)
    for _ in range(10):
        f, g, h = (_unit(rng, 0, 2, 2) for _ in range(3))
        s = cocycle_gamma(cfg, multiply(cfg, f, g), h) \
            + cocycle_gamma(cfg, multiply(cfg, g, h), f) \
            + cocycle_gamma(cfg, multiply(cfg, h, f), g)
        if s.num != 0:
            return False, "gamma cyclic identity fails"
        e1, e2, e3 = (_unit(rng, -1, 2, 2) for _ in range(3))
        s2 = cocycle_chi(cfg, vf_bracket(cfg, e1, e2), e3) \
            + cocycle_chi(cfg, vf_bracket(cfg, e2, e3), e1) \
            + cocycle_chi(cfg, vf_bracket(cfg, e3, e1), e2)
        if s2.num != 0:
            return False, "chi cocycle identity fails"
        if cocycle_gamma(cfg, f, f).num != 0:
            return False, "gamma not antisymmetric"
        if cocycle_chi(cfg, e1, e1).num != 0:
            return False, "chi not antisymmetric"
    return True, "cocycle identities and antisymmetry exact"


def almost_grading_locality(window=5):
    for n_pts in (1, 2, 3):
        cfg = sample_config(n_pts)
        for kind in ("A", "L"):
            rep = grading_report(cfg, kind, (-window, window))
            if rep.lower_shift != 0 or not rep.ok:
                return False, "lower shift violated for %s N=%d" % (
                    kind, n_pts)
            if rep.upper_shift > 2:
                return False, "upper shift %d > 2 for %s N=%d" % (
                    rep.upper_shift, kind, n_pts)
        for kind in ("gamma", "chi"):
            rep = grading_report(cfg, kind, (-window, window))
            if not rep.ok:
                return False, "%s support above 0 at N=%d" % (kind, n_pts)
    return True, ("lower shift 0, upper shift <= 2; cocycle support within "
                  "n+m <= 0")


def cocycle_vanishing(window=5):
    alg = make_algebra("sl2")
    for n_pts in (1, 2, 3):
        cfg = sample_config(n_pts)
        for n, p, m, r in _pairs(cfg, (1, 3)):
            if cocycle_gamma(cfg, GradedElement.unit(0, n, p),
                             GradedElement.unit(0, m, r)).num != 0:
                return False, "gamma on plus parts"
            if cocycle_chi(cfg, GradedElement.unit(-1, n, p),
                           GradedElement.unit(-1, m, r)).num != 0:
                return False, "chi on plus parts"
            if cocycle_gamma(cfg, GradedElement.unit(0, -n, p),
                             GradedElement.unit(0, -m, r)).num != 0:
                return False, "gamma on minus parts"
        td = triangular_decompose(cfg, "L", (-window, window))
        for part, label in ((td.plus, "plus"), (td.minus, "minus")):
            for (n1, p1) in part:
                for (n2, p2) in part:
                    if cocycle_chi(cfg, GradedElement.unit(-1, n1, p1),
                                   GradedElement.unit(-1, n2, p2)).num != 0:
                        return False, "chi on %s subalgebra" % label
    # the block pairs also at 1/2, -7/3, 5, where residues have denominators
    for cfg in _block_premise_configs():
        if not _block_pairs_vanish(cfg, block_algebra_basis(cfg, alg, 2)):
            return False, "gamma on block pair"
    return True, ("cocycles vanish on +/- subalgebras and block pairs, "
                  "N in {1,2,3}")


def cohomologous_connections():
    rng = random.Random(37)
    z = Poly.x()
    for n_pts in (1, 2):
        cfg = sample_config(n_pts)
        choices = [ProjectiveConnection(RationalFunction.const(3)),
                   ProjectiveConnection(RationalFunction(
                       2 - z, (z - 5) * (z - 7)))]
        for R in choices:
            for _ in range(25):
                e, f = _unit(rng, -1, 3, n_pts), _unit(rng, -1, 3, n_pts)
                d, w = coboundary_compare(cfg, e, f, R, R_ZERO)
                if d != w:
                    return False, "coboundary mismatch %s vs %s" % (d, w)
    return True, "chi_R - chi_R' equals the coboundary witness (50/N)"


def subalgebra_closure():
    cfg = sample_config(2)
    td = triangular_decompose(cfg, "L", (-4, 4))
    for (n1, p1) in td.plus:
        for (n2, p2) in td.plus:
            out = vf_bracket(cfg, GradedElement.unit(-1, n1, p1),
                             GradedElement.unit(-1, n2, p2))
            for (n, p) in out.terms:
                sec = kn_basis_element(cfg, KNIndex(-1, n, p))
                if min(sec.order_at(pt) for pt in cfg.points) < 2:
                    return False, "plus part not closed"
    ta = triangular_decompose(cfg, "A", (-4, 4))
    for (n1, p1) in ta.minus:
        for (n2, p2) in ta.minus:
            out = multiply(cfg, GradedElement.unit(0, n1, p1),
                           GradedElement.unit(0, n2, p2))
            for (n, p) in out.terms:
                sec = kn_basis_element(cfg, KNIndex(0, n, p))
                if sec.order_at(INFINITY) < 1:
                    return False, "minus part not closed"
    return True, "plus/minus parts close under product and bracket"


def triangular_strips():
    # (N, algebra, its strip); A's plus part starts at degree 1
    for n_pts, kind, want in ((1, "L", [(0, 1)]),
                              (2, "L", [(-1, 1), (-1, 2), (0, 1), (0, 2)]),
                              (2, "A", [(0, 1), (0, 2)])):
        td = triangular_decompose(sample_config(n_pts), kind, (-4, 4))
        if td.strip != want or kind == "A" and min(
                n for n, _p in td.plus) != 1:
            return False, "strip %s of %s at N=%d" % (td.strip, kind, n_pts)
    return True, ("critical strips: N=1 dim 1; N=2 dim 4 by direct order "
                  "classification (the 3g-3+2N+2 count is not asserted)")


# --------------------------------------------------------------- affine --

def classical_affine():
    sl2 = make_algebra("sl2")
    cfg = sample_config(1)
    term = {(i, n): AffineElement.loop_term(i, n, 1)
            for i in range(sl2.dim) for n in range(-6, 7)}
    for n in range(-6, 7):
        for m in range(-6, 7):
            for i in range(sl2.dim):
                for j in range(sl2.dim):
                    out = affine_bracket(cfg, sl2, term[i, n], term[j, m])
                    loop = {(k, n + m, 1): c
                            for k, c in sl2.bracket.get((i, j), {}).items()}
                    central = (sl2.form[i][j] * Rat(n) if n + m == 0
                               else RAT0)
                    if out != AffineElement(loop, central):
                        return False, "affine relation at %s" % ((n, m, i, j),)
    return True, ("[x t^n, y t^m] = [x,y]t^{n+m} + (x|y) n delta t, |n|<=6, "
                  "all 9 sl2 basis pairs")


def affine_jacobi():
    sl2 = make_algebra("sl2")
    rng = random.Random(41)
    cfg = sample_config(2)
    for _ in range(15):
        a, b, c = (_loop(rng, 2, 3, -2, 2, 2, 2) for _ in range(3))
        s = affine_bracket(cfg, sl2, affine_bracket(cfg, sl2, a, b), c)
        s = s + affine_bracket(cfg, sl2, affine_bracket(cfg, sl2, b, c), a)
        s = s + affine_bracket(cfg, sl2, affine_bracket(cfg, sl2, c, a), b)
        if not s.is_zero():
            return False, "affine Jacobi fails"
    return True, "affine Jacobi with central terms exact"


def psi_homomorphism():
    sl2 = make_algebra("sl2")
    rng = random.Random(43)
    for n_pts, samples in ((2, 50), (3, 25)):
        cfg = sample_config(n_pts)
        for _ in range(samples):
            a, b = (_loop(rng, 3, 3, 0, 2, n_pts, 3)
                    + AffineElement.center(Rat(rng.randint(-2, 2)))
                    for _ in range(2))
            br = affine_bracket(cfg, sl2, a, b)
            if not affine_decompose(br)[0].is_zero():
                return False, "bracket left the psi domain"
            lhs = psi_project(sl2, br, n_pts)
            rhs = g_tuple_bracket(sl2, psi_project(sl2, a, n_pts),
                                  psi_project(sl2, b, n_pts))
            if lhs != rhs:
                return False, "psi not a homomorphism"
    return True, ("psi([a,b]) = [psi a, psi b] on 75 random domain pairs "
                  "(50 at N=2, 25 at N=3)")


def _block_premise_configs():
    """N = 1, 2, 3 at the sample points, and three rational points."""
    return ([sample_config(n) for n in NRANGE]
            + [sample_config(("1/2", "-7/3", "5"))])


def partition_of_unity():
    for cfg in _block_premise_configs():
        n_pts = cfg.n_points
        one = DivisorForm(cfg.points, 1, (1,), (0,) * n_pts)
        ge = expand_in_basis(cfg, Section(0, one))
        want = GradedElement(0, {(0, p): RAT1 for p in range(1, n_pts + 1)})
        if ge != want:
            return False, "1 != sum A_{0,p} at %s" % (cfg.points,)
    return True, "partition of unity 1 = sum_p A_{0,p}"


def block_algebra():
    sl2 = make_algebra("sl2")
    for n_pts in (1, 2):
        cfg = sample_config(n_pts)
        gens = block_algebra_basis(cfg, sl2, 1)
        if len(gens) != 3 * (1 + n_pts):
            return False, "block dimension"
        if not _block_pairs_vanish(cfg, gens):
            return False, "block cocycle nonzero"
    return True, "block algebra dimension and cocycle vanishing"


def affine_grading():
    sl2 = make_algebra("sl2")
    cfg = sample_config(2)
    for n in range(-3, 4):
        for m in range(-3, 4):
            a = AffineElement.loop_term(0, n, 1)
            b = AffineElement.loop_term(2, m, 2)
            out = affine_bracket(cfg, sl2, a, b)
            degs = out.degrees()
            if degs and (degs[0] < n + m or degs[-1] > n + m + 1):
                return False, "loop support outside band"
            if out.central.num != 0 and not (-1 <= n + m <= 0):
                return False, "central term outside [T, 0]"
    return True, "bracket degree bookkeeping within bands"


# --------------------------------------------------------------- module --

def representation_property():
    rng = random.Random(47)
    weyl, fock = _weyl_n2(), _fock_n1()
    for module, n_pts, gdim, base_slice in ((weyl, 2, 3, -1),
                                            (fock, 1, 1, -1),
                                            (fock, 1, 1, -2)):
        basis = module.slice_basis(base_slice)
        for _ in range(25):
            a, b = (_loop(rng, 2, gdim, -1, 1, n_pts, 2) for _ in range(2))
            mono = rng.choice(basis)
            act, v = module._act_affine_form, (1, {module.encode(mono): 1})
            # [a,b] v + b a v = a b v, on integer forms over codes
            den, acc = act(affine_bracket(module.cfg, module.alg, a, b), *v)
            den = add_scaled(den, acc, *act(b, *act(a, *v)), 1, 1)
            if canonical(den, acc) != canonical(*act(a, *act(b, *v))):
                return False, "representation property fails on %r" % (mono,)
    return True, ("act([a,b]) = [act a, act b] on 75 random triples "
                  "(Fock also on slice -2)")


def admissibility():
    for module in (_weyl_n2(), _fock_n1()):
        cfg, alg = module.cfg, module.alg
        for d in (0, -1, -2):
            gens = {(n, p, i): mode_digit(cfg, alg, (n, p, i))
                    for n in range(1 - d, 5 - d) for i in range(alg.dim)
                    for p in range(1, cfg.n_points + 1)}
            for string in module._slice_strings(d):
                for gen, digit in gens.items():
                    if module._act_block(digit, string)[1]:
                        return False, "not admissible at %s" % ((d, *gen),)
    return True, "positive modes annihilate above the slice degree"


def weyl_degree_zero():
    weyl = _weyl_n2()
    mods = weyl.factors
    for p in (1, 2):
        for i in range(3):
            want = factor_op(mods, p - 1, mods[p - 1].entries[i])
            if weyl.degree_zero_action(p, i) != form({
                    (r, c): v for r, row in enumerate(want)
                    for c, v in enumerate(row) if v.num}):
                return False, "degree-0 action mismatch"
    return True, "degree-0 slice carries the tensor-product action"


def block_algebra_negative_part(max_pole=4):
    """The premise of the genus-0 coinvariants (`modules`): each
    (z - P_p)^-j expands as A_{-j,p} plus terms of degree in (-j, -1], so
    x (x) A_{n,p} with n <= -1 lies in the block algebra.  Its other half,
    x (x) 1 = sum_p x (x) A_{0,p}, is the check partition-of-unity, at the
    same points."""
    for cfg in _block_premise_configs():
        n_pts = cfg.n_points
        for p in range(1, n_pts + 1):
            for j in range(1, max_pole + 1):
                k = tuple(-j if q == p else 0 for q in range(1, n_pts + 1))
                exp = expand_in_basis(cfg, Section(0, DivisorForm(
                    cfg.points, 1, (1,), k)))
                rest = [n for (n, q), _c in exp.items() if (n, q) != (-j, p)]
                if (exp.coefficient(-j, p) != RAT1
                        or not all(-j < n <= -1 for n in rest)):
                    return False, ("(z-P_%d)^-%d != A_{-%d,%d} + degrees in "
                                   "(-%d,-1] at %s" % (p, j, j, p, j,
                                                      cfg.points))
    return True, ("(z-P_p)^-j = A_{-j,p} + degrees in (-j,-1] for j <= %d, "
                  "at N=1,2,3 and 1/2,-7/3,5" % max_pole)


def level_action():
    weyl = _weyl_n2()
    t = AffineElement.center()
    v = ModuleVector.monomial(weyl.slice_basis(-1)[5])
    if weyl.act(t, v) != v.scale(Rat(1)):
        return False, "central element acts wrongly"
    f2 = _fock_n1(Rat(7, 2))
    if f2.act(t, f2.vacuum_vector()) != f2.vacuum_vector().scale(Rat(7, 2)):
        return False, "level not respected"
    return True, "t acts as level times identity"


# ------------------------------------------------------------- sugawara --

def classical_central_charge():
    cfg = sample_config(1)
    sl2 = make_algebra("sl2")
    ab = make_algebra("abelian1")
    cases = [
        (ab, "fock", (RAT0,), Rat(1)),
        (sl2, "weyl", (0,), Rat(1)),
        (sl2, "weyl", (0,), Rat(2)),
    ]
    for alg, kind, weights, level in cases:
        module = induce_module(alg, cfg, ModuleSpec(kind, weights, level))
        res = sugawara_commutator_audit(
            cfg, alg, module, [((2, 1), (-2, 1))], [-2, -3])
        e = res[0]
        # the classical Sugawara central charge, from outside the code path
        want = level * alg.dim / (level + alg.k_dual)
        if not e.is_scalar or e.ratio != want:
            return False, "central ratio %s != %s (%s level %s)" % (
                e.ratio, want, alg.kind, level)
    return True, ("central ratios 1, 1, 3/2 = level dim/(level + k_dual), "
                  "measured against chi_0")


def multipoint_centrality():
    module = _weyl_n2()
    cfg, sl2 = module.cfg, module.alg
    # two audits for cost only: every slice is exact, but auditing
    # ((2,1),(-2,1)) at slice -2 as well about doubles the check's time
    audits = (
        ([((1, 1), (-1, 2)), ((1, 2), (-1, 1)), ((0, 1), (0, 2))], [-1, -2]),
        ([((1, 1), (-1, 2)), ((1, 2), (-1, 1)), ((0, 1), (0, 2)),
          ((2, 1), (-2, 1))], [0, -1]),
    )
    for pairs, slices in audits:
        res = sugawara_commutator_audit(cfg, sl2, module, pairs, slices)
        for e in res:
            if not e.is_scalar:
                return False, "difference not scalar for %s" % (e.pair,)
    return True, ("[L*,L*] - L*_[.,.] scalar on all audited N=2 pairs, "
                  "slices -1,-2 and 0,-1")


def summation_bounds():
    # the engine's image blocks, computed from the current relation and the
    # image memo, against the term plan of degree d - 3 applied directly:
    # modes n in [t + d - 3, -d + 3], three past the summation bound on
    # each side, on the strings of each slice's first four monomials.  The
    # weyl module has h^v != 0 and a nonzero mode-0 action, so the
    # relation's terms and the vacuum plans' edges both reach its images
    for module in (_fock_n1(), _weyl_n2()):
        vb = module._vbits
        for d in (0, -2, -3):
            for string in module._slice_strings(d)[:-(-4 // module.vac_dim)]:
                unit = (1, module._identity(string))
                for k in (-1, 0, 2):
                    plan = _term_plan(module.cfg, module.alg, k, 1, d - 3)
                    if (apply_L_raw(module, (k, 1), unit, vb=vb)
                            != _apply_plan(module, plan, string)):
                        return False, "summation bound unstable"
    return True, "enlarging mode bounds by 3 changes nothing"


def normal_ordering_equivalence():
    # L(k,r) sums a degree-0 pair as c_{(0,p),(0,s)} D_ij u_i(0,p) u_j(0,s),
    # so the order of the two currents is immaterial when c and D are
    # symmetric: the premise of writing no tie rule, checked here (c on
    # every pair of total degree 0)
    d = make_algebra("sl2").dual_vectors
    sym = tuple(zip(*d)) == d
    for idx in ((0, 1), (-1, 2)):
        e = sugawara_coefficients(sample_config(3), idx, (0, 0))
        sym &= all(e.get((b, a)) == c for (a, b), c in e.items())
    if not sym:
        return False, "tie rule changed the operator"
    return True, ("swapping the degree-0 tie rule leaves L(k,r) fixed "
                  "(the degree-0 pair cocycle vanishes at genus 0)")


# ------------------------------------------------------------- registry --

CHECKS = [
    ("duality-grid", "basis", duality_grid),
    ("order-book", "basis", order_book),
    ("rescaling-invariance", "basis", rescaling_invariance),
    ("expansion-roundtrip", "basis", expansion_roundtrip),
    ("homogeneous-dimension", "basis", homogeneous_dimensions),
    ("classical-virasoro", "algebra", classical_virasoro),
    ("jacobi", "algebra", vector_field_jacobi),
    ("lie-module", "algebra", lie_module),
    ("leibniz", "algebra", leibniz),
    ("cocycle-identities", "algebra", cocycle_identities),
    ("almost-grading-locality", "algebra", almost_grading_locality),
    ("cocycle-vanishing", "algebra", cocycle_vanishing),
    ("cohomologous-connections", "algebra", cohomologous_connections),
    ("subalgebra-closure", "algebra", subalgebra_closure),
    ("triangular-decomposition", "algebra", triangular_strips),
    ("classical-affine", "affine", classical_affine),
    ("affine-jacobi", "affine", affine_jacobi),
    ("psi-homomorphism", "affine", psi_homomorphism),
    ("partition-of-unity", "affine", partition_of_unity),
    ("block-algebra", "affine", block_algebra),
    ("affine-grading", "affine", affine_grading),
    ("representation-property", "module", representation_property),
    ("admissibility", "module", admissibility),
    ("weyl-degree-zero", "module", weyl_degree_zero),
    ("block-algebra-negative-part", "module", block_algebra_negative_part),
    ("level", "module", level_action),
    ("classical-central-charge", "sugawara", classical_central_charge),
    ("multipoint-centrality", "sugawara", multipoint_centrality),
    ("summation-bounds", "sugawara", summation_bounds),
    ("normal-ordering-equivalence", "sugawara", normal_ordering_equivalence),
    ("tangent-fields", "kz", kz_tangent_fields),
    ("kz-classical-agreement", "kz", kz_classical_agreement),
    ("translation-covariance", "kz", kz_translation_covariance),
    ("kz-abelian", "kz", kz_abelian),
    ("kz-flatness", "kz", kz_flatness),
    ("coinvariant-clebsch-gordan", "kz", coinvariant_clebsch_gordan),
]


def _run_registry(suite, params):
    """Run the registry checks of one suite in order, on one shared Config
    per point set; each check gets the params its signature names, and a
    param no check names is an error."""
    results = []
    unused = set(params)
    with shared_configs():
        for name, s, fn in CHECKS:
            if s != suite:
                continue
            names = fn.__code__.co_varnames[:fn.__code__.co_argcount]
            own = {k: v for k, v in params.items() if k in names}
            unused -= set(own)
            try:
                ok, detail = fn(**own)
            except Exception as exc:  # a failing check must not kill the run
                ok, detail = False, "error: %s: %s" % (type(exc).__name__,
                                                       exc)
            results.append(CheckResult(name, bool(ok), detail))
    if unused:
        raise TypeError("no %s check takes %s" % (suite, sorted(unused)))
    return results


def suite_basis(**params):
    return _run_registry("basis", params)


def suite_algebra(**params):
    return _run_registry("algebra", params)


def suite_affine(**params):
    return _run_registry("affine", params)


def suite_module(**params):
    return _run_registry("module", params)


def suite_sugawara(**params):
    return _run_registry("sugawara", params)


def suite_kz(**params):
    return _run_registry("kz", params)


SUITES = {
    "basis": suite_basis,
    "algebra": suite_algebra,
    "affine": suite_affine,
    "module": suite_module,
    "sugawara": suite_sugawara,
    "kz": suite_kz,
}


def run_suite(name):
    """Run one named suite (or 'all'); returns a list of CheckResult."""
    if name == "all":
        out = []
        for s in SUITES:
            out.extend(SUITES[s]())
        return out
    if name not in SUITES:
        raise KNError("unknown suite %r" % name)
    return SUITES[name]()
