"""Seeded job lists and exact output checks for the three workloads.

A job runs one cold computation (it builds a fresh ``Config``, as every
CLI call does) and raises ``Mismatch`` when an output fails its exact
check.  The oracles come from outside the code path under test: Kronecker
deltas, the almost-grading bounds of the paper, the sl2 Clebsch-Gordan
rule and the KZ constant 1/(level + 2).

Calls go through module attributes (``basis.kn_pairing``), never through
names imported into this module, so the traced run's rebinding of public
functions reaches the calls made here too.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

from knwznw import algebras, basis, cli, finite_lie, kz, modules, sugawara
from knwznw._kernel import RAT0, RAT1, Rat

WEIGHT_RANGE = (0, 1, 2)
LEVELS = (1, 2)


class Mismatch(Exception):
    """An output differs from its oracle."""


def _config(points):
    return basis.Config([Rat(x.numerator, x.denominator) for x in points])


def admissible_weights():
    """sl2 weight triples from WEIGHT_RANGE with an even sum and at least
    two nonzero entries: exactly the triples with a nonzero invariant
    space whose Casimir oracle is not identically zero."""
    out = []
    for a in WEIGHT_RANGE:
        for b in WEIGHT_RANGE:
            for c in WEIGHT_RANGE:
                w = (a, b, c)
                if sum(w) % 2 == 0 and sum(1 for x in w if x) >= 2:
                    out.append(w)
    return out


def invariant_multiplicity(weights):
    """Multiplicity of the trivial sl2 module in the tensor product of the
    irreducibles V_w, by weight counting: (# h-weight 0) - (# h-weight 2)."""
    counts = {0: 1}
    for w in weights:
        nxt = {}
        for h, c in counts.items():
            for j in range(w + 1):
                nxt[h + w - 2 * j] = nxt.get(h + w - 2 * j, 0) + c
        counts = nxt
    return counts.get(0, 0) - counts.get(2, 0)


# ------------------------------------------------------------ kn-tables --

KN_LAMS = (-1, 0, 1, 2)
KN_GRID = 3
KN_WINDOW = (-2, 2)


def kn_tables_job(points):
    """Duality grid for weights -1..2 at |n| <= 3, then the A, L, gamma
    and chi grading reports on the window [-2, 2]."""
    cfg = _config(points)
    KNIndex = basis.KNIndex
    N = cfg.n_points
    rng = range(-KN_GRID, KN_GRID + 1)
    for lam in KN_LAMS:
        for n in rng:
            for m in rng:
                for p in range(1, N + 1):
                    for r in range(1, N + 1):
                        a = basis.kn_basis_element(cfg, KNIndex(lam, n, p))
                        b = basis.kn_basis_element(cfg,
                                                   KNIndex(1 - lam, m, r))
                        want = RAT1 if (m == -n and p == r) else RAT0
                        if basis.kn_pairing(cfg, a, b) != want:
                            raise Mismatch("pairing at %s" % (
                                (lam, n, p, m, r),))
    for alg in ("A", "L", "gamma", "chi"):
        rep = algebras.grading_report(cfg, alg, KN_WINDOW)
        if rep.violations:
            raise Mismatch("%s violation %s" % (alg, rep.violations[0]))
        if alg in ("A", "L") and rep.lower_shift != 0:
            raise Mismatch("%s lower shift %d" % (alg, rep.lower_shift))
    # cocycle support n + m <= 0, read off the values themselves rather
    # than the report's verdict (the report already computed and cached
    # them, so this costs look-ups)
    unit = algebras.GradedElement.unit
    lo, hi = KN_WINDOW
    for n in range(lo, hi + 1):
        for m in range(max(lo, 1 - n), hi + 1):
            for p in range(1, N + 1):
                for r in range(1, N + 1):
                    g = algebras.cocycle_gamma(cfg, unit(0, n, p),
                                               unit(0, m, r))
                    c = algebras.cocycle_chi(cfg, unit(-1, n, p),
                                             unit(-1, m, r))
                    if g != RAT0 or c != RAT0:
                        raise Mismatch("cocycle nonzero at n+m=%d %s" % (
                            n + m, ((n, p), (m, r))))


# Denominators of the three points, one pattern per job of a cycle.  The
# cost of a job depends mostly on how many points are integers and how
# large the denominators are; fixing the mix per cycle keeps the cost of a
# run from hinging on what a seed happens to draw.
KN_DENOMINATORS = ((1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 2, 4), (1, 3, 4),
                   (2, 3, 4), (3, 4, 4))


def draw_with_denominators(rng, dens, max_num=9):
    """Distinct points n/d, one per d in dens, in seeded order, with
    0 < |n| <= max_num coprime to d (so d stays the denominator).

    The point 0 is left out: it makes a job about a third cheaper, so a
    seed that drew it would move run_s by itself; verify-all covers the
    small points 0 and +-1."""
    out = []
    for d in dens:
        while True:
            n = rng.randint(-max_num, max_num)
            x = Fraction(n, d)
            if n and x.denominator == d and x not in out:
                out.append(x)
                break
    rng.shuffle(out)
    return out


def kn_tables(seed, cycles):
    rng = random.Random(seed)
    jobs = []
    for _ in range(cycles):
        for dens in KN_DENOMINATORS:
            jobs.append(("kn-tables",
                         {"points": draw_with_denominators(rng, dens)}))
    return jobs


# ---------------------------------------------------------- wznw-blocks --

BLOCK_DEPTH = 3
# One denominator pattern for every block (and one for every audit): the
# weight triple, not the height of the points, should set a job's cost.
BLOCK_DENOMINATORS = (1, 2, 3)
AUDIT_DENOMINATORS = (1, 2)
AUDIT = {"weights": (1, 1), "depth": 4, "level": 1,
         "pairs": (((1, 1), (-1, 2)), ((0, 1), (0, 2))), "slices": (-1, -2)}


def block_job(points, weights, level):
    """Degree-zero coinvariant dimension at depth 3, then the KZ matrices
    at depth 3 and the flatness check."""
    cfg = _config(points)
    sl2 = finite_lie.make_algebra("sl2")
    lev = Rat(level)
    spec = modules.ModuleSpec("weyl", tuple(weights), lev, BLOCK_DEPTH)
    module = modules.induce_module(sl2, cfg, spec)
    dim = modules.degree_zero_coinvariant_dimension(module)
    want = invariant_multiplicity(weights)
    if dim != want:
        raise Mismatch("coinvariant dimension %d != CG %d" % (dim, want))
    system = kz.kz_matrices(cfg, sl2, tuple(weights), lev, BLOCK_DEPTH)
    if system.partial or not system.residual_zero:
        raise Mismatch("KZ fit partial=%s residual_zero=%s" % (
            system.partial, system.residual_zero))
    if system.kappa is None or abs(system.kappa) != Rat(1, level + 2):
        raise Mismatch("kappa %s at level %d" % (system.kappa, level))
    if not kz.flatness_check(system).holds:
        raise Mismatch("flatness violated")


def audit_job(points):
    """Sugawara commutator audit at N=2, weights (1,1), depth 4."""
    cfg = _config(points)
    sl2 = finite_lie.make_algebra("sl2")
    spec = modules.ModuleSpec("weyl", AUDIT["weights"], Rat(AUDIT["level"]),
                              AUDIT["depth"])
    module = modules.induce_module(sl2, cfg, spec)
    entries = sugawara.sugawara_commutator_audit(
        cfg, sl2, module, AUDIT["pairs"], AUDIT["slices"])
    if len(entries) != len(AUDIT["pairs"]):
        raise Mismatch("audit returned %d entries" % len(entries))
    for e in entries:
        if not e.is_scalar:
            raise Mismatch("audit entry %s not scalar" % (e.pair,))


def wznw_blocks(seed, cycles):
    """Each cycle holds every admissible weight triple once, in a fixed
    order, half of them at level 1 and half at level 2; every fourth job
    is an audit.  The seed decides the points and which triples get which
    level.  The order is fixed because it moves peak RSS: memory freed by
    one job is reused by the next only in part."""
    rng = random.Random(seed)
    blocks = []
    for _ in range(cycles):
        triples = admissible_weights()
        levels = [LEVELS[i % len(LEVELS)] for i in range(len(triples))]
        rng.shuffle(levels)
        blocks += list(zip(triples, levels))
    jobs = []
    while blocks:
        if len(jobs) % 4 == 3:
            jobs.append(("audit", {"points": draw_with_denominators(
                rng, AUDIT_DENOMINATORS)}))
            continue
        weights, level = blocks.pop(0)
        jobs.append(("block", {
            "points": draw_with_denominators(rng, BLOCK_DENOMINATORS),
            "weights": weights, "level": level}))
    return jobs


# ----------------------------------------------------------- verify-all --

def verify_all_job():
    """`knwznw verify --suite all` through cli.main; returns the sha256 of
    its stdout, which the caller compares with the first run's."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--suite", "all"])
    out = buf.getvalue()
    if code != 0:
        raise Mismatch("verify exit code %d" % code)
    if json.loads(out).get("passed") is not True:
        raise Mismatch("verify reports passed != true")
    return hashlib.sha256(out.encode()).hexdigest()


def verify_all(seed, count):
    return [("verify-all", {}) for _ in range(count)]


# job kind -> function of the job's arguments
RUNNERS = {
    "kn-tables": kn_tables_job,
    "block": block_job,
    "audit": audit_job,
    "verify-all": verify_all_job,
}

# workload -> (function making the job list, nominal seconds of one unit
# of work).
# The job count depends on --seconds only, never on measured time, so a
# run always does the same work and run_s compares across commits.
WORKLOADS = {
    "kn-tables": (kn_tables, 20.0),      # one unit = one cycle of 7 jobs
    "wznw-blocks": (wznw_blocks, 24.0),  # one unit = one cycle of 13 jobs
    "verify-all": (verify_all, 45.0),    # one unit = one verify run
}


def job_list(workload, seed, seconds):
    build, nominal = WORKLOADS[workload]
    return build(seed, max(1, int(round(seconds / nominal))))
