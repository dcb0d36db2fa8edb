"""Command-line interface.

All subcommands read an optional JSON config file (--config) and emit
deterministic JSON on stdout: keys sorted, rationals as canonical "p/q"
strings, polynomials as ascending coefficient arrays.  Exit codes:
0 success, 1 domain error, 2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import prod

from ._kernel import BACKEND, Rat
from .affine import AffineElement, affine_bracket
from .algebras import (ProjectiveConnection, R_ZERO, _pairs, cocycle_chi,
                       cocycle_gamma, multiply, vf_bracket)
from .basis import Config, GradedElement, KNIndex, kn_basis_record
from .errors import ConfigError, DomainError, KNError, TruncationOverflow
from .finite_lie import make_algebra
from .kz import flatness_check, kz_matrices
from .modules import (ModuleSpec, degree_zero_coinvariant_dimension,
                      induce_module)
from .ratfield import INFINITY, Poly, RationalFunction
from .sugawara import sugawara_commutator_audit

# Bounds on degree and depth requests, so that none runs unbounded: at
# four integer points the largest accepted `basis`, `table`, `cocycle`,
# `affine` and plain `module` request takes ten seconds or less (cost
# grows with n - lambda, the square of the window width and how far
# negative the window reaches).  `module` counts its slices, unbuilt.
MAX_BASIS_INDEX = 200    # |n| and |lambda| of `basis`
MAX_WINDOW_WIDTH = 31    # hi - lo + 1 of a `table`/`cocycle`/`affine` window
MAX_WINDOW_DEGREE = 20   # |lo| and |hi| of such a window
MAX_DEPTH = 7            # slices `module` lists; lowest `sugawara` slice;
                         # |k| and |m| of a `sugawara` pair k,r,m,s
# Width of a `verma` module whose slices are built (`module --coinvariants`
# or `--action`, `sugawara`): its degree-0 slice takes one recursion level
# per string entry.
MAX_VERMA_WIDTH = 32
# Largest sl2 weight of a local module in a `weyl` module, checked before
# any local irrep is built (about 0.025 s at weight 400: a plain `module`
# listing with weights 393-400 at eight points takes 0.33 s).
MAX_WEYL_WEIGHT = 400
# Work of a request that builds slices, estimated before any slice is
# built, in units of about 0.2-0.6 us (and, for `kz` and `module`, 60
# bytes of max RSS at most).  Fresh processes on a 2-core x86-64 VM;
# README's module is weyl (1,1,1) at 0,1,-1:
#   request                                       estimate     s    MB
#   sugawara 0,1,0,2 slice -6, verma w2, N = 8  12,329,856   1.1    59
#   sugawara -7,1,-7,2 slice 0, README's module 10,557,844   0.8    66
#   kz (48,48), N = 2                           11,817,770   0.9   220
#   kz (38,48), N = 2, --json-indent 4          14,837,052   2.6   836
#   kz (1,1,0,...,0), N = 557                   14,989,984   0.7    27
#   module --action (9,9,8), --json-indent 4    14,580,000   3.8   835
#   module --coinvariants (2,...,2,0), N = 9    14,526,054   4.7    70
#   module --coinvariants verma w26, N = 4      13,154,400   5.1   174
#   module --coinvariants (56,56,57), N = 3     14,133,150   1.2   189
#   module --coinvariants (400,399), N = 2       8,020,000   1.0   134
#   refused: module --action (10,10,10), N = 3  15,944,049   2.2   319
#   refused: module --action (9,9,9), indent 8  27,000,000   4.8  1303
#   refused: sugawara -7,1,0,2 slice -2, README 23,085,648   1.9   130
#   refused: module --coinvariants (68,68,69)   24,995,250  10.8   528
MAX_WORK = 15_000_000
# Spaces per nesting level of `--json-indent`; output grows linearly with
# it: `kz` at (1,...,1) at eight points writes 2.7 MB compact, 19.5 MB at
# 8 (0.9 s, 95 MB max RSS in a fresh process).
MAX_JSON_INDENT = 8


def _rat_str(x):
    """Canonical "p/q" string; a rational too long for the interpreter's
    int-to-str conversion is a request error, not a traceback."""
    try:
        return str(x)
    except ValueError:
        raise ConfigError(
            "a rational in the output has more than %d digits; use marked "
            "points of smaller height or a smaller degree"
            % sys.get_int_max_str_digits()) from None


def _matrix_json(form, dim):
    """The dim x dim matrix of a canonical integer form (D, {(row,
    column): int}) as rows of strings: "0", then each nonzero entry."""
    den, nums = form
    rows = [["0"] * dim for _ in range(dim)]
    for (r, c), x in nums.items():
        rows[r][c] = _rat_str(Rat(x, den))
    return rows


def _poly_json(p):
    return [_rat_str(c) for c in p.coeffs]


def _parse_rat(text):
    try:
        return Rat.parse(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError("bad rational %r: %s" % (text, exc))


def _parse_int(value, what):
    """An integer given as a JSON number or a decimal string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError("bad %s %r: expected an integer" % (what, value))


def _bounded(value, what, lo, hi, name):
    if not lo <= value <= hi:
        raise ConfigError("%s %d is out of range %d..%d (%s)"
                          % (what, value, lo, hi, name))
    return value


def _point_index(value, what, cfg):
    return _bounded(value, what, 1, cfg.n_points, "marked points")


def _parse_int_list(text, what):
    return [_parse_int(x, what) for x in text.split(",")]


def _config_list(value, key):
    if not isinstance(value, list):
        raise ConfigError("config %r must be a list, got %r" % (key, value))
    return value


def _config_object(value, key):
    if not isinstance(value, dict):
        raise ConfigError("config %r must be an object, got %r"
                          % (key, value))
    return value


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    return _config_object(data, path)


def _config_points(data, args):
    pts = None
    if getattr(args, "points", None):
        pts = [s for s in args.points.split(",") if s]
    elif "points" in data:
        pts = _config_list(data["points"], "points")
    if not pts:
        raise ConfigError("no marked points given (config 'points' or --points)")
    try:
        return Config([_parse_rat(p) for p in pts])
    except DomainError as exc:
        raise ConfigError(str(exc))


def _config_algebra(data):
    kind = data.get("lie_algebra", "sl2")
    try:
        return make_algebra(kind)
    except DomainError as exc:
        raise ConfigError(str(exc))


def _config_poly(spec, key, default):
    coeffs = _config_list(spec.get(key, default), "connection_R " + key)
    return Poly([_parse_rat(c) for c in coeffs])


def _config_connection(data):
    spec = data.get("connection_R")
    if spec is None:
        return R_ZERO
    spec = _config_object(spec, "connection_R")
    num = _config_poly(spec, "num", [])
    den = _config_poly(spec, "den", ["1"])
    if den.is_zero():
        raise ConfigError("config 'connection_R den' is the zero polynomial")
    return ProjectiveConnection(RationalFunction(num, den))


def _config_module_spec(cfg, data, alg):
    m = _config_object(data.get("module", {}), "module")
    kind = m.get("kind", "weyl")
    weights = m.get("weights", data.get("weights"))
    if weights is None:
        raise ConfigError("module weights missing")
    weights = _config_weights(cfg, alg, weights, kind == "weyl")
    level = _parse_rat(m.get("level", data.get("level", "1")))
    depth = _parse_int(m.get("depth", data.get("depth", 4)), "depth")
    _bounded(depth, "depth", 0, MAX_DEPTH, "MAX_DEPTH")
    width = m.get("width")
    if width is not None:
        width = _parse_int(width, "width")
    try:
        return ModuleSpec(kind, weights, level, depth, width)
    except DomainError as exc:
        raise ConfigError(str(exc))


def _config_weights(cfg, alg, weights, integral):
    """One weight per marked point, integers if `integral` (then an sl2
    weight lies in 0..MAX_WEYL_WEIGHT), else rationals; checked before
    any module is built."""
    weights = _config_list(weights, "weights")
    if len(weights) != cfg.n_points:
        raise ConfigError("need one weight per marked point")
    if not integral:
        return tuple(_parse_rat(w) for w in weights)
    weights = tuple(_parse_int(w, "weight") for w in weights)
    if alg.kind == "sl2":
        if min(weights) < 0:
            raise ConfigError("sl2 weight must be a nonnegative integer")
        for w in weights:
            _bounded(w, "weyl weight", 0, MAX_WEYL_WEIGHT, "MAX_WEYL_WEIGHT")
    return weights


def _within_work(work):
    """Refuse a request whose work estimate exceeds MAX_WORK."""
    if work > MAX_WORK:
        raise ConfigError("work estimate %d exceeds %d (MAX_WORK)"
                          % (work, MAX_WORK))


# Work estimates of the commands that build slices, in MAX_WORK's units,
# from counts only: dim0 degree-0 monomials, a module's slice dimensions.

def _entry_work(indent):
    """One output matrix entry: 1 written compact, 2 + indent // 5
    indented (json's Python encoder then builds a string per entry)."""
    return 1 if indent < 0 else 2 + indent // 5


def _kz_work(weights, dim0, indent):
    """For N points, k of them of nonzero weight: N dim0^2 output entries
    (`_entry_work`); 40 + 10 N for each of N * dim0 columns, fitted on
    degree-0 module actions and now an upper bound on its entries in
    the Casimir products and their sums into the N matrices; and
    2 N^2 k^2 for the N k(k+1)/2 triple coefficients read where a
    Casimir product is nonzero, each a residue of poles of order at most
    two over N points, in closed form."""
    n, k = len(weights), sum(map(bool, weights))
    return (n * dim0 * (_entry_work(indent) * dim0 + 40 + 10 * n)
            + 2 * n ** 2 * k ** 2)


def _coinvariant_work(module, dim0):
    """dim g * N relation rows per monomial: 40 each in a verma module,
    else 5 plus 1 per 5 monomials of its sl2 weight space in a weyl module
    (dim0 // (sum of weights + 1)).  With an odd sl2 weight sum no
    monomial has weight 0, so the N Cartan rows per monomial, the first
    eliminated, fill the span alone: 25 each, if that is less."""
    spec, alg, n = module.spec, module.alg, module.cfg.n_points
    weyl_sl2 = spec.kind == "weyl" and alg.kind == "sl2"
    fill = dim0 // (sum(spec.weights) + 1) if weyl_sl2 else 0
    row = 40 if spec.kind == "verma" else 5 + fill // 5
    work = alg.dim * n * dim0 * row
    if weyl_sl2 and sum(spec.weights) % 2:
        work = min(work, n * dim0 * 25)
    return work


def _audit_work(module, pairs, window):
    """For each pair k,r,m,s (a repeated pair counts again) and distinct
    slice d, the monomials of slice d times, over 200,
      F(k, d) F(m, d + k) + F(m, d) F(k, d + m) + 10 N F(k + m, d):
    L(k) reaches about F(k, d) monomials from each monomial of slice d
    and L(m) costs about F(m, d + k) on each, so two negative degrees
    multiply; the pair's bracket adds about N operators of degree k + m.
    F(k, e) is 50 on an empty slice e > 0, else (1 - e)(N + 4) times 7
    for k > 0 and 10 for k <= 0, plus N dim g (200|k| - 160) for k < 0."""
    n = module.cfg.n_points

    def cost(k, e):
        if e > 0:
            return 50
        if k > 0:
            return 7 * (1 - e) * (n + 4)
        return (10 * (1 - e) * (n + 4)
                + n * module.alg.dim * max(0, -200 * k - 160))

    return sum(module.slice_dimension(d)
               * sum(cost(k, d) * cost(m, d + k) + cost(m, d) * cost(k, d + m)
                     + 10 * n * cost(k + m, d) for (k, _r), (m, _s) in pairs)
               // 200 for d in dict.fromkeys(window))


def _built_verma_width(spec):
    if spec.kind == "verma":
        _bounded(spec.width, "verma width", 0, MAX_VERMA_WIDTH,
                 "MAX_VERMA_WIDTH")


def _window(args):
    try:
        lo, hi = (int(x) for x in args.window.split(":"))
    except ValueError:
        raise ConfigError("bad window %r; expected lo:hi" % args.window)
    for end in (lo, hi):
        _bounded(end, "window end", -MAX_WINDOW_DEGREE, MAX_WINDOW_DEGREE,
                 "MAX_WINDOW_DEGREE")
    if lo > hi:
        raise ConfigError("empty window %r; need lo <= hi" % args.window)
    if hi - lo + 1 > MAX_WINDOW_WIDTH:
        raise ConfigError("window width %d exceeds %d (MAX_WINDOW_WIDTH)"
                          % (hi - lo + 1, MAX_WINDOW_WIDTH))
    return lo, hi


def _emit(args, payload):
    indent = args.json_indent if args.json_indent >= 0 else None
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=indent))
    sys.stdout.write("\n")


# ------------------------------------------------------------- commands --

def cmd_basis(args):
    data = _load_config(args.config)
    cfg = _config_points(data, args)
    _bounded(args.n, "--n", -MAX_BASIS_INDEX, MAX_BASIS_INDEX,
             "MAX_BASIS_INDEX")
    _bounded(args.lam, "--lambda", -MAX_BASIS_INDEX, MAX_BASIS_INDEX,
             "MAX_BASIS_INDEX")
    _point_index(args.p, "--p", cfg)
    sec = kn_basis_record(cfg, KNIndex(args.lam, args.n, args.p))
    form, value = sec.form(cfg), sec.value
    payload = {
        "lambda": args.lam,
        "n": args.n,
        "p": args.p,
        "num": _poly_json(value.num),
        "den": _poly_json(value.den),
        "orders": {str(i + 1): form.order(i) for i in range(cfg.n_points)}
                  | {"infinity": sec.order_at(INFINITY)},
        "adjusted": False,
    }
    _emit(args, payload)
    return 0


def _ge_json(ge):
    return [[n, p, _rat_str(c)] for (n, p), c in ge.items()]


def cmd_table(args):
    data = _load_config(args.config)
    cfg = _config_points(data, args)
    lo, hi = _window(args)
    lam = 0 if args.algebra == "A" else -1
    op = multiply if args.algebra == "A" else vf_bracket
    entries = []
    for n, p, m, r in _pairs(cfg, (lo, hi)):
        out = op(cfg, GradedElement.unit(lam, n, p),
                 GradedElement.unit(lam, m, r))
        entries.append({
            "left": [lam, n, p],
            "right": [lam, m, r],
            "result": _ge_json(out),
        })
    _emit(args, {"algebra": args.algebra, "entries": entries})
    return 0


def cmd_cocycle(args):
    data = _load_config(args.config)
    cfg = _config_points(data, args)
    lo, hi = _window(args)
    R = _config_connection(data)
    entries = []
    lam = 0 if args.kind == "gamma" else -1
    for n, p, m, r in _pairs(cfg, (lo, hi)):
        if args.kind == "gamma":
            v = cocycle_gamma(cfg, GradedElement.unit(0, n, p),
                              GradedElement.unit(0, m, r))
        else:
            v = cocycle_chi(cfg, GradedElement.unit(-1, n, p),
                            GradedElement.unit(-1, m, r), R)
        if v.num != 0:
            entries.append({
                "left": [lam, n, p],
                "right": [lam, m, r],
                "result": _rat_str(v),
            })
    _emit(args, {"kind": args.kind, "entries": entries})
    return 0


def cmd_affine(args):
    data = _load_config(args.config)
    cfg = _config_points(data, args)
    alg = _config_algebra(data)
    lo, hi = _window(args)
    entries = []
    for n, p, m, r in _pairs(cfg, (lo, hi)):
        for i in range(alg.dim):
            for j in range(alg.dim):
                out = affine_bracket(cfg, alg,
                                     AffineElement.loop_term(i, n, p),
                                     AffineElement.loop_term(j, m, r))
                entries.append({
                    "left": [alg.labels[i], n, p],
                    "right": [alg.labels[j], m, r],
                    "result": [[alg.labels[k], h, s, _rat_str(c)]
                               for (k, h, s), c in out.items()],
                    "central": _rat_str(out.central),
                })
    _emit(args, {"lie_algebra": alg.kind, "entries": entries})
    return 0


def cmd_module(args):
    data = _load_config(args.config)
    cfg = _config_points(data, args)
    alg = _config_algebra(data)
    spec = _config_module_spec(cfg, data, alg)
    module = induce_module(alg, cfg, spec)
    slices = {str(-d): module.slice_dimension(-d)
              for d in range(0, spec.depth + 1)}
    payload = {
        "kind": spec.kind,
        "weights": [_rat_str(w) for w in spec.weights],
        "level": _rat_str(module.level),
        "depth": spec.depth,
        "slice_dimensions": slices,
    }
    if args.coinvariants or args.action:
        _built_verma_width(spec)
        dim0 = module.slice_dimension(0)
        # `--action` prints 3N dense matrices of dim0^2 entries for sl2
        _within_work(args.coinvariants * _coinvariant_work(module, dim0)
                     + args.action * cfg.n_points * alg.dim * dim0 ** 2
                     * _entry_work(args.json_indent))
        if args.action and spec.kind == "verma" and alg.minus_indices:
            # f(0,p) lengthens the longest strings past the width bound
            raise TruncationOverflow(lost_widths=(spec.width + 1,))
    if args.coinvariants:
        payload["coinvariant_dimension_degree0"] = \
            degree_zero_coinvariant_dimension(module)
    if args.action:
        payload["degree0_action"] = {
            "%s(0,%d)" % (label, p):
                _matrix_json(module.degree_zero_action(p, i), dim0)
            for p in range(1, cfg.n_points + 1)
            for i, label in enumerate(alg.labels)}
    _emit(args, payload)
    return 0


def cmd_sugawara(args):
    data = _load_config(args.config)
    cfg = _config_points(data, args)
    alg = _config_algebra(data)
    spec = _config_module_spec(cfg, data, alg)
    module = induce_module(alg, cfg, spec)
    pairs = []
    for chunk in args.pairs.split(";"):
        idx = _parse_int_list(chunk, "pair index")
        if len(idx) != 4:
            raise ConfigError("bad pair %r; expected k,r,m,s" % chunk)
        _point_index(idx[1], "pair point index", cfg)
        _point_index(idx[3], "pair point index", cfg)
        for k in (idx[0], idx[2]):
            _bounded(k, "pair degree", -MAX_DEPTH, MAX_DEPTH, "MAX_DEPTH")
        pairs.append((tuple(idx[:2]), tuple(idx[2:])))
    window = [_bounded(d, "slice degree", -spec.depth, 0, "module depth")
              for d in _parse_int_list(args.slices, "slice degree")]
    for d in window:
        if not module.slice_dimension(d):
            raise ConfigError("slice %d of this module is empty" % d)
    _built_verma_width(spec)
    _within_work(_audit_work(module, pairs, window))
    entries = []
    for e in sugawara_commutator_audit(cfg, alg, module, pairs, window):
        entries.append({
            "pair": [list(e.pair[0]), list(e.pair[1])],
            "is_scalar": e.is_scalar,
            "scalar": _rat_str(e.scalar),
            "chi": _rat_str(e.chi),
            "ratio": None if e.ratio is None else _rat_str(e.ratio),
        })
    _emit(args, {"lie_algebra": alg.kind, "level": _rat_str(module.level),
                 "entries": entries})
    return 0


def cmd_kz(args):
    data = _load_config(args.config)
    cfg = _config_points(data, args)
    alg = _config_algebra(data)
    weights = data.get("weights")
    if weights is None:
        raise ConfigError("weights missing")
    weights = _config_weights(cfg, alg, weights, alg.kind == "sl2")
    level = _parse_rat(data.get("level", "1"))
    dim0 = prod(w + 1 for w in weights) if alg.kind == "sl2" else 1
    _within_work(_kz_work(weights, dim0, args.json_indent))
    system = kz_matrices(cfg, alg, weights, level)
    flat = "ok" if flatness_check(system).holds else "violated"
    payload = {
        "points": [_rat_str(p) for p in cfg.points],
        "lie_algebra": alg.kind,
        "weights": [_rat_str(w) for w in weights],
        "level": _rat_str(level),
        "kappa": None if system.kappa is None else _rat_str(system.kappa),
        "sign_convention": (None if system.sign_convention is None
                            else "%+d" % system.sign_convention),
        "matrices": [_matrix_json(m, dim0) for m in system.matrices],
        "scalar_shifts": [None if s is None else _rat_str(s)
                          for s in system.scalar_shifts],
        "residual_zero": system.residual_zero,
        "partial": system.partial,
        "flatness": flat,
        "moduli_directions": max(0, cfg.n_points - 3),
        "global_field_kernel": min(3, cfg.n_points),
    }
    _emit(args, payload)
    return 0


def cmd_verify(args):
    from .verify import run_suite  # imported here: no other command needs it
    results = run_suite(args.suite)
    payload = {
        "suite": args.suite,
        "backend": BACKEND,
        "checks": [r._asdict() for r in results],
        "passed": all(r.passed for r in results),
    }
    _emit(args, payload)
    if not payload["passed"]:
        for r in results:
            if not r.passed:
                sys.stderr.write("FAIL %s: %s\n" % (r.name, r.detail))
        return 1
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON configuration file")
    common.add_argument("--json-indent", type=int, default=argparse.SUPPRESS,
                        help="indentation for JSON output (-1 = compact)")
    ap = argparse.ArgumentParser(
        prog="knwznw",
        parents=[common],
        description="Exact multi-point Krichever-Novikov / WZNW toolkit "
                    "on the rational curve")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", parents=[common],
                       help="one basis element as JSON")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--points", help="comma-separated marked points")
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("table", parents=[common],
                       help="structure constants of A or L")
    p.add_argument("--algebra", choices=("A", "L"), default="L")
    p.add_argument("--window", default="-2:2")
    p.add_argument("--points")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("cocycle", parents=[common],
                       help="cocycle values over a window")
    p.add_argument("--kind", choices=("gamma", "chi"), default="gamma")
    p.add_argument("--window", default="-3:3")
    p.add_argument("--points")
    p.set_defaults(fn=cmd_cocycle)

    p = sub.add_parser("affine", parents=[common],
                       help="affine bracket table")
    p.add_argument("--window", default="-2:2")
    p.add_argument("--points")
    p.set_defaults(fn=cmd_affine)

    p = sub.add_parser("module", parents=[common],
                       help="induced module slice dimensions")
    p.add_argument("--points")
    p.add_argument("--coinvariants", action="store_true",
                   help="also report the degree-0 coinvariant dimension")
    p.add_argument("--action", action="store_true",
                   help="emit the degree-0 action matrices")
    p.set_defaults(fn=cmd_module)

    p = sub.add_parser("sugawara", parents=[common],
                       help="commutator audit")
    p.add_argument("--pairs", default="2,1,-2,1",
                   help="semicolon-separated k,r,m,s")
    p.add_argument("--slices", default="-2",
                   help="comma-separated slice degrees")
    p.add_argument("--points")
    p.set_defaults(fn=cmd_sugawara)

    p = sub.add_parser("kz", parents=[common], help="formal KZ system")
    p.add_argument("--points")
    p.set_defaults(fn=cmd_kz)

    p = sub.add_parser("verify", parents=[common],
                       help="run an invariant suite")
    p.add_argument("--suite", default="all",
                   choices=("basis", "algebra", "affine", "module",
                            "sugawara", "kz", "all"))
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    # argparse reads `--window=--` as an empty list, not a string
    if [] in vars(args).values():
        sys.stderr.write("config error: an option value may not be '--'\n")
        return 2
    # shared flags may arrive before or after the subcommand; the
    # subparser namespace wins, absent means default
    if not hasattr(args, "config"):
        args.config = None
    if not hasattr(args, "json_indent"):
        args.json_indent = -1
    try:
        if args.json_indent > MAX_JSON_INDENT:
            raise ConfigError("--json-indent %d exceeds %d (MAX_JSON_INDENT)"
                              % (args.json_indent, MAX_JSON_INDENT))
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except ConfigError as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return 2
    except KNError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (say `| head`); point it at devnull so
        # that the interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
