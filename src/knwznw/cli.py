"""Command-line interface.

All subcommands read an optional JSON config file (--config) and emit
deterministic JSON on stdout: keys sorted, rationals as canonical "p/q"
strings, polynomials as ascending coefficient arrays.  Exit codes:
0 success, 1 domain error, 2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from ._kernel import BACKEND, Rat
from .affine import AffineElement, affine_bracket
from .algebras import (ProjectiveConnection, R_ZERO, cocycle_chi,
                       cocycle_gamma, grading_report, multiply,
                       triangular_decompose, vf_bracket)
from .basis import Config, GradedElement, KNIndex, kn_basis_record
from .errors import ConfigError, DomainError, KNError
from .finite_lie import make_algebra
from .kz import flatness_check, kz_matrices
from .modules import (ModuleSpec, degree_zero_coinvariant_dimension,
                      induce_module)
from .ratfield import Poly, RationalFunction
from .sugawara import sugawara_commutator_audit, total_degree_band

# Bounds on degree and depth requests, so that none runs unbounded.  At
# four integer marked points the largest accepted `basis`, `table`,
# `cocycle`, `affine` and plain `module` request takes about ten seconds
# or less: cost grows with n - lambda for one basis element, with the
# square of the window width and with how far negative the window
# reaches.  `module` counts its slices (`InducedModule.slice_dimension`)
# instead of building them, so its depth costs little.
MAX_BASIS_INDEX = 200    # |n| and |lambda| of `basis`
MAX_WINDOW_WIDTH = 31    # hi - lo + 1 of a `table`/`cocycle`/`affine` window
MAX_WINDOW_DEGREE = 20   # |lo| and |hi| of such a window
MAX_DEPTH = 7            # slices `module` lists; lowest `sugawara` slice;
                         # |k| and |m| of a `sugawara` pair k,r,m,s
# Width of a `verma` module whose slices are built: by `module
# --coinvariants`, `module --action` and `sugawara` (a plain `module`
# listing only counts them).  Building the degree-0 slice takes one
# recursion level per string entry.
MAX_VERMA_WIDTH = 32
# Monomials in the degree-0 slice, C(width + N, N) strings at N points,
# of a `verma` module that `module --coinvariants` or `--action` builds.
# With weights 1 the largest accepted took 5-7 s (560 at 0,1,-1, 495 at
# 0,1,-1,2, 462 at five points); 969 at 0,1,-1 took 12 s.
MAX_VERMA_SLICE = 600
# Monomials in the deepest slice a `sugawara` audit reaches: slice d plus
# the most negative shift of a pair.  The audit's time and memory grow
# with it: at points 0,1,-1 with weights (1,1,1), pair 2,1,-2,1 reaches
# 8,280 monomials from slice -2 (about 3 s and 56 MB) and 30,024 from
# slice -3 (about 28 s and 270 MB).
MAX_AUDIT_MONOMIALS = 10000


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


def _config_module_spec(cfg, data):
    m = _config_object(data.get("module", {}), "module")
    kind = m.get("kind", "weyl")
    weights = m.get("weights", data.get("weights"))
    if weights is None:
        raise ConfigError("module weights missing")
    weights = _config_list(weights, "weights")
    level = _parse_rat(m.get("level", data.get("level", "1")))
    depth = _parse_int(m.get("depth", data.get("depth", 4)), "depth")
    _bounded(depth, "depth", 0, MAX_DEPTH, "MAX_DEPTH")
    width = m.get("width")
    if width is not None:
        width = _parse_int(width, "width")
    if kind in ("weyl",):
        weights = tuple(_parse_int(w, "weight") for w in weights)
    else:
        weights = tuple(_parse_rat(w) for w in weights)
    try:
        return ModuleSpec(kind, weights, level, depth, width)
    except DomainError as exc:
        raise ConfigError(str(exc))


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
    rec = kn_basis_record(cfg, KNIndex(args.lam, args.n, args.p))
    value = rec.section.value
    payload = {
        "lambda": args.lam,
        "n": args.n,
        "p": args.p,
        "num": _poly_json(value.num),
        "den": _poly_json(value.den),
        "orders": {str(i): o for i, o in rec.orders.items()}
                  | {"infinity": rec.order_infinity},
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
    for n in range(lo, hi + 1):
        for m in range(lo, hi + 1):
            for p in range(1, cfg.n_points + 1):
                for r in range(1, cfg.n_points + 1):
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
    for n in range(lo, hi + 1):
        for m in range(lo, hi + 1):
            for p in range(1, cfg.n_points + 1):
                for r in range(1, cfg.n_points + 1):
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
    for n in range(lo, hi + 1):
        for m in range(lo, hi + 1):
            for p in range(1, cfg.n_points + 1):
                for r in range(1, cfg.n_points + 1):
                    for i in range(alg.dim):
                        for j in range(alg.dim):
                            out = affine_bracket(
                                cfg, alg,
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
    spec = _config_module_spec(cfg, data)
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
        if spec.kind == "verma" and slices["0"] > MAX_VERMA_SLICE:
            raise ConfigError(
                "verma degree-0 slice of %d monomials exceeds %d "
                "(MAX_VERMA_SLICE)" % (slices["0"], MAX_VERMA_SLICE))
    if args.coinvariants:
        payload["coinvariant_dimension_degree0"] = \
            degree_zero_coinvariant_dimension(module)
    if args.action:
        payload["degree0_action"] = {
            "%s(0,%d)" % (label, p):
                [[_rat_str(c) for c in row]
                 for row in module.degree_zero_action(p, i)]
            for p in range(1, cfg.n_points + 1)
            for i, label in enumerate(alg.labels)}
    _emit(args, payload)
    return 0


def cmd_sugawara(args):
    data = _load_config(args.config)
    cfg = _config_points(data, args)
    alg = _config_algebra(data)
    spec = _config_module_spec(cfg, data)
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
    # L(k, r) shifts degrees by totals in total_degree_band; an audit
    # applies L(m, s) then L(k, r), so it reaches d + min(0, k) + min(0, m)
    shift = min(sum(min(0, total_degree_band(cfg, k)[0]) for k, _r in pair)
                for pair in pairs)
    for d in window:
        size = module.slice_dimension(d + shift)
        if size > MAX_AUDIT_MONOMIALS:
            raise ConfigError(
                "slice %d reaches slice %d of %d monomials, more than %d "
                "(MAX_AUDIT_MONOMIALS)" % (d, d + shift, size,
                                           MAX_AUDIT_MONOMIALS))
    _built_verma_width(spec)
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
    weights = _config_list(weights, "weights")
    if alg.kind == "sl2":
        weights = tuple(_parse_int(w, "weight") for w in weights)
    else:
        weights = tuple(_parse_rat(w) for w in weights)
    level = _parse_rat(data.get("level", "1"))
    system = kz_matrices(cfg, alg, weights, level)
    flat = "ok"
    if cfg.n_points >= 3 and not flatness_check(system).holds:
        flat = "violated"
    payload = {
        "points": [_rat_str(p) for p in cfg.points],
        "lie_algebra": alg.kind,
        "weights": [_rat_str(w) for w in weights],
        "level": _rat_str(level),
        "kappa": None if system.kappa is None else _rat_str(system.kappa),
        "sign_convention": (None if system.sign_convention is None
                            else "%+d" % system.sign_convention),
        "matrices": [[[_rat_str(c) for c in row] for row in m]
                     for m in system.matrices],
        "scalar_shifts": (None if system.scalar_shifts is None else
                          [None if s is None else _rat_str(s)
                           for s in system.scalar_shifts]),
        "residual_zero": system.residual_zero,
        "partial": system.partial,
        "flatness": flat,
        "moduli_directions": system.metadata.get("moduli_directions"),
        "global_field_kernel": system.metadata.get("global_field_kernel"),
    }
    _emit(args, payload)
    return 0


def cmd_verify(args):
    from .verify import run_suite  # imported here: no other command needs it
    results = run_suite(args.suite)
    payload = {
        "suite": args.suite,
        "backend": BACKEND,
        "checks": [r.as_dict() for r in results],
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
    # shared flags may arrive before or after the subcommand; the
    # subparser namespace wins, absent means default
    if not hasattr(args, "config"):
        args.config = None
    if not hasattr(args, "json_indent"):
        args.json_indent = -1
    try:
        return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return 2
    except KNError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
