"""Out-of-program tracing for the per-layer metrics.

The tracer rebinds the public functions of each ``knwznw`` layer with
timing wrappers, from outside the package: nothing under ``src/`` knows
it is being traced.  A wrapped function is replaced in every
``knwznw.*`` namespace that holds it (``from .basis import ...`` makes a
second binding), in module-level dicts such as ``verify.SUITES`` and in
the benchmark's own modules; methods are replaced on their class.  The
kernel's own modules (``knwznw._kernel._pure`` / ``_fast``) are left
alone, so kernel counts are calls entering the kernel from above.

Two kinds of wrapper share one call stack:

* a *span* records (id, parent span, job id, name, start, end) and is
  kept in memory until the run ends;
* a *light* wrapper, for functions that run ~10^5 times per job (kernel
  polynomial helpers, ratfield analysis, pairings, basis look-ups), keeps
  only a count and a time, aggregated per enclosing span.

Self time of a call is its duration minus the time of the wrapped calls
made directly inside it; a layer's ``self_s`` sums that over its calls.
``Rat`` arithmetic is never wrapped, so it lands in the self time of the
layer that issued it.

A target whose module, class or function no longer exists is skipped and
listed in ``missing``; its metrics read 0.
"""

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN_CAP = 250000

KERNEL_FNS = ("poly_trim", "poly_add", "poly_neg", "poly_sub", "poly_scale",
              "poly_mul", "poly_divmod", "poly_gcd", "poly_deriv", "poly_eval")
SUITE_NAMES = ("basis", "algebra", "affine", "module", "sugawara", "kz")
UNIT_KINDS = ("prod", "vfbr", "lied", "gammau", "chiu")


def _poly_mul_ops(tr, a):
    tr.count["kernel.poly_mul.coeff_ops"] += len(a[0]) * len(a[1])


def _poly_divmod_ops(tr, a):
    la, lb = len(a[0]), len(a[1])
    if la >= lb:
        tr.count["kernel.poly_divmod.coeff_ops"] += (la - lb + 1) * lb


def _record_pre(tr, a):
    # KNIndex is a NamedTuple, so a plain tuple finds the same cache key
    try:
        return ("basis", tuple(a[1])) in a[0].cache
    except (AttributeError, TypeError, IndexError):
        return None


def _record_post(tr, a, res, pre, dur):
    if pre is False:
        tr.count["basis.record.misses"] += 1
        tr.count["basis.construct_s"] += dur


def _pairing_pre(tr, a):
    if tr.span_name() == "basis.expand":
        tr.count["basis.expand.pairings"] += 1


def _expand_post(tr, a, res, pre, dur):
    tr.count["basis.expand.nonzero"] += len(getattr(res, "terms", ()))


def _reduce_post(tr, a, res, pre, dur):
    if isinstance(res, tuple) and res[1:2] != ("reduced-to-degree-0",):
        tr.count["modules.reduce.budget_exhausted"] += 1


def _suite_post(tr, a, res, pre, dur):
    tr.count["verify.checks"] += len(res)


def _register(kind):
    def post(tr, a, res, pre, dur):
        tr.created[kind].append(a[0])
    return post


def _target(layer, name, where, light=False, pre=None, post=None,
            count=None):
    """where: "module:function" or "module:Class.method"."""
    return {"layer": layer, "name": name, "where": where, "light": light,
            "pre": pre, "post": post, "count": count}


def default_targets():
    t = []
    for fn in KERNEL_FNS:
        pre = {"poly_mul": _poly_mul_ops,
               "poly_divmod": _poly_divmod_ops}.get(fn)
        t.append(_target("kernel", "kernel." + fn, "knwznw._kernel:" + fn,
                         light=True, pre=pre))
    rf = "knwznw.ratfield:"
    t += [
        _target("ratfield", "ratfield.order_at", rf + "order_at", True),
        _target("ratfield", "ratfield.residue_at", rf + "residue_at", True),
        _target("ratfield", "ratfield.local_expansion",
                rf + "local_expansion", True),
        _target("ratfield", "ratfield.mult_at", rf + "Poly.mult_at", True),
        _target("ratfield", "ratfield.rf_new",
                rf + "RationalFunction.__init__", True),
        _target("exactlinalg", "exactlinalg.nullspace",
                "knwznw.exactlinalg:nullspace"),
    ]
    b = "knwznw.basis:"
    t += [
        _target("basis", "basis.config_new", b + "Config.__init__", True,
                post=_register("config")),
        _target("basis", "basis.record", b + "kn_basis_record", True,
                pre=_record_pre, post=_record_post),
        _target("basis", "basis.pairing", b + "kn_pairing", True,
                pre=_pairing_pre),
        _target("basis", "basis.expand", b + "expand_in_basis",
                post=_expand_post),
        _target("basis", "basis.section_from_graded",
                b + "section_from_graded"),
    ]
    a = "knwznw.algebras:"
    for fn in ("multiply", "vf_bracket", "lie_derivative", "cocycle_gamma",
               "cocycle_chi"):
        t.append(_target("algebras", "algebras." + fn, a + fn,
                         count="algebras.calls"))
    for fn in ("grading_report", "triangular_decompose",
               "coboundary_compare"):
        t.append(_target("algebras", "algebras." + fn, a + fn))
    t += [
        _target("affine", "affine.bracket", "knwznw.affine:affine_bracket"),
        _target("affine", "affine.block_algebra_basis",
                "knwznw.affine:block_algebra_basis"),
    ]
    m = "knwznw.modules:"
    t += [
        _target("modules", "modules.module_new",
                m + "InducedModule.__init__", True,
                post=_register("module")),
        _target("modules", "modules.reduce",
                m + "InducedModule.coinvariant_reduce", True,
                post=_reduce_post),
        _target("modules", "modules.act", m + "InducedModule.act"),
        _target("modules", "modules.coinvariant_dimension",
                m + "degree_zero_coinvariant_dimension"),
    ]
    s = "knwznw.sugawara:"
    t += [
        _target("sugawara", "sugawara.apply_L", s + "apply_L_raw"),
        _target("sugawara", "sugawara.apply_L_checked", s + "apply_L"),
        _target("sugawara", "sugawara.T_of_vectorfield",
                s + "T_of_vectorfield"),
        _target("sugawara", "sugawara.coefficients",
                s + "sugawara_coefficients"),
        _target("sugawara", "sugawara.audit",
                s + "sugawara_commutator_audit"),
    ]
    k = "knwznw.kz:"
    t += [_target("kz", "kz.matrices", k + "kz_matrices")]
    for fn in ("flatness_check", "tangent_fields",
               "classical_oracle_matrices", "predicted_scalar_shift"):
        t.append(_target("kz", "kz." + fn, k + fn))
    v = "knwznw.verify:"
    t.append(_target("verify", "verify.run_suite", v + "run_suite"))
    for name in SUITE_NAMES:
        t.append(_target("verify", "verify." + name, v + "suite_" + name,
                         post=_suite_post))
    t.append(_target("cli", "cli.main", "knwznw.cli:main"))
    return t


def _resolve(where):
    """(owner, attr, original) or None when any part no longer exists."""
    modname, _, path = where.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    fn = getattr(owner, parts[-1], None)
    if fn is None or not callable(fn):
        return None
    return owner, parts[-1], fn


class Tracer:
    def __init__(self, extra_namespaces=(), targets=None):
        self.targets = default_targets() if targets is None else targets
        self.extra = tuple(extra_namespaces)
        self.count = Counter()
        self.self_s = defaultdict(float)
        self.created = {"config": [], "module": []}
        self.spans = []
        self.dropped = 0
        self.job = None
        self.missing = []
        self._undo = []
        # one frame [time spent in wrapped callees] per active wrapped call;
        # the bottom frame stands for the harness itself
        self.stack = [[0.0]]
        self._span_stack = [None]
        self._light = {}  # light aggregates of the innermost open span
        self._next_id = 0

    # ------------------------------------------------------------ state --

    def span_name(self):
        rec = self._span_stack[-1]
        return rec[3] if rec is not None else None

    def begin_job(self, job_id):
        self.job = job_id
        self.created = {"config": [], "module": []}

    # --------------------------------------------------------- wrapping --

    def _wrap(self, t, fn):
        tr = self
        layer, name = t["layer"], t["name"]
        pre, post, extra_count = t["pre"], t["post"], t["count"]
        calls = name + ".calls"
        count = self.count
        self_s = self.self_s
        stack = self.stack
        clock = perf_counter

        if t["light"]:
            def light(*a, **kw):
                p = pre(tr, a) if pre is not None else None
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    res = fn(*a, **kw)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    stack[-1][0] += dur
                    self_s[layer] += dur - frame[0]
                    count[calls] += 1
                    agg = tr._light
                    e = agg.get(name)
                    if e is None:
                        agg[name] = [1, dur]
                    else:
                        e[0] += 1
                        e[1] += dur
                if post is not None:
                    post(tr, a, res, p, dur)
                return res
            return light

        spans = self.spans
        span_stack = self._span_stack

        def span(*a, **kw):
            p = pre(tr, a) if pre is not None else None
            parent = span_stack[-1]
            tr._next_id += 1
            rec = [tr._next_id, parent[0] if parent else 0, tr.job, name,
                   0.0, 0.0, {}]
            frame = [0.0]
            stack.append(frame)
            span_stack.append(rec)
            saved = tr._light
            tr._light = rec[6]
            t0 = clock()
            rec[4] = t0
            try:
                res = fn(*a, **kw)
            finally:
                t1 = clock()
                dur = t1 - t0
                rec[5] = t1
                stack.pop()
                span_stack.pop()
                tr._light = saved
                stack[-1][0] += dur
                self_s[layer] += dur - frame[0]
                count[calls] += 1
                count[name + ".seconds"] += dur
                if extra_count:
                    count[extra_count] += 1
                if len(spans) < SPAN_CAP:
                    spans.append(rec)
                else:
                    tr.dropped += 1
            if post is not None:
                post(tr, a, res, p, dur)
            return res
        return span

    def install(self):
        for t in self.targets:
            found = _resolve(t["where"])
            if found is None:
                self.missing.append(t["where"])
                continue
            owner, attr, fn = found
            w = self._wrap(t, fn)
            if isinstance(owner, type):
                self._undo.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, w)
                continue
            self._rebind(fn, w)
        return self

    def _namespaces(self):
        for name, mod in list(sys.modules.items()):
            if mod is None:
                continue
            if name == "knwznw" or name.startswith("knwznw."):
                if name.startswith("knwznw._kernel._"):
                    continue
                yield mod
        for mod in self.extra:
            yield mod

    def _rebind(self, fn, w):
        for mod in self._namespaces():
            ns = vars(mod)
            for attr, val in list(ns.items()):
                if val is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, w)
                elif type(val) is dict:
                    for key, v in list(val.items()):
                        if v is fn:
                            self._undo.append((val, key, fn))
                            val[key] = w

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = orig
            elif orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._undo = []

    # --------------------------------------------------------- counters --

    def read_caches(self):
        """Counters read from the objects the finished job created."""
        kinds = {}
        total = 0
        nonzero3 = 0
        for cfg in self.created["config"]:
            total += len(cfg.cache)
            for key, val in cfg.cache.items():
                kind = key[0] if isinstance(key, tuple) and key else "?"
                kinds[kind] = kinds.get(kind, 0) + 1
                if kind == "sugw3" and getattr(val, "num", 0) != 0:
                    nonzero3 += 1
        memo = {"act": 0, "bracket": 0, "slice": 0}
        for mod in self.created["module"]:
            for m in memo:
                memo[m] += len(getattr(mod, "_%s_memo" % m, ()))
        c = self.count
        c["cache.entries.total"] += total
        c["cache.entries.max"] = max(c["cache.entries.max"], total)
        c["cache.basis_entries"] += kinds.get("basis", 0)
        c["algebras.unit_entries"] += sum(kinds.get(k, 0) for k in UNIT_KINDS)
        c["sugawara.triple.entries"] += kinds.get("sugw3", 0)
        c["sugawara.triple.nonzero"] += nonzero3
        for m, n in memo.items():
            c["modules.%s_memo.entries" % m] += n
        for kind, n in kinds.items():
            c["cache.kind." + str(kind)] += n
        self.created = {"config": [], "module": []}
        return kinds

    def metrics(self):
        """The per-layer metrics, named as in BENCHMARK.json."""
        c = self.count

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        out = {
            "kernel.poly_calls": sum(c["kernel.%s.calls" % f]
                                     for f in KERNEL_FNS),
            "kernel.poly_gcd.calls": c["kernel.poly_gcd.calls"],
            "kernel.poly_mul.coeff_ops": c["kernel.poly_mul.coeff_ops"],
            "kernel.poly_divmod.coeff_ops": c["kernel.poly_divmod.coeff_ops"],
            "ratfield.order_at.calls": c["ratfield.order_at.calls"],
            "ratfield.residue_at.calls": c["ratfield.residue_at.calls"],
            "ratfield.mult_at.calls": c["ratfield.mult_at.calls"],
            "ratfield.rf_new.calls": c["ratfield.rf_new.calls"],
            "exactlinalg.nullspace.calls": c["exactlinalg.nullspace.calls"],
            "basis.record.calls": c["basis.record.calls"],
            "basis.record.misses": c["basis.record.misses"],
            "basis.record.hit_ratio": 1.0 - ratio("basis.record.misses",
                                                  "basis.record.calls")
            if c["basis.record.calls"] else 0.0,
            "basis.construct_s": c["basis.construct_s"],
            "basis.pairing.calls": c["basis.pairing.calls"],
            "basis.expand.calls": c["basis.expand.calls"],
            "basis.expand.useful_ratio": ratio("basis.expand.nonzero",
                                               "basis.expand.pairings"),
            "algebras.calls": c["algebras.calls"],
            "algebras.unit_entries": c["algebras.unit_entries"],
            "affine.bracket.calls": c["affine.bracket.calls"],
            "modules.reduce.calls": c["modules.reduce.calls"],
            "modules.reduce.budget_exhausted":
                c["modules.reduce.budget_exhausted"],
            "modules.act_memo.entries": c["modules.act_memo.entries"],
            "modules.bracket_memo.entries": c["modules.bracket_memo.entries"],
            "modules.slice_memo.entries": c["modules.slice_memo.entries"],
            "sugawara.apply_L.calls": c["sugawara.apply_L.calls"],
            "sugawara.triple.entries": c["sugawara.triple.entries"],
            "sugawara.triple.nonzero_ratio": ratio("sugawara.triple.nonzero",
                                                   "sugawara.triple.entries"),
            "kz.matrices.calls": c["kz.matrices.calls"],
            "verify.checks": c["verify.checks"],
            "cache.entries": c["cache.entries.max"],
        }
        for name in SUITE_NAMES:
            out["verify.%s_s" % name] = c["verify.%s.seconds" % name]
        for layer in ("kernel", "ratfield", "exactlinalg", "basis",
                      "algebras", "affine", "modules", "sugawara", "kz",
                      "verify", "cli"):
            out[layer + ".self_s"] = self.self_s[layer]
        return out

    def counts(self):
        """Every integer counter (the part that must repeat exactly)."""
        return {k: v for k, v in sorted(self.count.items())
                if isinstance(v, int)}
