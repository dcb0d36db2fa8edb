"""Induced highest-weight modules over the centrally extended loop algebra.

Three induction kinds share one engine:

  weyl:  induced from a tensor product of finite-dimensional irreducibles;
         the degree-zero subalgebra acts through the pointwise evaluation
         homomorphism, the positive part by zero, the center by the level.
         Graded slices are finite dimensional.
  verma: induced from the one-dimensional Borel module; the lowering part
         of the degree-zero subalgebra acts freely, so creation strings
         carry degree-zero entries and a width bound is required.
  fock:  the abelian special case of weyl (one-dimensional vacuum, any
         rational weights).

Vectors are exact linear combinations of PBW monomials: creation entries
(n, p, i) sorted ascending (most negative degree first, then point index,
then g-basis index) applied to a vacuum basis vector.  The action of any
algebra element is computed by exact normal ordering: generators commute
rightward through the creation string via the affine bracket until they
hit the vacuum.  Internal arithmetic never truncates; the public action
refuses to return terms outside the depth window and reports the lost
degrees instead.

Coinvariant reduction rewrites the leading creation entry of a monomial
through the basis expansion of the block-algebra generator with the
matching leading pole; each rewrite strictly raises the total degree, so
every monomial ends in the degree-zero slice.  The reduction is linear,
so it is memoised per monomial as a degree-zero row, shared by every
vector and relation that reaches it.  A leading pole deeper than the pole
bound has no rule; such a monomial stays in its row, and the reduction
reports that as a status, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._kernel import RAT0, RAT1, Rat
from .affine import AffineElement, _block_expansions, affine_bracket
from .basis import Config
from .errors import (CoinvariantReductionError, DomainError,
                     TruncationOverflow)
from .finite_lie import GaugeAlgebra, finite_irrep, tensor_strides
from .ratfield import as_rat


@dataclass(frozen=True)
class ModuleSpec:
    kind: str                 # weyl | verma | fock
    weights: tuple
    level: Rat
    depth: int
    width: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("weyl", "verma", "fock"):
            raise DomainError("unknown module kind %r" % self.kind)
        if self.depth < 0:
            raise DomainError("depth bound must be >= 0")
        if self.kind == "verma" and self.width is None:
            raise DomainError("verma induction requires a width bound")


class PBWMonomial:
    """Sorted creation string applied to a vacuum basis vector."""

    __slots__ = ("creation", "vacuum", "_hash")

    def __init__(self, creation, vacuum):
        self.creation = tuple(creation)
        self.vacuum = vacuum
        self._hash = hash((self.creation, vacuum))

    @property
    def degree(self):
        return sum(k[0] for k in self.creation)

    def __eq__(self, other):
        return (self.creation == other.creation
                and self.vacuum == other.vacuum)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.creation, self.vacuum) < (other.creation, other.vacuum)

    def __repr__(self):
        ops = " ".join("x%d(%d,%d)" % (i, n, p) for (n, p, i) in self.creation)
        return "[%s|w%d]" % (ops, self.vacuum)


class ModuleVector:
    """Finitely supported exact combination of PBW monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        src = dict(terms) if not isinstance(terms, dict) else terms
        self.terms = {k: v for k, v in src.items() if v.num != 0}

    @classmethod
    def monomial(cls, mono, c=RAT1):
        return cls({mono: c})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            w = out.get(k, RAT0) + v
            if w.num == 0:
                out.pop(k, None)
            else:
                out[k] = w
        return ModuleVector(out)

    def __sub__(self, other):
        return self + other.scale(Rat(-1))

    def scale(self, c):
        c = as_rat(c)
        if c.num == 0:
            return ModuleVector({})
        return ModuleVector({k: v * c for k, v in self.terms.items()})

    def degrees(self):
        return sorted({m.degree for m in self.terms})

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0].creation,
                                                          kv[0].vacuum))

    def __eq__(self, other):
        return isinstance(other, ModuleVector) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        body = " + ".join("%s*%r" % (c, m) for m, c in self.items())
        return "ModuleVector(%s)" % (body or "0")


# the one empty result every memo here (and in sugawara) shares; never mutated
_ZERO = {}


def _merge(acc, terms, scale=RAT1):
    for m, c in terms.items():
        w = acc.get(m, RAT0) + c * scale
        if w.num == 0:
            acc.pop(m, None)
        else:
            acc[m] = w


class InducedModule:
    """Handle for an induced module over one configuration and algebra."""

    def __init__(self, alg: GaugeAlgebra, cfg: Config, spec: ModuleSpec):
        self.alg = alg
        self.cfg = cfg
        self.spec = spec
        self.level = as_rat(spec.level)
        n = cfg.n_points
        if len(spec.weights) != n:
            raise DomainError("need one weight per marked point")
        if spec.kind == "fock":
            if alg.kind != "abelian1":
                raise DomainError("fock induction requires the abelian algebra")
            self.factors = None
            self.vac_dim = 1
            self.weights = tuple(as_rat(w) for w in spec.weights)
        elif spec.kind == "weyl":
            self.factors = tuple(finite_irrep(alg, w) for w in spec.weights)
            self.vac_dim = 1
            for f in self.factors:
                self.vac_dim *= f.dim
            self.strides = tensor_strides(self.factors)
            self.weights = tuple(spec.weights)
        else:  # verma
            self.factors = None
            self.vac_dim = 1
            self.weights = tuple(as_rat(w) for w in spec.weights)
        self._act_memo = {}
        self._bracket_memo = {}
        self._slice_memo = {}
        self._reductions = {}  # pole bound -> _Reduction
        self._sugawara_memo = {}  # see sugawara.apply_L_raw

    # -- PBW bookkeeping -------------------------------------------------

    def creation_keys(self, min_degree):
        """All creation keys (n, p, i) with n >= min_degree, sorted."""
        keys = []
        for n in range(min_degree, 0):
            for p in range(1, self.cfg.n_points + 1):
                for i in range(self.alg.dim):
                    keys.append((n, p, i))
        if self.spec.kind == "verma":
            for p in range(1, self.cfg.n_points + 1):
                for i in self.alg.minus_indices:
                    keys.append((0, p, i))
        return keys

    def _is_creation(self, key):
        n, _p, i = key
        if n <= -1:
            return True
        return (n == 0 and self.spec.kind == "verma"
                and i in self.alg.minus_indices)

    def slice_basis(self, d):
        """Exact basis of the degree-d slice (d <= 0), as monomials."""
        if d > 0:
            return []
        hit = self._slice_memo.get(d)
        if hit is not None:
            return hit
        keys = self.creation_keys(d if d < 0 else -1)
        strings = self._strings(keys, d, self.spec.width)
        out = [PBWMonomial(s, v) for s in strings for v in range(self.vac_dim)]
        self._slice_memo[d] = out
        return out

    def _strings(self, keys, target, width):
        """Sorted creation strings with total degree == target."""
        out = []

        def rec(pos, remaining, current):
            if width is not None and len(current) > width:
                return
            if remaining == 0:
                out.append(tuple(current))
                if self.spec.kind == "verma":
                    # extend with degree-zero entries up to the width bound
                    for idx in range(max(pos, self._first_zero(keys)),
                                     len(keys)):
                        k = keys[idx]
                        if k[0] != 0:
                            continue
                        if width is not None and len(current) + 1 > width:
                            break
                        current.append(k)
                        rec(idx, 0, current)
                        current.pop()
                return
            for idx in range(pos, len(keys)):
                k = keys[idx]
                n = k[0]
                if n == 0:
                    break
                if remaining - n > 0:
                    continue
                current.append(k)
                rec(idx, remaining - n, current)
                current.pop()

        rec(0, target, [])
        return out

    @staticmethod
    def _first_zero(keys):
        for idx, k in enumerate(keys):
            if k[0] == 0:
                return idx
        return len(keys)

    def slice_dimension(self, d):
        return len(self.slice_basis(d))

    def vacuum_vector(self, vac=0):
        return ModuleVector.monomial(PBWMonomial((), vac))

    # -- action ----------------------------------------------------------

    def _bracket_gens(self, a, b):
        """Affine bracket of two single generators as (loop, central): the
        loop terms as ((n, p, i), c) and the central term times the level.
        The generator tuples are built once and shared by the memo keys."""
        key = (a, b)
        hit = self._bracket_memo.get(key)
        if hit is None:
            ea = AffineElement.loop_term(a[2], a[0], a[1])
            eb = AffineElement.loop_term(b[2], b[0], b[1])
            br = affine_bracket(self.cfg, self.alg, ea, eb)
            hit = (tuple(((h, s, j), c) for (j, h, s), c in br.loop.items()),
                   br.central * self.level)
            self._bracket_memo[key] = hit
        return hit

    def _vacuum_action(self, gen, vac):
        n, p, i = gen
        if n >= 1:
            return {}
        if n <= -1:
            return {PBWMonomial((gen,), vac): RAT1}
        # degree zero
        if self.spec.kind == "fock":
            w = self.weights[p - 1]
            if w.num == 0:
                return {}
            return {PBWMonomial((), vac): w}
        if self.spec.kind == "weyl":
            mod = self.factors[p - 1]
            sp = self.strides[p - 1]
            jp = (vac // sp) % mod.dim
            base = vac - jp * sp
            out = {}
            m = mod.matrices[i]
            for r in range(mod.dim):
                c = m[r][jp]
                if c.num != 0:
                    out[PBWMonomial((), base + r * sp)] = c
            return out
        # verma
        if i in self.alg.plus_indices:
            return {}
        if i in self.alg.cartan_indices:
            w = self.alg.weight_action(self.weights[p - 1], i)
            if w.num == 0:
                return {}
            return {PBWMonomial((), vac): w}
        return {PBWMonomial((gen,), vac): RAT1}

    def _act_gen(self, gen, mono):
        """Exact action of one loop generator on a basis monomial."""
        key = (gen, mono)
        hit = self._act_memo.get(key)
        if hit is not None:
            return hit
        creation = mono.creation
        if not creation:
            res = self._vacuum_action(gen, mono.vacuum)
        elif self._is_creation(gen) and gen <= creation[0]:
            res = {PBWMonomial((gen,) + creation, mono.vacuum): RAT1}
        else:
            rest = PBWMonomial(creation[1:], mono.vacuum)
            c1 = creation[0]
            res = {}
            inner = self._act_gen(gen, rest)
            for m2, c in inner.items():
                _merge(res, self._act_gen(c1, m2), c)
            loop, central = self._bracket_gens(gen, c1)
            for gen2, cb in loop:
                _merge(res, self._act_gen(gen2, rest), cb)
            if central.num != 0:
                _merge(res, {rest: central})
        res = self._act_memo[key] = res or _ZERO
        return res

    def _act_affine_raw(self, a, terms):
        """Exact action of an affine element on a term dict; no windowing."""
        out = {}
        for mono, cm in terms.items():
            if a.central.num != 0:
                _merge(out, {mono: a.central * self.level * cm})
            for (i, n, p), c in a.loop.items():
                _merge(out, self._act_gen((n, p, i), mono), c * cm)
        return out

    def act(self, a, v):
        """Module action with loud truncation: terms below the depth window
        (or beyond the width bound) raise TruncationOverflow."""
        out = self._act_affine_raw(a, v.terms)
        lost_deg = set()
        lost_width = set()
        width = self.spec.width
        for mono in out:
            d = mono.degree
            if d < -self.spec.depth:
                lost_deg.add(d)
            if width is not None and len(mono.creation) > width:
                lost_width.add(len(mono.creation))
        if lost_deg or lost_width:
            raise TruncationOverflow(lost_deg, lost_width)
        return ModuleVector(out)

    # -- coinvariants ----------------------------------------------------

    def _rules(self, pole_bound):
        key = ("reduce-rules", pole_bound)
        hit = self.cfg.cache.get(key)
        if hit is None:
            rules = {}
            for p, j, _f, exp in _block_expansions(self.cfg, pole_bound):
                if j == 0:
                    continue
                lead = exp.coefficient(-j, p)
                if lead != RAT1:
                    raise DomainError(
                        "block generator expansion is not normalized")
                rest = [(n, pp, c) for (n, pp), c in exp.items()
                        if (n, pp) != (-j, p)]
                if any(n <= -j for n, _pp, _c in rest):
                    raise DomainError("block expansion has no unique leader")
                rules[(-j, p)] = tuple(rest)
            hit = rules
            self.cfg.cache[key] = hit
        return hit

    def _reduction(self, pole_bound):
        hit = self._reductions.get(pole_bound)
        if hit is None:
            hit = _Reduction(self, self._rules(pole_bound))
            self._reductions[pole_bound] = hit
        return hit

    def coinvariant_reduce(self, v, pole_bound):
        """Representative of v modulo the block-algebra action.

        Sums the memoised degree-0 rows of v's monomials (see
        `_Reduction`).  Returns (vector, status) with status
        'reduced-to-degree-0' or 'budget-exhausted'.  Exhaustion means a
        monomial whose leading entry has negative degree but no rule at
        this pole bound (its pole is deeper than pole_bound) survives in
        the sum; it is a status, not an error, and the vector then keeps
        such monomials beside its degree-0 part.
        """
        reduction = self._reduction(pole_bound)
        acc = {}
        for m, c in v.terms.items():
            _merge(acc, reduction.row(m), c)
        stuck = any(m.creation and m.creation[0][0] < 0 for m in acc)
        return (ModuleVector(acc),
                "budget-exhausted" if stuck else "reduced-to-degree-0")


class _Reduction:
    """Degree-0 rows of monomials modulo the block algebra, memoised.

    A row is a dict {monomial: Rat} over the degree-0 slice, plus any
    monomial left without a rule; the rows of monomials that reduce to
    zero are all the shared `_ZERO`.  Rows are never mutated once
    memoised.  `row(m)` is the representative of m: m itself when its
    leading entry has degree >= 0 or no rule, else that entry x_(n,p,i)
    is rewritten through the block generator
    x (x) (z - P_p)^n = x_(n,p,i) + sum c2 x_(n2,p2,i), all n2 > n, so
    row(m) = -sum c2 act_row(x_(n2,p2,i), rest).  `act_row(g, m)` is the
    row of g.m; it follows the normal ordering of `InducedModule._act_gen`
    without building the dict g.m itself.  Total degree rises strictly
    with each rewrite, so the recursion ends.
    """

    __slots__ = ("module", "rules", "rows", "act_rows")

    def __init__(self, module, rules):
        self.module = module
        # leading entry (n, p, i) -> the terms (x_(n2,p2,i), -c2) of its rule
        self.rules = {(n, p, i): tuple(((n2, p2, i), -c2)
                                       for n2, p2, c2 in rule)
                      for (n, p), rule in rules.items()
                      for i in range(module.alg.dim)}
        self.rows = {}
        self.act_rows = {}

    def row(self, mono):
        hit = self.rows.get(mono)
        if hit is not None:
            return hit
        creation = mono.creation
        rule = self.rules.get(creation[0]) if creation else None
        if rule is None:
            res = {mono: RAT1}
        else:
            rest = PBWMonomial(creation[1:], mono.vacuum)
            acc = {}
            for gen, c in rule:
                r = self.act_row(gen, rest)
                if r:
                    _merge(acc, r, c)
            res = acc or _ZERO
        self.rows[mono] = res
        return res

    def act_row(self, gen, mono):
        key = (gen, mono)
        hit = self.act_rows.get(key)
        if hit is not None:
            return hit
        module = self.module
        creation = mono.creation
        if not creation:
            acc = {}
            for m2, c in module._vacuum_action(gen, mono.vacuum).items():
                _merge(acc, self.row(m2), c)
            res = acc or _ZERO
        elif module._is_creation(gen) and gen <= creation[0]:
            res = self.row(PBWMonomial((gen,) + creation, mono.vacuum))
        else:
            rest = PBWMonomial(creation[1:], mono.vacuum)
            c1 = creation[0]
            acc = {}
            for m2, c in module._act_gen(gen, rest).items():
                r = self.act_row(c1, m2)
                if r:
                    _merge(acc, r, c)
            loop, central = module._bracket_gens(gen, c1)
            for gen2, cb in loop:
                r = self.act_row(gen2, rest)
                if r:
                    _merge(acc, r, cb)
            if central.num != 0:
                _merge(acc, self.row(rest), central)
            res = acc or _ZERO
        self.act_rows[key] = res
        return res


def induce_module(alg, cfg, spec):
    """Build the induced module handle for (algebra, configuration, spec)."""
    return InducedModule(alg, cfg, spec)


def degree_zero_coinvariant_dimension(module):
    """Truncated conformal-block diagnostic.

    Takes the degree-0 row of every relation u . w, with u a
    block-algebra generator of pole order j and w a basis monomial of
    degree d, over all pairs with j + |d| <= depth, and returns the
    codimension of their span inside the degree-zero slice (see
    `_relation_span`).  This reports the truncated coinvariant dimension
    only; no fusion-rule dimension is claimed.
    """
    return len(module.slice_basis(0)) - len(_relation_span(module))


def _relation_span(module):
    """Echelon rows spanning the relations of the coinvariant dimension.

    Returns {leading column: row}, rows as lists over `slice_basis(0)`.
    The row of u . w is sum c * act_row(x_(n,p,i), w) over the loop terms
    of u, so the image u . w is never built.  Stops as soon as the span
    fills the slice.

    The relations x (x) 1 . w with w of degree d < 0 are left out: their
    rows are identically zero.
      - 1 A_{n,p} = A_{n,p} and gamma(1, f) = 0, so x (x) 1 commutes
        through the creation string without changing a degree, and every
        term of (x (x) 1) . w has degree d < 0.
      - At genus 0 the negative loop part lies in the block algebra, so
        at pole bound = depth every monomial of negative degree (down to
        -depth) reduces to 0, and the row of (x (x) 1) . w is 0.

    The pole bound is the depth, so every leading entry a relation reaches
    has a rule; a relation that still fails to reduce raises
    CoinvariantReductionError, and one whose row holds a degree-0 string
    longer than a verma module's width bound raises TruncationOverflow,
    because leaving either out would inflate the dimension.
    """
    from .affine import block_algebra_basis

    depth = module.spec.depth
    gens = block_algebra_basis(module.cfg, module.alg, depth)
    reduction = module._reduction(depth)
    basis0 = module.slice_basis(0)
    dim0 = len(basis0)
    index = {m: i for i, m in enumerate(basis0)}
    pivots = {}  # leading column -> reduced row
    failed = 0
    lost_widths = set()

    def insert(row):
        for c in range(dim0):
            if row[c].num == 0:
                continue
            piv = pivots.get(c)
            if piv is None:
                inv = RAT1 / row[c]
                pivots[c] = [x * inv for x in row]
                return True
            f = row[c]
            row = [x - f * y for x, y in zip(row, piv)]
        return False

    for d in range(0, -depth - 1, -1):
        for u in gens:
            if u.pole_order + (-d) > depth:
                continue
            if u.pole_order == 0 and d < 0:
                continue  # an identically zero row, see above
            terms = [((n, p, i), c)
                     for (i, n, p), c in u.as_affine().loop.items()]
            for mono in module.slice_basis(d):
                acc = {}
                for gen, c in terms:
                    r = reduction.act_row(gen, mono)
                    if r:
                        _merge(acc, r, c)
                if not acc:
                    continue
                outside = [m2 for m2 in acc if m2 not in index]
                if outside:
                    if any(m2.degree < 0 for m2 in outside):
                        failed += 1
                    else:  # degree 0, but longer than the width bound
                        lost_widths.update(len(m2.creation) for m2 in outside)
                    continue
                row = [RAT0] * dim0
                for m2, c in acc.items():
                    row[index[m2]] = c
                if insert(row) and len(pivots) == dim0:
                    # a skipped relation cannot shrink a full span
                    return pivots
    if failed:
        raise CoinvariantReductionError(
            "%d relation(s) failed to reduce to degree 0 at pole bound %d; "
            "leaving them out would inflate the coinvariant dimension"
            % (failed, depth))
    if lost_widths:
        raise TruncationOverflow(lost_widths=lost_widths)
    return pivots
