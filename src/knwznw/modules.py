"""Induced highest-weight modules over the centrally extended loop algebra.

Three induction kinds share one engine:

  weyl:  induced from a tensor product of finite-dimensional irreducibles;
         the degree-zero subalgebra acts through the pointwise evaluation
         homomorphism, the positive part by zero, the center by the level.
         Graded slices are finite dimensional.
  verma: induced from the one-dimensional Borel module; the lowering part
         of the degree-zero subalgebra acts freely, so creation strings
         carry degree-zero entries and a width bound is required; the
         other kinds refuse one.
  fock:  weyl over the abelian algebra, on the weyl engine: any rational
         weight w has the one-dimensional irrep `finite_irrep(abelian1, w)`.

Vectors are exact linear combinations of PBW monomials: creation entries
(n, p, i) sorted ascending (most negative degree first, then point index,
then g-basis index) applied to a vacuum basis vector.  A `PBWMonomial`
is the named tuple (creation, vacuum), so the memos it keys hash and
compare it in C.  The action of any algebra element is computed by exact
normal ordering: generators commute rightward through the creation
string via the bracket of single generators
(`InducedModule._bracket_form`) until they hit the vacuum.  On an
admissible module every image is a finite exact sum, so nothing is cut
off by degree; the depth only says which slices a caller lists.  The one
truncation is a verma module's width bound, and terms beyond it raise
TruncationOverflow with the lost string lengths.

The action is computed in Python ints.  The memo of the normal ordering
(`InducedModule._act_memo`) holds each result as a canonical integer
form (D, {monomial: int}) of the kernel (`knwznw._kernel`, which owns
the format and its helpers).  Rat is built only at the boundary: `act`
and `_act_gen` convert with `rats`, and `degree_zero_action`, a dense
matrix for output, builds one Rat per entry.  The coinvariant relations
are eliminated on sparse integer rows (`_relation_span`).

Coinvariants are taken under the block algebra B: g-valued functions
regular at infinity with poles only at the marked points.  At genus 0
every monomial of negative degree lies in B . M, so the representative of
a vector is its degree-zero part, and the coinvariant dimension is the
codimension of x (x) 1 acting on the degree-zero slice.  No rewriting is
needed; `degree_zero_coinvariant_dimension` gives the argument.
"""

from __future__ import annotations

from math import comb, gcd, prod
from typing import NamedTuple, Optional

from ._kernel import RAT0, RAT1, Rat, add_scaled, canonical, form, rats
from .algebras import _unit_gamma, _unit_product
from .basis import Combination, Config
from .errors import DomainError, TruncationOverflow
from .finite_lie import GaugeAlgebra, finite_irrep, tensor_strides
from .ratfield import as_rat


class _ModuleSpecFields(NamedTuple):
    kind: str                 # weyl | verma | fock
    weights: tuple
    level: Rat
    depth: int = 0            # slices `module` lists; the lowest slice
                              # `sugawara` may audit; no computation here
                              # reads it
    width: Optional[int] = None


class ModuleSpec(_ModuleSpecFields):
    __slots__ = ()

    def __new__(cls, kind, weights, level, depth=0, width=None):
        if kind not in ("weyl", "verma", "fock"):
            raise DomainError("unknown module kind %r" % kind)
        if depth < 0:
            raise DomainError("depth bound must be >= 0")
        if kind == "verma" and width is None:
            raise DomainError("verma induction requires a width bound")
        if kind != "verma" and width is not None:
            raise DomainError("a width bound applies to verma modules only")
        return super().__new__(cls, kind, weights, level, depth, width)


class PBWMonomial(NamedTuple):
    """Sorted creation string applied to a vacuum basis vector.  A tuple
    (creation, vacuum), so it hashes, compares and sorts in C."""

    creation: tuple
    vacuum: int

    @property
    def degree(self):
        return sum(k[0] for k in self.creation)

    def __repr__(self):
        ops = " ".join("x%d(%d,%d)" % (i, n, p) for (n, p, i) in self.creation)
        return "[%s|w%d]" % (ops, self.vacuum)


class ModuleVector(Combination):
    """Finitely supported exact combination of PBW monomials."""

    __slots__ = ()

    @classmethod
    def monomial(cls, mono, c=RAT1):
        return cls({mono: c})

    def degrees(self):
        return sorted({m.degree for m in self.terms})

    def __repr__(self):
        body = " + ".join("%s*%r" % (c, m) for m, c in self.items())
        return "ModuleVector(%s)" % (body or "0")


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
        if spec.kind == "fock" and alg.kind != "abelian1":
            raise DomainError("fock induction requires the abelian algebra")
        if spec.kind == "verma":
            self.factors = None
            self.vac_dim = 1
        else:  # weyl, and fock: weyl over abelian1's one-dimensional irreps
            self.factors = tuple(finite_irrep(alg, w) for w in spec.weights)
            self.vac_dim = prod(f.dim for f in self.factors)
            self.strides = tensor_strides(self.factors)
        self.weights = tuple(as_rat(w) for w in spec.weights)
        self._act_memo = {}
        self._bracket_memo = {}
        self._slice_memo = {}
        self._sugawara_memo = {}  # see sugawara._image
        self._relation_plans = {}  # see sugawara._relation_plan

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
        """Sorted creation strings of total degree target, at most `width`
        entries long.  Degree-zero keys (verma) come last in `keys`, so
        they extend a string only once its degree is reached."""
        out = []

        def rec(pos, remaining, current):
            if width is not None and len(current) > width:
                return
            if remaining == 0:
                out.append(tuple(current))
            for idx in range(pos, len(keys)):
                k = keys[idx]
                n = k[0]
                if remaining - n > 0:
                    continue
                if n == 0 and remaining:
                    break
                current.append(k)
                rec(idx, remaining - n, current)
                current.pop()

        rec(0, target, [])
        return out

    def slice_dimension(self, d):
        """Dimension of the degree-d slice, counted without building it.

        A string is a multiset of negative-degree creation keys of total
        degree d (a partition recursion by number of entries l), followed
        by any multiset of the z degree-zero keys (verma only) that keeps
        it within `width`: C(width - l + z, z) tails.  No string has more
        than -d negative entries, so the count costs nothing in `width`."""
        if d > 0:
            return 0
        target = -d
        width = self.spec.width
        lens = target if width is None else min(target, width)
        if lens < 0:
            return 0
        # ways[t][l]: multisets of negative keys of total degree -t with
        # l entries
        ways = [[0] * (lens + 1) for _ in range(target + 1)]
        ways[0][0] = 1
        zeros = 0
        for n, _p, _i in self.creation_keys(min(d, -1)):
            if n == 0:
                zeros += 1
                continue
            for t in range(-n, target + 1):
                below, row = ways[t + n], ways[t]
                for l in range(1, lens + 1):
                    row[l] += below[l - 1]
        if width is None:
            strings = sum(ways[target])
        else:
            strings = sum(c * comb(width - l + zeros, zeros)
                          for l, c in enumerate(ways[target]))
        return strings * self.vac_dim

    def vacuum_vector(self, vac=0):
        return ModuleVector.monomial(PBWMonomial((), vac))

    # -- action ----------------------------------------------------------

    def _bracket_form(self, a, b):
        """[a, b] of two single generators a = (n, p, i), b = (m, s, j),
        as a canonical integer form over generators; memoised in
        `_bracket_memo`.

        The loop part is sum_k f_ij^k x_k (x) A_{n,p} A_{m,s}, with the
        unit product from the cache of the configuration, and the central
        part -(x_i|x_j) gamma(A_{n,p}, A_{m,s}) times the level, under
        the key None."""
        key = (a, b)
        hit = self._bracket_memo.get(key)
        if hit is None:
            (n, p, i), (m, s, j) = a, b
            terms = {}
            tbl = self.alg.bracket.get((i, j))
            if tbl:
                den, prod = _unit_product(self.cfg, (0, 0), (n, p), (m, s))
                for (h, t), x in prod.items():
                    for k, c in tbl.items():
                        terms[(h, t, k)] = c * Rat(x, den)
            central = self.alg.form[i][j] * self.level
            if central.num != 0:
                central = central * _unit_gamma(self.cfg, (n, p), (m, s))
            if central.num != 0:
                terms[None] = -central
            hit = self._bracket_memo[key] = form(terms)
        return hit

    def _vacuum_action(self, gen, vac):
        n, p, i = gen
        if n >= 1:
            return {}
        if n <= -1:
            return {PBWMonomial((gen,), vac): RAT1}
        # degree zero
        if self.spec.kind != "verma":
            mod = self.factors[p - 1]
            sp = self.strides[p - 1]
            jp = (vac // sp) % mod.dim
            base = vac - jp * sp
            return {PBWMonomial((), base + r * sp): c
                    for r, s, c in mod.entries[i] if s == jp}
        # verma
        if i in self.alg.plus_indices:
            return {}
        if i in self.alg.cartan_indices:
            w = self.weights[p - 1]  # the torus acts by the weight
            if w.num == 0:
                return {}
            return {PBWMonomial((), vac): w}
        return {PBWMonomial((gen,), vac): RAT1}

    def _act_form(self, gen, mono):
        """Exact action of one loop generator on a basis monomial, as an
        integer form (D, {monomial: int}); memoised in `_act_memo`.

        The generator commutes rightward through the creation string:
        gen.(c1.rest) = c1.(gen.rest) + [gen, c1].rest, summed over one
        widening denominator and reduced once."""
        key = (gen, mono)
        hit = self._act_memo.get(key)
        if hit is not None:
            return hit
        creation = mono.creation
        if not creation:
            res = form(self._vacuum_action(gen, mono.vacuum))
        elif self._is_creation(gen) and gen <= creation[0]:
            res = (1, {PBWMonomial((gen,) + creation, mono.vacuum): 1})
        else:
            act = self._act_form
            rest = PBWMonomial(creation[1:], mono.vacuum)
            c1 = creation[0]
            den, acc = 1, {}
            di, inner = act(gen, rest)
            for m2, x in inner.items():
                d2, t2 = act(c1, m2)
                if t2:
                    den = add_scaled(den, acc, d2, t2, x, di)
            bden, bnums = self._bracket_form(gen, c1)
            for gen2, x in bnums.items():
                # None: the central part, which leaves rest as it is
                d2, t2 = (1, {rest: 1}) if gen2 is None else act(gen2, rest)
                if t2:
                    den = add_scaled(den, acc, d2, t2, x, bden)
            res = canonical(den, acc)
        self._act_memo[key] = res
        return res

    def _act_gen(self, gen, mono):
        """Exact action of one loop generator on a basis monomial, as a
        fresh {monomial: Rat} dict built from the memoised integer form
        (`_act_form`); not memoised itself."""
        return rats(*self._act_form(gen, mono))

    def _act_affine_raw(self, a, terms):
        """Exact action of an affine element on a term dict; no width check."""
        den, acc = 1, {}
        loop = a.loop.items()
        central = a.central * self.level
        for mono, cm in terms.items():
            if central.num != 0:
                s = central * cm
                den = add_scaled(den, acc, 1, {mono: 1}, s.num, s.den)
            for (i, n, p), c in loop:
                d2, t2 = self._act_form((n, p, i), mono)
                if t2:
                    s = c * cm
                    den = add_scaled(den, acc, d2, t2, s.num, s.den)
        return rats(den, acc)

    def act(self, a, v):
        """Exact module action of an affine element on a vector.  Terms
        with creation strings beyond a verma module's width bound raise
        TruncationOverflow with their lengths."""
        out = self._act_affine_raw(a, v.terms)
        width = self.spec.width
        if width is not None:
            lost = {len(m.creation) for m in out if len(m.creation) > width}
            if lost:
                raise TruncationOverflow(lost)
        return ModuleVector(out)

    def degree_zero_action(self, p, i):
        """Dense matrix of x_(0,p,i) on `slice_basis(0)`, for output:
        column c holds the image of the c-th basis monomial.

        x_(0,p,i) changes no degree, so only a verma module's width bound
        can push an image out of the slice.  Such images raise
        TruncationOverflow with the lengths of their strings past it.
        """
        basis0 = self.slice_basis(0)
        index = {m: r for r, m in enumerate(basis0)}
        mat = [[RAT0] * len(basis0) for _ in basis0]
        lost = set()
        for col, mono in enumerate(basis0):
            den, image = self._act_form((0, p, i), mono)
            for m2, x in image.items():
                if m2 in index:
                    mat[index[m2]][col] = Rat(x, den)
                else:
                    lost.add(len(m2.creation))
        if lost:
            raise TruncationOverflow(lost_widths=lost)
        return mat

    # -- coinvariants ----------------------------------------------------

    def coinvariant_reduce(self, v):
        """Representative of v modulo the block-algebra action: the
        degree-0 part of v.

        At genus 0 every monomial of negative degree lies in B . M.  Its
        creation string is sorted, so it starts with an entry x_(n,p,i)
        with n <= -1, and the monomial is x_(n,p,i) applied to the rest of
        the string.  x_(n,p,i) is x (x) A_{n,p}, and A_{n,p} with n <= -1
        vanishes at infinity and has poles only at the marked points, so
        it lies in the block algebra.  The degree-0 part is unique up to
        the relations of x (x) 1 on degree 0 (see
        `degree_zero_coinvariant_dimension`).
        """
        return ModuleVector({m: c for m, c in v.terms.items()
                             if m.degree == 0})


def induce_module(alg, cfg, spec):
    """Build the induced module handle for (algebra, configuration, spec)."""
    return InducedModule(alg, cfg, spec)


def degree_zero_coinvariant_dimension(module):
    """Dimension of the coinvariants M / B . M of the block algebra B.

    At genus 0 this is the codimension of the relations of x (x) 1 in
    the degree-0 slice (see `_relation_span`), exactly: nothing is
    truncated, and the depth plays no role.  Three facts make it so.
      - Negative-degree monomials lie in B . M (see
        `InducedModule.coinvariant_reduce`).
      - Any other block element has its loop part in g (x) A_-, where
        A_- is spanned by the A_{n,p} with n <= -1: by partial fractions
        (z - P_p)^-j is such a combination.  A_- . A_{<=0} lies in A_-
        and gamma(A_-, A_{<=0}) = 0, so commuting the element through a
        creation string leaves brackets in g (x) A_- with no central term,
        and on the vacuum it creates.  It maps M into negative degrees.
      - x (x) 1 changes no degree (1 A_{n,p} = A_{n,p}, gamma(1, f) = 0).
    So B . M is the negative-degree part plus (x (x) 1) . M_0.  No
    fusion-rule dimension is claimed.
    """
    return len(module.slice_basis(0)) - len(_relation_span(module))


def _relation_span(module):
    """Echelon rows spanning the relations of x (x) 1 on the degree-0
    slice, as {leading column: row}, each row the {column: int} dict of
    its nonzero entries over `slice_basis(0)`, with content gcd 1.

    x (x) 1 = sum_p x (x) A_{0,p}, so the relation of x_i (x) 1 on a basis
    monomial is the sum over p of `_act_form((0, p, i), mono)`, without
    its denominator.  Elimination is fraction-free, and dividing out each
    row's content after every step keeps its integers small.  Stops as
    soon as the span fills the slice.  A relation that reaches a degree-0
    string longer than a verma module's width bound is left out: that
    cannot shrink a full span, but a span that stays short raises
    TruncationOverflow, because the dimension would then be inflated.
    """
    basis0 = module.slice_basis(0)
    index = {m: c for c, m in enumerate(basis0)}
    pivots = {}  # leading column -> reduced row
    lost_widths = set()
    for i in range(module.alg.dim):
        for mono in basis0:
            den, acc = 1, {}
            for p in range(1, module.cfg.n_points + 1):
                den = add_scaled(den, acc, *module._act_form((0, p, i), mono),
                                 1, 1)
            # add_scaled keeps every key it saw, zero or not
            lost = {len(m.creation) for m in acc if m not in index}
            if lost:
                lost_widths |= lost
                continue
            row = {index[m]: x for m, x in acc.items() if x}
            while row:
                g = gcd(*row.values())
                row = {c: x // g for c, x in row.items()}
                lead = min(row)
                piv = pivots.get(lead)
                if piv is None:
                    pivots[lead] = row
                    if len(pivots) == len(basis0):
                        return pivots
                    break
                a, b = piv[lead], row[lead]
                row = {c: a * row.get(c, 0) - b * piv.get(c, 0)
                       for c in row.keys() | piv.keys()}
                row = {c: x for c, x in row.items() if x}
    if lost_widths:
        raise TruncationOverflow(lost_widths=lost_widths)
    return pivots
