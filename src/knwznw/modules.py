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
then g-basis index) applied to a vacuum basis vector, the named tuple
`PBWMonomial` (creation, vacuum).  The action of any algebra element is
computed by exact normal ordering: generators commute rightward through
the creation string via the bracket of single generators
(`InducedModule._bracket_form`, the unit entry `_unit_loop_bracket` of
`affine` over digits) until they hit the vacuum.  On an admissible
module every image is a finite exact sum, so nothing is cut off by
degree; the depth only says which slices a caller lists.  The one
truncation is a verma module's width bound, and terms beyond it raise
TruncationOverflow with the lost string lengths.

Inside the engine, generator (n, p, i) is the digit ((n + B) N + p - 1)
dim g + i + 1, ordered as the tuples are (`mode_digit`; |n| > B =
MODE_BOUND raises DomainError), and a monomial is an int code: the
vacuum index in the low `_vbits` bits, then one `_dbits`-wide digit per
creation entry, the first lowest (a degree-0 weyl code is its vacuum
index).  `slice_basis`, `act`, `_act_affine_raw` and Sugawara's
`apply_L` and audit counterexample convert to and from `PBWMonomial`
(`encode`, `decode_form`).  The module is induced, M = U(g_-) (x) V, so
an operator acts on s (x) v through the creation string s, and V enters
only where a zero mode reaches the vacuum.  So the engine's one unit of
work is a block: a canonical integer form (D, {code << _vbits | v: int})
of the kernel whose column v is the image of the monomial s.v, an
End(V)-valued coefficient per output string.  The action memo
(`_act_memo`, keyed string << _dbits | digit) holds one block per
generator and string (`_act_block`).  An operator on a vector or a
block groups its terms by creation string (`_by_string`) and meets each
string's block once (`_join`), whatever dim V; Rat is built at the
boundary.  On the vacuum string a zero mode's irrep entries are put on
its factor of V in one pass, at the offsets of `finite_lie.place_local`
(`_vacuum_block`).  The slice memo holds creation strings
(`_slice_strings`); codes are made only where a caller lists monomials.
Each handle keeps its own memos (actions, brackets, slices, Sugawara
images and relation plans).
`degree_zero_action` gives an operator as a canonical integer form
(D, {(row, column): int}) of its nonzero entries, as `kz` does.

Coinvariants are taken under the block algebra B: g-valued functions
regular at infinity with poles only at the marked points.  At genus 0
every monomial of negative degree lies in B . M, so the representative of
a vector is its degree-zero part, and the coinvariant dimension is the
codimension of x (x) 1 acting on the degree-zero slice.  No rewriting is
needed; `degree_zero_coinvariant_dimension` gives the argument.
"""

from __future__ import annotations

from collections import defaultdict
from math import comb, gcd, prod
from typing import NamedTuple, Optional

from ._kernel import (RAT1, ZERO_FORM, Rat, add_scaled, canonical, form,
                      widen)
from .affine import _unit_loop_bracket
from .basis import Combination, Config
from .errors import DomainError, TruncationOverflow
from .finite_lie import GaugeAlgebra, finite_irrep, placement
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
        if width is not None and width < 0:
            raise DomainError("width bound must be >= 0")
        return super().__new__(cls, kind, weights, level, depth, width)


MODE_BOUND = 127  # the largest |n| of a generator (n, p, i) with a digit


def mode_digit(cfg, alg, gen):
    n, p, i = gen
    if not -MODE_BOUND <= n <= MODE_BOUND:
        raise DomainError("generator %r is past the codec's bound |n| <= "
                          "%d (MODE_BOUND)" % (gen, MODE_BOUND))
    return ((n + MODE_BOUND) * cfg.n_points + p - 1) * alg.dim + i + 1


class PBWMonomial(NamedTuple):
    """Sorted creation string applied to a vacuum basis vector."""

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
        self.weights = tuple(as_rat(w) for w in spec.weights)
        self._vbits = (self.vac_dim - 1).bit_length()  # the codec
        self._vmask = (1 << self._vbits) - 1
        self._dbits = ((2 * MODE_BOUND + 1) * n * alg.dim).bit_length()
        self._dmask = (1 << self._dbits) - 1
        self._dim = alg.dim
        self._zero = MODE_BOUND * n * alg.dim + 1  # the digit of (0, 1, 0)
        self._row = n * alg.dim  # digits per mode: n = (digit - _zero) // _row
        self._lowering = frozenset(  # degree-0 creators, verma only
            mode_digit(cfg, alg, k) for k in self.creation_keys(0))
        self._act_memo = {}  # blocks, see _act_block
        self._bracket_memo = {}
        self._slice_memo = {}
        self._sugawara_memo = defaultdict(dict)  # see sugawara._image
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

    def generator(self, digit):
        q, i = divmod(digit - 1, self._dim)
        n, p = divmod(q, self.cfg.n_points)
        return (n - MODE_BOUND, p + 1, i)

    def encode(self, mono):
        code = mono.vacuum
        for gen in reversed(mono.creation):
            code = self._prepend(mode_digit(self.cfg, self.alg, gen), code)
        return code

    def decode(self, code):
        gens, string = [], code >> self._vbits
        while string:
            gens.append(self.generator(string & self._dmask))
            string >>= self._dbits
        return PBWMonomial(tuple(gens), code & self._vmask)

    def decode_form(self, den, nums):  # {PBWMonomial: Rat}
        return {self.decode(c): Rat(x, den) for c, x in nums.items() if x}

    def code_degree(self, code):  # the sum of its digits' modes
        deg, string = 0, code >> self._vbits
        while string:
            deg += ((string & self._dmask) - self._zero) // self._row
            string >>= self._dbits
        return deg

    def _prepend(self, digit, code):  # digit at most code's first
        return ((code >> self._vbits << self._dbits | digit) << self._vbits
                | code & self._vmask)

    def slice_basis(self, d):
        """Exact basis of the degree-d slice (d <= 0), as monomials: each
        creation string of `_slice_strings(d)` applied to every vacuum
        vector in turn."""
        vb = self._vbits
        return [self.decode(s << vb | v) for s in self._slice_strings(d)
                for v in range(self.vac_dim)]

    def _slice_strings(self, d):
        """The creation strings of the degree-d slice, memoised: sorted
        strings of total degree d, at most `width` long.  Degree-zero
        keys (verma) come last in `keys`, so they extend a string only
        once d is reached."""
        hit = self._slice_memo.get(d) if d <= 0 else []
        if hit is not None:
            return hit
        keys = self.creation_keys(d if d < 0 else -1)
        digits = [mode_digit(self.cfg, self.alg, k) for k in keys]
        width, db, out = self.spec.width, self._dbits, []

        def rec(pos, remaining, length, string):
            if width is not None and length > width:
                return
            if remaining == 0:
                out.append(string)
            for idx in range(pos, len(keys)):
                n = keys[idx][0]
                if remaining - n > 0:
                    continue
                if n == 0 and remaining:
                    break
                rec(idx, remaining - n, length + 1,
                    string | digits[idx] << db * length)

        rec(0, d, 0, 0)
        self._slice_memo[d] = out
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
        """[a, b] of two single generators, digits a of (n, p, i) and b of
        (m, s, j), as a canonical integer form over digits; memoised in
        `_bracket_memo`.

        It is the unit entry `affine._unit_loop_bracket` with each loop
        key (k, h, t) read as the digit of (h, t, k) and the central
        part, under the key None, scaled by the level, all in ints."""
        key = a << self._dbits | b
        hit = self._bracket_memo.get(key)
        if hit is None:
            (n, p, i), (m, s, j) = self.generator(a), self.generator(b)
            den, nums = _unit_loop_bracket(self.cfg, self.alg, (i, n, p),
                                           (j, m, s))
            lv = self.level
            hit = self._bracket_memo[key] = canonical(den * lv.den, {
                None if k is None else mode_digit(
                    self.cfg, self.alg, (k[1], k[2], k[0])):
                x * (lv.num if k is None else lv.den)
                for k, x in nums.items()})
        return hit

    def _vacuum_block(self, gen):
        """The block of a generator digit on the vacuum string, for every
        vacuum vector at once.  A creator writes itself in front of each
        v, a positive mode acts by zero and a verma torus by its weight (e
        by zero).  A degree-0 generator of weyl or fock acts by its irrep's
        integer entries on its factor of V, placed as `place_local` places
        them (`placement`), each (row, column) written
        row << _vbits | column."""
        if gen < self._zero or gen in self._lowering:  # a creator
            return 1, self._identity(gen)
        p, i = divmod(gen - self._zero, self._dim)  # x_i at P_(p+1)
        if p >= self.cfg.n_points:  # a positive mode
            return ZERO_FORM
        if self.spec.kind != "verma":  # degree zero, on the irreps
            den, ents = self.factors[p].entries[i]
            if not ents:
                return ZERO_FORM
            bases, offsets = placement(self.factors, (p,), ents)
            vb = self._vbits
            return den, {(b + r) << vb | b + c: x for r, c, x in offsets
                         for b in bases}
        w = self.weights[p]  # a verma torus acts by the weight, e by 0
        if i in self.alg.cartan_indices and w.num != 0:
            return w.den, {0: w.num}
        return ZERO_FORM

    def _act_block(self, gen, string):
        """Exact action of a generator digit on s (x) v for one creation
        string s and every vacuum vector v at once, as a block: one
        canonical integer form (D, {code << _vbits | v: int}) whose
        column v is the image of the monomial code s.v; memoised in
        `_act_memo` under string << _dbits | gen.

        The generator commutes rightward through the string:
        gen.(c1.rest) = c1.(gen.rest) + [gen, c1].rest, summed over one
        widening denominator and reduced once.  Only the vacuum string
        reads v (`_vacuum_block`); every other block is built from
        blocks."""
        key = string << self._dbits | gen
        hit = self._act_memo.get(key)
        if hit is not None:
            return hit
        c1 = string & self._dmask
        if not c1:
            res = self._vacuum_block(gen)
        elif gen <= c1 and (gen < self._zero or gen in self._lowering):
            res = (1, self._identity(key))
        else:
            act, rest = self._act_block, string >> self._dbits
            den, acc = self._create(c1, act(gen, rest))
            bden, bnums = self._bracket_form(gen, c1)
            for gen2, x in bnums.items():
                # None: the central part, which leaves rest.v as it is
                d2, t2 = ((1, self._identity(rest)) if gen2 is None
                          else act(gen2, rest))
                if t2:
                    den = add_scaled(den, acc, d2, t2, x, bden)
            res = canonical(den, acc)
        self._act_memo[key] = res
        return res

    def _identity(self, string):
        """The numerators {code << _vbits | v: 1} of the identity on
        string (x) V, a block over the integer 1."""
        vb = self._vbits
        return {(string << vb | v) << vb | v: 1 for v in range(self.vac_dim)}

    def _create(self, c, block):
        """The creator digit c applied to every column of a block
        (D, {code << _vbits | v: int}), as a fresh integer form that may
        hold zero numerators.  A code whose string is empty or starts at
        or after c takes c in front by one integer write; c acts on the
        others through its block on their string (`_join`)."""
        bden, nums = block
        acc, others = {}, None
        if not nums:
            return bden, acc
        # a key is the code's string << vv | its vacuum << _vbits | v
        vb, dmask = self._vbits, self._dmask
        vv = 2 * vb
        low, shift, head = (1 << vv) - 1, self._dbits + vv, c << vv
        for key, x in nums.items():
            string = key >> vv
            first = string & dmask
            if not first or c <= first:  # distinct keys, distinct writes
                acc[string << shift | head | key & low] = x
                continue
            # the others by string, then by the vacuum of the code
            if others is None:
                others = {}
            vmask = self._vmask
            others.setdefault(string, {}).setdefault(
                key >> vb & vmask, []).append((key & vmask, x))
        den = bden
        if others:
            for string, cols in others.items():
                den = _join(den, acc, bden, self._act_block(c, string), cols,
                            vb, vb)
        return den, acc

    def _by_string(self, nums, vb, a=1):
        """The nonzero terms of an integer form {code << vb | v: int},
        scaled by a, by the creation string of their code: {string: {u:
        [(v, a x), ...]}}, u the code's vacuum index (the cols of `_join`);
        vb is 0 for a vector over codes and `_vbits` for a block."""
        out, mvb, umask = {}, self._vbits, self._vmask
        vmask = (1 << vb) - 1
        for key, x in nums.items():
            if x:
                code = key >> vb
                out.setdefault(code >> mvb, {}).setdefault(
                    code & umask, []).append((key & vmask, a * x))
        return out

    def _act_affine_form(self, a, vden, vnums):
        """Exact action of an affine element on the integer form
        (vden, {code: int}) of a vector, as a fresh integer form that may
        hold zero numerators; no width check.  Each loop term acts on
        the vector's terms of each creation string through that
        string's block (`_join`)."""
        den, acc, vb = 1, {}, self._vbits
        central = a.central * self.level
        if central.num != 0:
            den = add_scaled(den, acc, vden, vnums, central.num, central.den)
        for (i, n, p), c in a.loop.items():
            gen = mode_digit(self.cfg, self.alg, (n, p, i))
            for string, cols in self._by_string(vnums, 0, c.num).items():
                den = _join(den, acc, c.den * vden,
                            self._act_block(gen, string), cols, vb, 0)
        return den, acc

    def _act_affine_raw(self, a, terms):
        """Exact action of an affine element on a term dict; no width check."""
        return self.decode_form(*self._act_affine_form(
            a, *form({self.encode(m): c for m, c in terms.items()})))

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
        """x_(0,p,i) on `slice_basis(0)` as a canonical integer form
        (D, {(row, column): int}) of its nonzero entries: column c holds
        the image of the c-th basis monomial.

        x_(0,p,i) changes no degree, so only a verma module's width bound
        can push an image out of the slice.  Such images raise
        TruncationOverflow with the lengths of their strings past it.
        """
        vb, vmask, n = self._vbits, self._vmask, self.vac_dim
        vv = 2 * vb  # a key of a block is s << vv | u << _vbits | v
        # the monomial s.v is basis monomial index[s] + v
        index = {s: j * n for j, s in enumerate(self._slice_strings(0))}
        gen = mode_digit(self.cfg, self.alg, (0, p, i))
        den, acc = 1, {}
        lost = set()
        for string, col in index.items():
            d, image = self._act_block(gen, string)
            lost.update(len(self.decode(k >> vb).creation) for k in image
                        if k >> vv not in index)
            den = add_scaled(den, acc, d, {
                (index[k >> vv] + (k >> vb & vmask), col + (k & vmask)): x
                for k, x in image.items() if k >> vv in index}, 1, 1)
        if lost:
            raise TruncationOverflow(lost_widths=lost)
        return canonical(den, acc)

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


def _join(den, acc, e, block, cols, vb, shift):
    """acc/den += 1/e times a block (D, {code << vb | u: int}) applied to
    the terms cols = {u: [(v, x), ...]} of its input columns u, in place;
    returns the new denominator.  Each term x of column u meets column u
    of the block, and each code o there is written o << shift | v."""
    bden, nums = block
    e *= bden
    if den % e:
        den = widen(den, acc, e)
    f, get, vmask = den // e, acc.get, (1 << vb) - 1
    for k, y in nums.items():
        hits = cols.get(k & vmask)
        if hits:
            out, y = k >> vb << shift, f * y
            for v, x in hits:
                k = out | v
                acc[k] = get(k, 0) + x * y
    return den


def _columns(nums, vb, n):
    """The n columns {code: int} of block numerators
    {code << vb | v: int}, v < n."""
    cols = [{} for _ in range(n)]
    vmask = (1 << vb) - 1
    for k, x in nums.items():
        cols[k & vmask][k >> vb] = x
    return cols


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
    return module.slice_dimension(0) - len(_relation_span(module))


def _relation_span(module):
    """Echelon rows spanning the relations of x (x) 1 on the degree-0
    slice, as {leading column: row}, each row the {column: int} dict of
    its nonzero entries over `slice_basis(0)`, with content gcd 1.

    x (x) 1 = sum_p x (x) A_{0,p}, so the relation of x_i (x) 1 on a basis
    monomial is the sum over p of the action forms of x_(0,p,i), without
    their denominator.  The rows come in weight order: those of the
    Cartan elements first, then the lowering and then the raising ones,
    and each pivots on its last column.  A Cartan row is diagonal in the
    weight basis, so it pivots every monomial of nonzero total weight as
    a single entry, and the rows after it stay short (in basis order the
    pivots fill in: sl2 weights (14,14,14) took about eight times as
    long).  Elimination is fraction-free, and dividing out each row's
    content after every step keeps its integers small.  Stops as
    soon as the span fills the slice.  A relation that reaches a degree-0
    string longer than a verma module's width bound is left out: that
    cannot shrink a full span, but a span that stays short raises
    TruncationOverflow, because the dimension would then be inflated.
    """
    alg, n = module.alg, module.vac_dim
    vb, vmask = module._vbits, module._vmask
    # the monomial s.v is basis monomial index[s] + v
    index = {s: j * n for j, s in enumerate(module._slice_strings(0))}
    pivots = {}  # leading column -> reduced row
    lost_widths = set()
    for i in alg.cartan_indices + alg.minus_indices + alg.plus_indices:
        gens = [mode_digit(module.cfg, alg, (0, p, i))
                for p in range(1, module.cfg.n_points + 1)]
        for string in index:
            den, acc = 1, {}
            for gen in gens:
                den = add_scaled(den, acc, *module._act_block(gen, string),
                                 1, 1)
            # the relations on string (x) V, one column each;
            # add_scaled keeps every key it saw, zero or not
            for col in _columns(acc, vb, n):
                lost = {len(module.decode(m).creation) for m in col
                        if m >> vb not in index}
                if lost:
                    lost_widths |= lost
                    continue
                row = {index[m >> vb] + (m & vmask): x
                       for m, x in col.items() if x}
                while row:
                    g = gcd(*row.values())
                    row = {c: x // g for c, x in row.items()}
                    lead = max(row)
                    piv = pivots.get(lead)
                    if piv is None:
                        pivots[lead] = row
                        if len(pivots) == n * len(index):
                            return pivots
                        break
                    a, b = piv[lead], row[lead]
                    row = {c: a * row.get(c, 0) - b * piv.get(c, 0)
                           for c in row.keys() | piv.keys()}
                    row = {c: x for c, x in row.items() if x}
    if lost_widths:
        raise TruncationOverflow(lost_widths=lost_widths)
    return pivots
