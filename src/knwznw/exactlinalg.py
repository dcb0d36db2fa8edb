"""Exact linear algebra over the rationals.

Dense matrices as lists of rows of Rat: `rref` and `nullspace`,
textbook Gaussian elimination, serve the tests.  Operators inside the
program are held as their nonzero entries, up to the CLI's output.
"""

from ._kernel import RAT0, RAT1


def rref(rows):
    """Reduced row echelon form (in place on a copy); returns (rref, pivots)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c].num != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = RAT1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c].num != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def nullspace(rows, ncols):
    """Basis of the solution space of rows · x = 0 (x of length ncols)."""
    if not rows:
        return [[RAT1 if i == j else RAT0 for i in range(ncols)]
                for j in range(ncols)]
    red, pivots = rref(rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [RAT0] * ncols
        v[f] = RAT1
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis
