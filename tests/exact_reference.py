"""Fraction Gauss-Jordan references for the exact layer.

The library eliminates fraction-free over ints in one kernel
(``exactla._pivoting``), with each transform riding along as the columns
of (m | 1), and inverts by one fraction-free triangular solve.  The
Fraction Gauss-Jordan eliminations and lattice helpers it replaced live
here, so the tests can check the kernel, inv, the rank normal form's P,
the Q^{-1} the oracle reads off it and the beta_tilde quotient against
code that never calls it.  The Maslov signature of three Lagrangians,
from their row bases, is the oracle of rao_cocycle's block formula.  The
block rules for theta-group membership and the coset label are the
references of the library's one Q0 (symplectic._q0), which reads them
off the rows and the columns.  The whole-box direct theta sum, one complex
exp per point of [-R, R]^m, is the reference of the library's direct sum,
which drops the terms too small to reach it.  The int64 count of the
Gauss sum G(d, c), class by class over an HNF box of at most MAX_CLASSES
classes, is the oracle of the library's exact Weil index; it shares the
library's triangular solve (exactla._upper_solve).
"""

import math
from fractions import Fraction

import numpy as np

from thetacover import exactla as xla
from thetacover.cocycle import _maslov_gram
from thetacover.symplectic import _j_blocks
from thetacover.theta import ThetaParams, _radius


def to_fractions(m):
    return [[Fraction(x) for x in row] for row in m]


def rref(m):
    """Reduced row echelon form; returns (R, pivot column indices)."""
    a = to_fractions(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m):
    return len(rref(m)[1])


def det(m):
    a = to_fractions(m)
    n = len(a)
    assert all(len(row) == n for row in a), "determinant needs a square matrix"
    d = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            d = -d
        d *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def inv(m):
    n = len(m)
    aug = [list(map(Fraction, row)) + [Fraction(i == j) for j in range(n)]
           for i, row in enumerate(m)]
    red, pivots = rref(aug)
    assert pivots[:n] == list(range(n)), "matrix is singular"
    return [row[n:] for row in red]


def solve_left(a, b):
    """One rational solution x of x . a = b, or None if inconsistent.

    a is r x n, b has length n, x has length r.  When the system is
    underdetermined an arbitrary consistent solution is returned.
    """
    at = xla.transpose(a)                  # n x r, solving at . x^T = b^T
    aug = [list(map(Fraction, row)) + [Fraction(bi)] for row, bi in zip(at, b)]
    red, pivots = rref(aug)
    r = len(a)
    if r in pivots:
        return None                        # pivot in the constant column
    x = [Fraction(0)] * r
    for i, c in enumerate(pivots):
        x[c] = red[i][r]
    return x


def int_row_kernel(m):
    """Basis of the saturated lattice {x in Z^r : x . m = 0}."""
    h, u = xla.hnf_with_transform(m)
    return [u[i] for i in range(len(h)) if not any(h[i])]


def saturation(m):
    """Basis of {x in Z^n : x in Q-rowspan(m)} (the saturated row lattice)."""
    ker_cols = int_row_kernel(xla.transpose(m))    # rows k with m . k^T = 0
    if not ker_cols:
        return xla.identity(len(m[0]))
    return int_row_kernel(xla.transpose(ker_cols))


def lattice_coordinates(basis, sub):
    """Integer coordinate matrix C with sub = C . basis (asserted exact)."""
    coords = []
    for row in sub:
        x = solve_left(basis, row)
        assert x is not None, "vector outside the lattice span"
        assert all(f.denominator == 1 for f in x), "non-integer coordinates"
        coords.append([int(f) for f in x])
    return coords


def x_star(m):
    """Row basis of the base Lagrangian X* = (0 | 1_m)."""
    return [[0] * m + [int(j == i) for j in range(m)] for i in range(m)]


def x_star_image(g):
    """Row basis X* g of the image of X* under g."""
    return xla.mat_mul(x_star(g.m), g.rows)


def pairing(u, v):
    """<u, v> = x x'*^T - x* x'^T on the row bases u = (x | x*), v = (x' | x'*)."""
    gram = xla.mat_neg(_j_blocks(len(u[0]) // 2))
    return xla.mat_mul(xla.mat_mul(u, gram), xla.transpose(v))


def maslov_signature(l1, l2, l3):
    """Signature of (x1,x2,x3) -> <x1,x2> + <x2,x3> + <x3,x1> on l1+l2+l3.

    l1, l2 and l3 are row bases, m x 2m; ValueError unless each spans a
    Lagrangian: rank m by the Fraction rank above, and the form vanishes
    on it.  Computed as the signature of twice the Gram matrix in the row
    bases, which is exact and leaves the value unchanged.
    """
    m = len(l1)
    for rows in (l1, l2, l3):
        if len(rows) != m or any(len(row) != 2 * m for row in rows):
            raise ValueError("need three m x 2m row bases")
        if rank(rows) != m:
            raise ValueError("rows must be independent")
        if any(map(any, pairing(rows, rows))):
            raise ValueError("form must vanish")
    pos, neg = xla.congruence_signature(
        _maslov_gram(pairing(l1, l2), pairing(l2, l3), pairing(l3, l1)))
    return pos - neg


def _diag_mod2(m1, m2):
    """diag(m1 m2) mod 2."""
    prod = xla.mat_mul(m1, m2)
    return tuple(prod[i][i] % 2 for i in range(len(prod)))


def theta_group_by_blocks(g):
    """Gamma(1,2) membership by the block rule: diag(a b^T) and diag(c d^T)
    even."""
    return not any(_diag_mod2(g.a, xla.transpose(g.b))
                   + _diag_mod2(g.c, xla.transpose(g.d)))


def label_by_blocks(g):
    """The coset label by blocks: (diag(a^T c) | diag(b^T d)) mod 2."""
    return (_diag_mod2(xla.transpose(g.a), g.c)
            + _diag_mod2(xla.transpose(g.b), g.d))


# Largest residue system box_sides enumerates; the count's int64 bound
# rests on it.
MAX_CLASSES = 10**6


def box_sides(h):
    """Side lengths of the residue box of Z^r modulo a full-rank row lattice.

    h is the lattice's HNF from ``hnf_with_transform``.  With h upper
    triangular the products of [0, h_ii) enumerate the quotient exactly
    once, so the product of the sides is the index |det|.  ValueError
    unless h has full rank and that index is at most MAX_CLASSES.
    """
    sides = [h[i][i] for i in range(len(h))]
    if not all(d > 0 for d in sides):
        raise ValueError("row lattice does not have full rank")
    index = math.prod(sides)
    if index > MAX_CLASSES:
        raise ValueError(f"residue system too large: {index} classes > {MAX_CLASSES}")
    return sides


def counted_gauss_sum(d, c) -> complex:
    """G(d, c) = sum of e^{i pi x c^{-1} d x^T} over x in Z^m mod rows of c,
    by counting, for d and c with c d^T symmetric with an even diagonal.

    With the HNF u c = h, whose rows span the lattice of c, G(d, c) =
    G(u d, h) since h^{-1} u d = c^{-1} d.  Over the common denominator
    D = |det c| = det h the phase is e^{i pi k / D} with the integer
    k = x Q x^T mod 2D, Q = D h^{-1} u d: the classes of the HNF box
    (box_sides) are counted by k exactly in int64, and floats enter only
    in the final sum of counts times phases.
    """
    m = len(c)
    h, u = xla.hnf_with_transform(c)          # u c = h, u unimodular
    sides = box_sides(h)
    den = math.prod(sides)                     # D = |det c| = det h
    # h Q = D u d: Q = D c^{-1} d = D h^{-1} u d is integral (D h^{-1} = adj h)
    q = xla._upper_solve(h, xla.mat_mul(u, d), den)
    # Entries of Q mod 2D and of x stay below 2D, and D <= MAX_CLASSES, so
    # x Q and (x Q mod 2D) . x stay below 2m 10**12 in int64.
    two_den = 2 * den
    qmod = np.array([[x % two_den for x in row] for row in q],
                    dtype=np.int64).reshape(m, m)
    x = np.indices(sides, dtype=np.int64).reshape(m, den)   # one class a column
    k = ((qmod @ x) % two_den * x).sum(axis=0) % two_den
    counts = np.bincount(k, minlength=two_den)
    # e^{i pi (k + D) / D} = -e^{i pi k / D}
    folded = counts[:den] - counts[den:]
    return complex(folded @ np.exp(1j * np.pi * np.arange(den) / den))


def box_sum(z, m_q, eps_q, weight, params):
    """Direct sum of (-1)^{m_q . n} e^{i pi v z v^T}, v = n + eps_q/2, over
    the whole box, one complex exp per point; weight "three_half" inserts
    the moment vector v^T.  The box is a tensor of shape (2R + 1,)^m in lex
    order, with v_k along axis k, broadcast from per-axis vectors.
    """
    if weight not in ("half", "three_half"):
        raise ValueError(f"unknown weight {weight!r}")
    m, zz = z.m, z.z
    radius = _radius(z, params or ThetaParams())
    n = np.arange(-radius, radius + 1)
    along = [(-1,) + (1,) * (m - 1 - k) for k in range(m)]   # axis k's shape
    v = [(n + e / 2).reshape(along[k]) for k, e in enumerate(eps_q)]
    w = np.exp(1j * math.pi * sum(zz[k, l] * v[k] * v[l]
                                  for k in range(m) for l in range(m)))
    for k, x in enumerate(m_q):
        if x % 2:
            w *= (1 - 2 * (n & 1)).reshape(along[k])
    if weight == "half":
        return complex(w.sum())
    return np.array([np.sum(v[k] * w) for k in range(m)])
