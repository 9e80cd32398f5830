"""Exact linear algebra over Python ints and fractions.

Everything here operates on matrices given as lists (or tuples) of rows.
Entries are ints or Fractions; no floats ever enter these routines, so
results are exact.  There is one elimination, the fraction-free full-pivot
Bareiss elimination over Python ints (_pivoting): det, rank and inv read
it, and so does the rank normal form of the cocycle module.  Rational
input is first scaled to ints by the lcm of its denominators.  The Hermite
normal form and the congruence signature work over Python ints as well.
Matrices are tiny (at most ~25 x 25), which keeps the classical O(n^3)
algorithms comfortably fast.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

Row = Sequence
Matrix = Sequence[Row]


# --- basic constructors and arithmetic ---

def identity(n: int) -> list[list]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> list[list]:
    return [[0] * c for _ in range(r)]


def as_int(x) -> int:
    """int(x) for an entry of outside input; ValueError unless int(x) == x."""
    n = int(x)
    if n != x:
        raise ValueError(f"entries must be integers, got {x!r}")
    return n


def transpose(m: Matrix) -> list[list]:
    return [list(col) for col in zip(*m)]


def mat_mul(a: Matrix, b: Matrix) -> list[list]:
    bt = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def mat_add(a: Matrix, b: Matrix) -> list[list]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Matrix) -> list[list]:
    return [[-x for x in row] for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def is_symmetric(m: Matrix) -> bool:
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i))


# --- fraction-free full-pivot elimination ---

def _integral(m: Matrix) -> tuple[list[list[int]], int]:
    """(L m, L) as fresh int rows, L > 0 the lcm of the entries' denominators.

    Int input is only copied (L = 1); it never takes the Fraction pass.
    """
    if all(isinstance(x, int) for row in m for x in row):
        return [list(row) for row in m], 1
    a = [[Fraction(x) for x in row] for row in m]
    scale = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row]
            for row in a], scale


def _pivoting(c: Matrix) -> tuple:
    """Full-pivot elimination P c Q = diag(1_j, 0) of an r x n int matrix, in ints.

    Each pivot is the first nonzero entry of the remaining block, row by
    row, swapped to the diagonal; the Bareiss update (piv * x - f * y) / prev
    divides exactly (Bareiss, Math. Comp. 22, 1968), and pivot k is the
    leading (k+1)-minor of the permuted c.  With piv_k the pivots,
    d = piv_{j-1} (1 if j = 0) and piv_{-1} = 1: P[k] = p[k] / piv_k,
    Q[:, k] = q[:, k] / piv_{k-1} for k < j, and P[i] = p[i] / d,
    Q[:, i] = q[:, i] / d for i >= j.  Returns (pivots, sign, order, p, q);
    j = len(pivots) is the rank, order[k] is the row of c moved to row k and
    sign that of the column swaps.  A row swap happens only when row k of
    the remaining block is zero, so a square c with a row swap is singular;
    for a nonsingular square c no row moves and det c = sign * d.
    """
    r = len(c)
    n = len(c[0]) if r else 0
    work = [list(row) for row in c]
    p, q = identity(r), identity(n)
    order = list(range(r))
    pivots, sign, prev = [], 1, 1
    for k in range(min(r, n)):
        pivot = next(((i, t) for i in range(k, r) for t in range(k, n)
                      if work[i][t]), None)
        if pivot is None:
            break
        pr, pc = pivot
        if pr != k:
            work[k], work[pr], p[k], p[pr] = work[pr], work[k], p[pr], p[k]
            order[k], order[pr] = order[pr], order[k]
        if pc != k:
            for row in work + q:
                row[k], row[pc] = row[pc], row[k]
            sign = -sign
        top = work[k]
        piv = top[k]
        for i in range(k + 1, r):
            f = work[i][k]
            work[i] = [(piv * x - f * y) // prev for x, y in zip(work[i], top)]
            p[i] = [(piv * x - f * y) // prev for x, y in zip(p[i], p[k])]
        for row in q:
            for t in range(k + 1, n):
                row[t] = (piv * row[t] - top[t] * row[k]) // prev
        pivots.append(piv)
        prev = piv
    return pivots, sign, order, p, q


def _square(m: Matrix, what: str) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError(f"{what} needs a square matrix")
    return n


def rank(m: Matrix) -> int:
    return len(_pivoting(_integral(m)[0])[0])


def det(m: Matrix) -> Fraction:
    """det m = sign * (last pivot) / L^n for m = (L m) / L."""
    n = _square(m, "determinant")
    a, scale = _integral(m)
    pivots, sign, *_ = _pivoting(a)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * (pivots[-1] if n else 1), scale ** n)


def inv(m: Matrix) -> list[list[Fraction]]:
    """m^{-1} as Fraction rows: P (L m) Q = 1 gives m^{-1} = L Q P.

    Term k of Q P is q[:, k] p[k] / (piv_{k-1} piv_k); the sum is taken in
    ints over the lcm of those denominators.
    """
    n = _square(m, "inverse")
    a, scale = _integral(m)
    pivots, _, _, p, q = _pivoting(a)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    dens = [x * y for x, y in zip([1] + pivots, pivots)]
    common = math.lcm(*dens)
    p = [[x * (common // den) for x in row] for row, den in zip(p, dens)]
    return [[Fraction(x * scale, common) for x in row] for row in mat_mul(q, p)]


# --- integer Hermite normal form with transform ---

def hnf_with_transform(m: Matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style HNF: returns (H, U) with U unimodular and U . m = H.

    H has pivots left to right with positive pivot entries, entries above a
    pivot reduced into [0, pivot), and zero rows collected at the bottom.
    """
    h = [[int(x) for x in row] for row in m]
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = identity(rows)
    r = 0
    for c in range(cols):
        # push all weight in column c below row r into row r via Euclid
        while True:
            nz = [i for i in range(r, rows) if h[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(h[i][c]))
            h[r], h[i0] = h[i0], h[r]
            u[r], u[i0] = u[i0], u[r]
            done = True
            for i in range(r + 1, rows):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if r >= rows or h[r][c] == 0:
            continue
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):                 # reduce entries above the pivot
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == rows:
            break
    return h, u


# Largest residue system box_sides enumerates; the Gauss-sum kernel's int64
# bound rests on it.
MAX_CLASSES = 10**6


def box_sides(h: Matrix) -> list[int]:
    """Side lengths of the residue box of Z^r modulo a full-rank row lattice.

    h is the lattice's HNF from ``hnf_with_transform``.  With h upper
    triangular the products of [0, h_ii) enumerate the quotient exactly
    once, so the product of the sides is the index |det|.  Raises if that
    index exceeds MAX_CLASSES.
    """
    sides = [h[i][i] for i in range(len(h))]
    assert all(d > 0 for d in sides), "row lattice does not have full rank"
    index = math.prod(sides)
    if index > MAX_CLASSES:
        raise ValueError(f"residue system too large: {index} classes > {MAX_CLASSES}")
    return sides


# --- signatures of symmetric rational forms ---

def congruence_signature(s: Matrix) -> tuple[int, int]:
    """(positives, negatives) of a symmetric rational matrix, kernel dropped.

    Fraction-free symmetric elimination over Python ints.  Rational input is
    first scaled by the lcm of its denominators, which is positive and so
    keeps the signature.  After pivot p on row a of the active block A, the
    new active block is p A - a a^T: p times the Schur complement, so each
    negative pivot swaps the roles of positive and negative from then on.
    Dividing the block by the gcd of its entries (positive) keeps them
    small.  With a zero diagonal, row+column addition creates a pivot.
    """
    if not is_symmetric(s):
        raise ValueError("signature needs a symmetric matrix")
    a, _ = _integral(s)
    pos = neg = 0
    flipped = False                 # active block is a negative multiple
    while a:
        n = len(a)
        k = next((i for i in range(n) if a[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in range(n) for j in range(i + 1, n)
                         if a[i][j]), None)
            if pair is None:
                break                       # remaining block is zero
            i, j = pair                     # row_i += row_j, col_i += col_j
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            k = i
        pivot_row = a[k]
        p = pivot_row[k]
        if (p > 0) != flipped:
            pos += 1
        else:
            neg += 1
        if p < 0:
            flipped = not flipped
        a = [[p * x - row[k] * y
              for t, (x, y) in enumerate(zip(row, pivot_row)) if t != k]
             for r, row in enumerate(a) if r != k]
        g = math.gcd(*(x for row in a for x in row))
        if g > 1:
            a = [[x // g for x in row] for row in a]
    return pos, neg
