"""Exact linear algebra over Python ints and fractions.

Everything here operates on matrices given as lists (or tuples) of rows,
which from_blocks assembles from blocks.  Entries are ints or Fractions;
no floats ever enter these routines, so results are exact.  There is one
elimination, the fraction-free full-pivot Bareiss elimination over
Python ints (_pivoting): det and inv read it, and so does the rank
normal form of the cocycle module.  It does each row operation once, and
a transform rides along as the columns of (m | 1), as in the Hermite
normal form; the adjugate (closed forms up to 2 x 2) and the Gauss-sum
count share one triangular solve, and inv reads the adjugate.  The Smith
normal form (smith_form), on which the exact Weil index of gauss rests,
clears rows and columns by Bezout steps with its transforms riding along.
Rational input is first scaled to ints by the lcm of its denominators.
Matrices are tiny (at most ~25 x 25), which keeps the classical O(n^3)
algorithms comfortably fast.

At genus m <= 2 nearly every matrix that beta_tilde and rao_cocycle hand
down is at most 2 x 2 (Kashiwara's m x m form, the block c, its Smith
block W), and there a general loop costs several times the work, so three
kernels take closed forms at n <= 2: _adjugate (det and adjugate
written out), congruence_signature (the sign of the entry at n = 1, the
signs of det and trace at n = 2) and smith_form (|x| at n = 1, two
Bezout steps in _smith_2x2 at n = 2).  The general loops (_pivoting,
_signature_loop, _smith_loop) take every other size and are the tests'
oracles for the closed forms.
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
    try:
        n = int(x)
    except (OverflowError, ValueError, TypeError):  # inf, nan, "a", None, 1j, [1]
        n = None
    if n is None or n != x:
        raise ValueError(f"entries must be integers, got {x!r}")
    return n


def as_int_arg(x, name: str) -> int:
    """as_int(x) for the argument called name; its ValueError names it."""
    try:
        return as_int(x)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None


def transpose(m: Matrix) -> list[list]:
    return [list(col) for col in zip(*m)]


def from_blocks(grid) -> list[list]:
    """The matrix with the given rows of blocks, e.g. [[a, b], [c, d]].

    The blocks of one row of the grid have its height; ValueError if not.
    """
    return [[x for part in parts for x in part]
            for blocks in grid for parts in zip(*blocks, strict=True)]


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


def _augmented(a: Matrix) -> list[list[int]]:
    """(a | 1) as fresh rows: a transform rides its elimination as columns."""
    return [[*row, *e] for row, e in zip(a, identity(len(a)))]


def _pivoting(c: Matrix, n: int | None = None) -> tuple:
    """Fraction-free full-pivot elimination of an r x N int matrix, in ints.

    Pivots are the first nonzero entry of the remaining block, row by row,
    in the first n columns (all by default), swapped to the diagonal; pivot
    k is the leading (k+1)-minor of the permuted c.  Each Bareiss row
    operation (piv * x - f * y) / prev divides exactly (Bareiss, Math.
    Comp. 22, 1968) and runs once over whole rows, so columns past n ride
    along.  Returns (pivots, sign, order, cols, rows): j = len(pivots) is
    the rank, order[k] and cols[k] the row and column of c moved to k, sign
    that of the column swaps.  For (c | 1) and d = piv_{j-1} (1 if j = 0),
    P c Q = diag(1_j, 0) has P[k] = p[k] / piv_k (k < j) and p[k] / d
    (k >= j), p the right block of rows, and Q^{-1} is (P c)[:j] over the
    unit rows at cols[j:].  A row swap happens only when row k of the
    remaining block is zero, so for a nonsingular square c no row moves and
    det c = sign * d.
    """
    r = len(c)
    n = (len(c[0]) if r else 0) if n is None else n
    work = [list(row) for row in c]
    order, cols = list(range(r)), list(range(n))
    pivots, sign, prev = [], 1, 1
    for k in range(min(r, n)):
        pivot = next(((i, t) for i in range(k, r) for t in range(k, n)
                      if work[i][t]), None)
        if pivot is None:
            break
        pr, pc = pivot
        if pr != k:
            work[k], work[pr] = work[pr], work[k]
            order[k], order[pr] = order[pr], order[k]
        if pc != k:
            for row in work:
                row[k], row[pc] = row[pc], row[k]
            cols[k], cols[pc] = cols[pc], cols[k]
            sign = -sign
        top = work[k]
        piv = top[k]
        for i in range(k + 1, r):
            f = work[i][k]
            work[i] = [(piv * x - f * y) // prev for x, y in zip(work[i], top)]
        pivots.append(piv)
        prev = piv
    return pivots, sign, order, cols, work


def _upper_solve(u: Matrix, b: Matrix, d: int) -> list[list[int]]:
    """The int rows x with u x = d b, u square upper triangular, by back
    substitution; every division is exact when d u^{-1} b is integral."""
    x = [None] * len(u)
    for i in reversed(range(len(u))):
        row = [d * v - sum(u[i][t] * x[t][s] for t in range(i + 1, len(u)))
               for s, v in enumerate(b[i])]
        assert all(v % u[i][i] == 0 for v in row), "d u^-1 b is not integral"
        x[i] = [v // u[i][i] for v in row]
    return x


def _square(m: Matrix, what: str) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError(f"{what} needs a square matrix")
    return n


def det(m: Matrix) -> Fraction:
    """det m = sign * (last pivot) / L^n for m = (L m) / L."""
    n = _square(m, "determinant")
    a, scale = _integral(m)
    pivots, sign, *_ = _pivoting(a)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * (pivots[-1] if n else 1), scale ** n)


def _adjugate(a: Matrix) -> tuple[int, list[list[int]] | None]:
    """(det a, adj a) of a square int matrix, in ints; adj is None if det = 0.

    Closed forms at n <= 2: (x, [[1]]) for [[x]], and (ps - qr,
    [[s, -q], [-r, p]]) for [[p, q], [r, s]].  That is the size of
    rao_cocycle's pairings and of the block c that beta_tilde tests for
    invertibility at m <= 2, where an elimination would add more than half
    to the cost of the call.  Above, a zero row or column gives det 0 at
    once (most singular pairings of the letter images' cocycles at m = 4
    have one), and otherwise the
    elimination (U | p) of (a | 1) gives it: column k of U is column
    cols[k] of p a, so row cols[k] of a^{-1} is row k of U^{-1} p, and
    X = d U^{-1} p is integral for d the last pivot, since det a = sign d
    and adj a = det a . a^{-1} = sign X.
    """
    n = len(a)
    if n == 0:
        return 1, []
    if n == 1:
        (x,), = a
        return x, ([[1]] if x else None)
    if n == 2:
        (p, q), (r, s) = a
        d = p * s - q * r
        return d, ([[s, -q], [-r, p]] if d else None)
    if not (all(map(any, a)) and all(map(any, zip(*a)))):
        return 0, None
    pivots, sign, _, cols, rows = _pivoting(_augmented(a), n)
    if len(pivots) < n:
        return 0, None
    x = _upper_solve([row[:n] for row in rows], [row[n:] for row in rows],
                     pivots[-1])
    return sign * pivots[-1], [[sign * v for v in row]
                               for _, row in sorted(zip(cols, x))]


def inv(m: Matrix) -> list[list[Fraction]]:
    """m^{-1} as Fraction rows: L adj(L m) / det(L m) for m = (L m) / L."""
    _square(m, "inverse")
    a, scale = _integral(m)
    d, adj = _adjugate(a)
    if not d:
        raise ValueError("matrix is singular")
    return [[Fraction(v * scale, d) for v in row] for row in adj]


# --- integer Hermite normal form with transform ---

def hnf_with_transform(m: Matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style HNF: returns (H, U) with U unimodular and U . m = H.

    H has pivots left to right with positive pivot entries, entries above a
    pivot reduced into [0, pivot), and zero rows collected at the bottom;
    U is the right block of the reduced rows (m | 1).  Entries follow as_int.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    h = _augmented([list(map(as_int, row)) for row in m])
    r = 0
    for c in range(cols):
        # push all weight in column c below row r into row r via Euclid
        while nz := [i for i in range(r, rows) if h[i][c]]:
            i0 = min(nz, key=lambda i: abs(h[i][c]))
            h[r], h[i0] = h[i0], h[r]
            done = True
            for i in range(r + 1, rows):
                if h[i][c]:
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    done = done and not h[i][c]
            if done:
                break
        if h[r][c] == 0:
            continue
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
        for i in range(r):                 # reduce entries above the pivot
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
        r += 1
        if r == rows:
            break
    return [row[:cols] for row in h], [row[cols:] for row in h]


# --- integer Smith normal form with transforms ---

def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, s, t) with s x + t y = g = gcd(x, y) >= 0."""
    s0, t0, s1, t1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (x, s0, t0) if x >= 0 else (-x, -s0, -t0)


def _clear(x: int, y: int) -> tuple[int, int, int, int]:
    """(s, t, p, q) with s q - t p = 1, s x + t y = gcd(x, y) and p x + q y
    = 0, x or y nonzero: the unimodular pair of operations that moves y
    onto x.  When x != 0 divides y it is (1, 0, -y / x, 1), so x is left as
    it is."""
    if x and not y % x:
        return 1, 0, -(y // x), 1
    g, s, t = _xgcd(x, y)
    return s, t, -(y // g), x // g


def _smith_2x2(m: Matrix) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """smith_form of a 2 x 2 int matrix [[a, b], [c, d]] in closed form.

    A zero row 0 is first swapped with row 1 (and the zero matrix returns
    at once).  One column operation (_clear) takes row 0 to (h, 0), h =
    gcd(a, b), and row 1 to (w, y).  The gcd g of all entries is then
    gcd(h, w, y), and the column operation col0 += k col1, which leaves
    row 0 as it is, makes gcd(h, w + k y) = g for k the largest divisor of
    h / g prime to w / g (every prime of h / g divides just one of w / g
    and k); that is the gcd fix, skipped when gcd(h, w) = g already.  One
    row operation takes column 0 to (g, 0) and leaves t y at (0, 1) and
    q y at (1, 1); g divides y, so one more column operation clears t y.
    Two Bezout steps and at most four operations in all, with no pivot
    search and no repeat, where the general loop (_smith_loop) has both.
    """
    (a, b), (c, d) = m
    a, b, c, d = map(as_int, (a, b, c, d))
    swap = not (a or b)
    if swap:
        if not (c or d):
            return [0, 0], identity(2), identity(2)
        a, b, c, d = c, d, a, b
    s, t, p, q = _clear(a, b)                   # columns: row 0 -> (h, 0)
    h, w, y = s * a + t * b, s * c + t * d, p * c + q * d
    g = math.gcd(h, w, y)
    k = 0
    if math.gcd(h, w) != g:                     # the gcd fix
        k = abs(h) // g
        while (f := math.gcd(k, w // g)) > 1:
            k //= f
        w += k * y
    v = [[s + k * p, p], [t + k * q, q]]
    s, t, p, q = _clear(h, w)                   # rows: column 0 -> (g, 0)
    e0, e1 = s * h + t * w, q * y
    r = t * y // e0                             # clear (0, 1) = t y
    v[0][1] -= r * v[0][0]
    v[1][1] -= r * v[1][0]
    u = [[s, t], [p, q]]
    if swap:                                    # U times the row swap
        u = [[t, s], [q, p]]
    if e0 < 0:
        e0, u[0] = -e0, [-x for x in u[0]]
    if e1 < 0:
        e1, u[1] = -e1, [-x for x in u[1]]
    return [e0, e1], u, v


def smith_form(m: Matrix) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """(e, U, V) with U, V unimodular and U . m . V = diag(e), in ints.

    e has min(rows, cols) entries, e_i >= 0 and e_i | e_{i+1}: the
    nonzero ones first, as many as the rank, then the zeros.  A square
    matrix of size n <= 2, the block W of beta_tilde at genus m <= 2, takes
    a closed form: ([|x|], [[sign x]], [[1]]) at n = 1 (U = [[1]] at x =
    0) and two Bezout steps at n = 2 (_smith_2x2).  Other sizes take the
    general loop (_smith_loop), which is also the closed forms' test
    oracle.  e does not depend on the path; U and V may.  Entries follow
    as_int.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == cols == 2:
        return _smith_2x2(m)
    if rows == cols == 1:
        x = as_int(m[0][0])
        return [abs(x)], [[-1 if x < 0 else 1]], [[1]]
    return _smith_loop(m)


def _smith_loop(m: Matrix) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """smith_form of any matrix, by the general elimination loop.

    Step k brings a nonzero entry of the remaining block to (k, k), then
    clears column k below it by row operations and row k right of it by
    column operations (_clear), in turns, until both are zero; if the pivot
    then fails to divide some entry left below it, that entry's row is
    added to row k and the step goes on.  An operation leaves the pivot as
    it is when the pivot divides the entry it clears and puts the gcd there
    otherwise, which lowers its modulus, so the steps end.  Row operations
    run over the rows of (m | 1), so U rides along as their right block, as
    in the Hermite normal form; column operations ride along on V.  Entries
    follow as_int.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = _augmented([list(map(as_int, row)) for row in m])     # (m | U)
    v = identity(cols)
    for k in range(min(rows, cols)):
        if not a[k][k]:
            at = next(((i, t) for t in range(k, cols) for i in range(k, rows)
                       if a[i][t]), None)
            if at is None:
                break
            i, t = at
            a[k], a[i] = a[i], a[k]
            for row in (*a, *v):
                row[k], row[t] = row[t], row[k]
        while True:
            for i in range(k + 1, rows):
                if a[i][k]:
                    s, t, p, q = _clear(a[k][k], a[i][k])
                    a[k], a[i] = ([s * x + t * y for x, y in zip(a[k], a[i])],
                                  [p * x + q * y for x, y in zip(a[k], a[i])])
            for t in range(k + 1, cols):
                if a[k][t]:
                    s, tt, p, q = _clear(a[k][k], a[k][t])
                    for row in (*a, *v):
                        x, y = row[k], row[t]
                        row[k], row[t] = s * x + tt * y, p * x + q * y
            if any(a[i][k] for i in range(k + 1, rows)):
                continue
            bad = next((i for i in range(k + 1, rows)
                        if any(x % a[k][k] for x in a[i][k + 1:cols])), None)
            if bad is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[bad])]
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
    return ([a[i][i] for i in range(min(rows, cols))],
            [row[cols:] for row in a], v)


# Largest residue system box_sides enumerates; the Gauss-sum count's int64
# bound rests on it.
MAX_CLASSES = 10**6


def box_sides(h: Matrix) -> list[int]:
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


# --- signatures of symmetric rational forms ---

def congruence_signature(s: Matrix) -> tuple[int, int]:
    """(positives, negatives) of a symmetric rational matrix, kernel dropped.

    Sizes n <= 2, the Kashiwara forms of rao_cocycle at genus m <= 2, take
    a closed form on the entries as given, ints or Fractions: at n = 1 the
    sign of the entry; at n = 2 with det < 0 one of each, with det > 0 two
    of the sign of the trace, and with det = 0 (rank at most 1) one of the
    sign of the trace, none if it is 0 (then the matrix is 0).  Larger
    matrices take the elimination (_signature_loop), which is also the
    closed form's test oracle.
    """
    if not is_symmetric(s):
        raise ValueError("signature needs a symmetric matrix")
    n = len(s)
    if n == 2:
        (p, q), (_, r) = s
        det, trace = p * r - q * q, p + r
        if det < 0:
            return 1, 1
        if det > 0:
            return (2, 0) if trace > 0 else (0, 2)
        return (1, 0) if trace > 0 else (0, 1) if trace < 0 else (0, 0)
    if n == 1:
        (x,), = s
        return (1, 0) if x > 0 else (0, 1) if x < 0 else (0, 0)
    return _signature_loop(s)


def _signature_loop(s: Matrix) -> tuple[int, int]:
    """congruence_signature of a symmetric rational matrix of any size.

    Fraction-free symmetric elimination over Python ints.  Rational input is
    first scaled by the lcm of its denominators, which is positive and so
    keeps the signature.  After pivot p on row a of the active block A, the
    new active block is p A - a a^T: p times the Schur complement, so each
    negative pivot swaps the roles of positive and negative from then on.
    Dividing the block by the gcd of its entries (positive; taken as the gcd
    of the rows' gcds) keeps them small.  With a zero diagonal, row+column
    addition creates a pivot.
    """
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
        g = math.gcd(*(math.gcd(*row) for row in a))
        if g > 1:
            a = [[x // g for x in row] for row in a]
    return pos, neg
