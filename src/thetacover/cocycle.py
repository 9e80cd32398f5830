"""Eighth-root cocycle on the symplectic group and its two-fold reduction.

The cocycle value on a pair (g1, g2) is exp(i pi tau / 4) where tau is the
signature of the triple-overlap quadratic form attached to the Lagrangian
row spans (X*, X* g2^{-1}, X* g1), X* = (0 | 1_m).  The normalizing function
m(g) = exp(i pi (-j + 2 [x(g) < 0]) / 4) needs only j = rank c and the sign
of x(g) = det(a1 a2) mod squares, both read off the rank normal form
P c Q = diag(1_j, 0) of the c block.  That form, computed once per g, also
fixes the square root of det(cz + d) in the theta module.  The full
factorization g = p1 omega_S p2 with p1, p2 block upper triangular over Q,
below, derives the same constant and branch independently; no library path
calls it, and it is kept as the oracle of the tests.  Dividing the cocycle
by the m coboundary leaves a sign, which is the multiplication rule of the
nontrivial double cover.

All arithmetic here is exact (int / Fraction), so cocycle values are honest
elements of the cyclic group of order eight, not floats.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import exactla as xla
from .symplectic import IntegerSymplectic, _j_blocks, make_generator


class Mu8:
    """Eighth root of unity exp(i pi k / 4), stored as the exponent k mod 8."""

    __slots__ = ("exponent",)

    def __init__(self, exponent: int):
        object.__setattr__(self, "exponent", int(exponent) % 8)

    def __setattr__(self, *a):
        raise AttributeError("Mu8 is immutable")

    def __mul__(self, other: "Mu8") -> "Mu8":
        return Mu8(self.exponent + other.exponent)

    def inv(self) -> "Mu8":
        return Mu8(-self.exponent)

    def __pow__(self, n: int) -> "Mu8":
        return Mu8(self.exponent * n)

    @property
    def value(self) -> complex:
        return cmath.exp(1j * cmath.pi * self.exponent / 4)

    def as_sign(self) -> int:
        if self.exponent not in (0, 4):
            raise ValueError(f"not a sign: exponent {self.exponent}")
        return 1 if self.exponent == 0 else -1

    def __eq__(self, other):
        return isinstance(other, Mu8) and self.exponent == other.exponent

    def __hash__(self):
        return hash(("Mu8", self.exponent))

    def __repr__(self):
        return f"Mu8({self.exponent})"


class Lagrangian:
    """Row span of an m x 2m integer matrix of rank m on which the form vanishes."""

    __slots__ = ("m", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        m = len(rows)
        if not m or any(len(r) != 2 * m for r in rows):
            raise ValueError("need an m x 2m matrix")
        if xla.rank(rows) != m:
            raise ValueError("rows must be independent")
        pairing = xla.mat_mul(xla.mat_mul(rows, _j_blocks(m)), xla.transpose(rows))
        if any(x for row in pairing for x in row):
            raise ValueError("form must vanish")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("Lagrangian is immutable")

    def act(self, g: IntegerSymplectic) -> "Lagrangian":
        return Lagrangian(xla.mat_mul([list(r) for r in self.rows], g.rows))

    def __repr__(self):
        return f"Lagrangian({[list(r) for r in self.rows]})"


@lru_cache(maxsize=None)
def x_star(m: int) -> Lagrangian:
    """The base Lagrangian X* = (0 | 1_m); cached, as Lagrangian is immutable."""
    return Lagrangian([[0] * m + [1 if j == i else 0 for j in range(m)]
                       for i in range(m)])


def _maslov_gram(l1, l2, l3) -> list[list[int]]:
    """Twice the Gram matrix of the Maslov form in the row bases l1, l2, l3.

    Each argument is the m x 2m row basis of a Lagrangian.
    """
    m = len(l1)
    if len(l2) != m or len(l3) != m:
        raise ValueError("genus mismatch")
    gram = xla.mat_neg(_j_blocks(m))    # the form <w1, w2> = x1 x2*^T - x1* x2^T
    bs = (l1, l2, l3)

    def pair(i, j):
        return xla.mat_mul(xla.mat_mul(bs[i], gram), xla.transpose(bs[j]))

    p12, p23, p31 = pair(0, 1), pair(1, 2), pair(2, 0)
    z = xla.zeros(m, m)
    big = []
    for blocks in ([z, p12, xla.transpose(p31)],
                   [xla.transpose(p12), z, p23],
                   [p31, xla.transpose(p23), z]):
        for i in range(m):
            big.append([x for blk in blocks for x in blk[i]])
    return big


def maslov_signature(l1: Lagrangian, l2: Lagrangian, l3: Lagrangian) -> int:
    """Signature of (x1,x2,x3) -> <x1,x2> + <x2,x3> + <x3,x1> on l1+l2+l3.

    Computed as the signature of twice the Gram matrix in the row bases,
    which is exact and leaves the value unchanged.
    """
    pos, neg = xla.congruence_signature(_maslov_gram(l1.rows, l2.rows, l3.rows))
    return pos - neg


def rao_cocycle(g1: IntegerSymplectic, g2: IntegerSymplectic) -> Mu8:
    """The eighth-root two-cocycle attached to the base Lagrangian X*.

    tau is the Maslov signature of (X*, X* g2^{-1}, X* g1), read off the
    blocks: X* g1 has rows (c1 | d1), and X* g2^{-1} = (-c2^T | a2^T) by
    g^{-1} = (d^T -b^T; -c^T a^T).  Both are Lagrangian because g1, g2 are
    validated symplectic matrices.
    """
    m = g1.m
    l2 = [[-x for x in row] + list(a) for row, a in
          zip(xla.transpose(g2.c), xla.transpose(g2.a))]
    pos, neg = xla.congruence_signature(
        _maslov_gram(x_star(m).rows, l2, g1.rows[m:]))
    return Mu8(pos - neg)


# --- factorization through the partial involutions ---

@dataclass(frozen=True)
class PwsFactorization:
    """g = p1 omega_S p2 with p1, p2 rational block upper triangular.

    p1 and p2 are 2m x 2m Fraction matrices, S = {1, ..., j} where j is the
    rank of the c block, and x_sign is the sign of det(a(p1)) det(a(p2)).
    """
    p1: tuple
    p2: tuple
    S: frozenset
    j: int
    x_sign: int

    @property
    def m_xstar(self) -> Mu8:
        return _normalizing_constant(self.j, self.x_sign)


def _normalizing_constant(j: int, x) -> Mu8:
    """m(g) = exp(i pi (-j + 2 [x < 0]) / 4) with j = rank c, x = x(g)."""
    return Mu8(-j + (2 if x < 0 else 0))


def _full_pivot_rank_normal(c):
    """P, Q unimodular-free rational with P c Q = diag(1_j, 0); returns (P, Q, j)."""
    m = len(c)
    work = [[Fraction(x) for x in row] for row in c]
    p = [[Fraction(1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]
    q = [[Fraction(1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]
    k = 0
    while k < m:
        pr, pc = None, None
        for i in range(k, m):
            for j in range(k, m):
                if work[i][j] != 0:
                    pr, pc = i, j
                    break
            if pr is not None:
                break
        if pr is None:
            break
        work[k], work[pr] = work[pr], work[k]
        p[k], p[pr] = p[pr], p[k]
        for i in range(m):
            work[i][k], work[i][pc] = work[i][pc], work[i][k]
        for i in range(m):
            q[i][k], q[i][pc] = q[i][pc], q[i][k]
        piv = work[k][k]
        work[k] = [x / piv for x in work[k]]
        p[k] = [x / piv for x in p[k]]
        for i in range(m):
            if i != k and work[i][k] != 0:
                f = work[i][k]
                work[i] = [x - f * y for x, y in zip(work[i], work[k])]
                p[i] = [x - f * y for x, y in zip(p[i], p[k])]
        for j in range(m):
            if j != k and work[k][j] != 0:
                f = work[k][j]
                for i in range(m):
                    work[i][j] -= f * work[i][k]
                    q[i][j] -= f * q[i][k]
        k += 1
    return p, q, k


def _h_mat(a):
    m = len(a)
    ainv_t = xla.transpose(xla.inv(a))
    rows = [[Fraction(a[i][j]) for j in range(m)] + [Fraction(0)] * m for i in range(m)]
    rows += [[Fraction(0)] * m + [Fraction(ainv_t[i][j]) for j in range(m)]
             for i in range(m)]
    return rows


def _u_mat(b):
    m = len(b)
    rows = [[Fraction(i == j) for j in range(m)] + [Fraction(b[i][j]) for j in range(m)]
            for i in range(m)]
    rows += [[Fraction(0)] * m + [Fraction(i == j) for j in range(m)] for i in range(m)]
    return rows


def pws_decompose(g: IntegerSymplectic) -> PwsFactorization:
    """Factor g = p1 omega_{S_j} p2 exactly, j = rank of the c block.

    The reconstruction p1 omega p2 == g is asserted, so a wrong branch can
    never return silently.
    """
    m = g.m
    p_row, q_col, j = _full_pivot_rank_normal(g.c)
    a1 = xla.transpose(p_row)                       # P c Q = E_j, a1 = P^T
    a2 = xla.inv(q_col)                             # a2 = Q^{-1}
    gq = [[Fraction(x) for x in row] for row in g.rows]
    gpp = xla.mat_mul(xla.mat_mul(_h_mat(xla.inv(a1)), gq), _h_mat(xla.inv(a2)))

    def blk(mat, r0, c0, nr, nc):
        return [[mat[r0 + i][c0 + j_] for j_ in range(nc)] for i in range(nr)]

    k = m - j
    a11 = blk(gpp, 0, 0, j, j)
    a21 = blk(gpp, j, 0, k, j)
    a22 = blk(gpp, j, j, k, k)
    assert all(x == 0 for row in blk(gpp, 0, j, j, k) for x in row), "a12 != 0"
    # delta restores the lower right a block to the identity
    delta = [[Fraction(i == j_) for j_ in range(j)] + [Fraction(0)] * k
             for i in range(j)]
    if k:
        a22_inv = xla.inv(a22)
        low = xla.mat_mul([[-x for x in row] for row in a22_inv], a21)
        for i in range(k):
            delta.append(list(low[i]) + list(a22_inv[i]))
    g3 = xla.mat_mul(gpp, _h_mat(delta))
    sigma = [[g3[i][j_] if (i < j and j_ < j) else Fraction(0) for j_ in range(m)]
             for i in range(m)]
    g4 = xla.mat_mul(_u_mat([[-x for x in row] for row in sigma]), g3)
    d11 = blk(g4, m, m, j, j)
    d12 = blk(g4, m, m + j, j, k)
    tau = [list(d11[i]) + list(d12[i]) for i in range(j)]
    tau += [[d12[i_][i] for i_ in range(j)] + [Fraction(0)] * k for i in range(k)]
    g5 = xla.mat_mul(g4, _u_mat([[-x for x in row] for row in tau]))
    # remainder must be omega_{S_j} u(rho) with rho supported on the lower block
    rho = [[Fraction(0)] * m for _ in range(m)]
    for i in range(k):
        for j_ in range(k):
            rho[j + i][j + j_] = g5[j + i][m + j + j_]
    omega = make_generator("omega_S", m, S=set(range(1, j + 1)))
    p1 = xla.mat_mul(_h_mat(a1), _u_mat(sigma))
    p2 = xla.mat_mul(_u_mat(xla.mat_add(rho, tau)), _h_mat(xla.mat_mul(xla.inv(delta), a2)))
    omq = [[Fraction(x) for x in row] for row in omega.rows]
    recon = xla.mat_mul(xla.mat_mul(p1, omq), p2)
    assert xla.mat_eq(recon, gq), "factorization does not reconstruct g"

    det_a1 = xla.det(a1)
    det_a2 = xla.det(a2)
    det_delta = xla.det(delta)
    x_sign = 1 if det_a1 * det_a2 / det_delta > 0 else -1
    return PwsFactorization(
        p1=tuple(tuple(row) for row in p1),
        p2=tuple(tuple(row) for row in p2),
        S=frozenset(range(1, j + 1)),
        j=j,
        x_sign=x_sign,
    )


@lru_cache(maxsize=256)
def _rank_normal_form(g: IntegerSymplectic) -> tuple:
    """(j, x, P, Q): P c Q = diag(1_j, 0) and x = x(g), once per g.

    h(P^{-T}) g h(Q) has c block diag(1_j, 0) and a block P^{-T} a Q, whose
    lower right (m - j) block a22 is invertible.  Then x = det P det a22 /
    det Q (no a22 when j = m).  Mod squares it is the x = det a(p1) det a(p2)
    of the whole factorization g = p1 omega_S p2, and as a number
    det(cz + d) = det T / x (see ``theta.j_half``).  P and Q are tuples of
    Fraction rows.
    """
    p, q, j = _full_pivot_rank_normal(g.c)
    x = xla.det(p) / xla.det(q)
    if j < g.m:
        rows = xla.transpose(xla.inv(p))[j:]
        cols = [row[j:] for row in q]
        x *= xla.det(xla.mat_mul(xla.mat_mul(rows, g.a), cols))
    return j, x, tuple(map(tuple, p)), tuple(map(tuple, q))


def m_xstar(g: IntegerSymplectic) -> Mu8:
    """Normalizing function m(g), read off the rank normal form of c.

    The whole factorization g = p1 omega_S p2 derives it too and is the
    oracle for this one.
    """
    j, x, _, _ = _rank_normal_form(g)
    return _normalizing_constant(j, x)


def cbar_cocycle(g1: IntegerSymplectic, g2: IntegerSymplectic) -> int:
    """Sign-valued reduction m(g1 g2)^{-1} m(g1) m(g2) c~(g1, g2); checks +-1."""
    val = m_xstar(g1 @ g2).inv() * m_xstar(g1) * m_xstar(g2) * rao_cocycle(g1, g2)
    return val.as_sign()


# --- the two-fold cover ---

@dataclass(frozen=True)
class CoverElement:
    """Pair (g, eps) with eps = +-1, multiplied through the sign cocycle."""
    g: IntegerSymplectic
    eps: int

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")


def cover_mul(x: CoverElement, y: CoverElement) -> CoverElement:
    return CoverElement(x.g @ y.g, x.eps * y.eps * cbar_cocycle(x.g, y.g))


def cover_inv(x: CoverElement) -> CoverElement:
    gi = x.g.inverse()
    return CoverElement(gi, x.eps * cbar_cocycle(x.g, gi))
