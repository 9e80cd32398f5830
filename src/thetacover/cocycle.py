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
from .symplectic import IntegerSymplectic, make_generator


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


def _maslov_gram(p12, p23, p31) -> list[list[int]]:
    """Twice the Gram matrix of the Maslov form of three Lagrangians l1, l2, l3.

    p12, p23 and p31 are the m x m pairings <l1, l2>, <l2, l3>, <l3, l1> of
    their row bases under the form <w1, w2> = x1 x2*^T - x1* x2^T.
    """
    m = len(p12)
    z = xla.zeros(m, m)
    big = []
    for blocks in ([z, p12, xla.transpose(p31)],
                   [xla.transpose(p12), z, p23],
                   [p31, xla.transpose(p23), z]):
        for i in range(m):
            big.append([x for blk in blocks for x in blk[i]])
    return big


def rao_cocycle(g1: IntegerSymplectic, g2: IntegerSymplectic) -> Mu8:
    """The eighth-root two-cocycle attached to the base Lagrangian X*.

    tau is the Maslov signature of (X*, X* g2^{-1}, X* g1).  X* g1 has rows
    (c1 | d1), and X* g2^{-1} = (-c2^T | a2^T) by g^{-1} = (d^T -b^T; -c^T a^T);
    both are Lagrangian because g1, g2 are symplectic.  So the pairings are
    read off the blocks: <X*, X* g2^{-1}> = c2, <X* g1, X*> = c1, and
    <X* g2^{-1}, X* g1> = -c2^T d1^T - a2^T c1^T = -(c1 a2 + d1 c2)^T.

    When either argument lies in the Siegel parabolic (c = 0) the value is
    Mu8(0), returned without a signature.  Then X* g1 = X* or
    X* g2^{-1} = X*, so two of the three Lagrangians agree, and a unipotent
    congruence (d1^T, resp. a2^T, times the repeated block added to the
    other) turns the Gram matrix into the hyperbolic form ((0, C), (C^T, 0))
    plus zeros, C the pairing of the two distinct Lagrangians, whose
    signature is exactly 0.
    """
    if g1.m != g2.m:
        raise ValueError("genus mismatch")
    if _parabolic(g2) or _parabolic(g1):
        return Mu8(0)
    c1 = g1.c
    p23 = xla.mat_neg(xla.transpose(xla.mat_add(xla.mat_mul(c1, g2.a),
                                                xla.mat_mul(g1.d, g2.c))))
    pos, neg = xla.congruence_signature(_maslov_gram(g2.c, p23, c1))
    return Mu8(pos - neg)


def _parabolic(g: IntegerSymplectic) -> bool:
    """g lies in the Siegel parabolic: its c block is zero."""
    return not any(map(any, g.c))


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
    j, _, (p, row_den), q_int = _rank_normal_form(g)
    a1 = _fractions((xla.transpose(p), row_den))    # P c Q = E_j, a1 = P^T
    a2 = xla.inv(_fractions(q_int))                 # a2 = Q^{-1}
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
    """(j, x, (p, row_den), (q, col_den)): P c Q = diag(1_j, 0) and x = x(g),
    once per g.

    h(P^{-T}) g h(Q) has c block diag(1_j, 0) and a block P^{-T} a Q, whose
    lower right (m - j) block a22 is invertible, and x = det P det a22 /
    det Q (no a22 when j = m).  Mod squares it is the x = det a(p1) det a(p2)
    of the whole factorization g = p1 omega_S p2, and as a number
    det(cz + d) = det T / x, T = (W z + P[:j] d) W^T with W = (P c)[:j]
    (see ``theta.sqrt_det``).  In integers, from the elimination
    ``exactla._pivoting`` of c, with d its last pivot and s = +-1 the sign
    of its swaps, det P / det Q = s / d and det a22 = s det K / d for K the
    rows of c at the j pivot rows and of a at the others, so
    x = det K / d^2.  P and Q stay in integers: P[k][i] = p[k][i] / row_den[k]
    and Q[i][k] = q[i][k] / col_den[k].  ``theta.j_half`` reads P[:j] by
    dividing in float; only ``pws_decompose``, the oracle, reads Q, and it
    forms both as Fractions through ``_fractions``.
    """
    m, c = g.m, g.c
    pivots, sign, order, p, q = xla._pivoting(c)
    j = len(pivots)
    d = pivots[-1] if j else 1
    if j == m:
        det_k = sign * d
    else:
        pivot_rows = set(order[:j])
        mixed = [row if i in pivot_rows else a_row
                 for i, (row, a_row) in enumerate(zip(c, g.a))]
        pivots_k, sign_k, *_ = xla._pivoting(mixed)
        det_k = sign_k * pivots_k[-1]
    row_den = tuple(pivots + [d] * (m - j))
    col_den = tuple(([1] + pivots)[:j] + [d] * (m - j))
    return (j, Fraction(det_k, d * d), (tuple(map(tuple, p)), row_den),
            (tuple(map(tuple, q)), col_den))


def _fractions(ints: tuple) -> tuple:
    """Fraction rows from (rows, den), entry [i][k] = rows[i][k] / den[k]:
    Q of the rank normal form from its (q, col_den), and P^T from
    (p^T, row_den)."""
    rows, den = ints
    return tuple(tuple(Fraction(x, k) for x, k in zip(row, den)) for row in rows)


def m_xstar(g: IntegerSymplectic) -> Mu8:
    """Normalizing function m(g), read off the rank normal form of c.

    The whole factorization g = p1 omega_S p2 derives it too and is the
    oracle for this one.
    """
    j, x, *_ = _rank_normal_form(g)
    return _normalizing_constant(j, x)


def cbar_cocycle(g1: IntegerSymplectic, g2: IntegerSymplectic) -> int:
    """Sign-valued reduction m(g1 g2)^{-1} m(g1) m(g2) c~(g1, g2); checks +-1.

    This is the two-letter case of word_lift, which computes it.
    """
    return word_lift((g1, g2)).eps


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
    """(g1, e1) (g2, e2): word_lift of (g1, g2), the sign cocycle, times e1 e2."""
    plus = word_lift((x.g, y.g))
    return CoverElement(plus.g, x.eps * y.eps * plus.eps)


def cover_inv(x: CoverElement) -> CoverElement:
    gi = x.g.inverse()
    return CoverElement(gi, x.eps * cbar_cocycle(x.g, gi))


def word_lift(letters) -> CoverElement:
    """The product (l_1, 1) (l_2, 1) ... (l_k, 1) on the cover, in closed form.

    With P_i = l_1 ... l_i the prefixes, each cbar_cocycle(P_{i-1}, l_i) is
    m(P_i)^{-1} m(P_{i-1}) m(l_i) c~(P_{i-1}, l_i), and Mu8 is abelian, so
    the m factors telescope: the product is (P_k, s) with
        s = m(P_k)^{-1} prod_i m(l_i) prod_{i >= 2} c~(P_{i-1}, l_i).
    m(l_i) reads the letter's cached rank normal form, and c~(P_{i-1}, l_i)
    costs a signature only when neither P_{i-1} nor l_i lies in the Siegel
    parabolic (see rao_cocycle).  The prefixes are formed once, and the
    last is the product itself.  With two letters s is the sign cocycle
    cbar_cocycle(l_1, l_2), so cbar_cocycle and cover_mul read it here;
    the cover_mul walk, a chain of such pairs, is the telescoping's oracle.
    """
    first, *rest = letters
    prefix, val = first, m_xstar(first)
    for letter in rest:
        val = val * m_xstar(letter) * rao_cocycle(prefix, letter)
        prefix = prefix @ letter
    return CoverElement(prefix, (m_xstar(prefix).inv() * val).as_sign())
