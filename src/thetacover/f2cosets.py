"""Coset geometry of the theta subgroup over F2.

Reduction mod 2 sends the integer symplectic group onto Sp(2m, F2), and the
theta subgroup onto the orthogonal group of Q0(v) = sum x_i x*_i
(symplectic._q0, its one definition).  Cosets therefore correspond to the
isotropic vectors q of Q0: the coset of g is detected by
Q0(v g^{-1}) = Q0(v) + <v, q>, whose q is the tuple of Q0 values of the
columns of g.  The label q is constant on each coset (theta subgroup on the
left) and is represented by the integer transvection v -> v + <v, q> q.
For the theta components a second, better adapted representative is used
in which every anisotropic pair of coordinates is replaced by a unipotent
block; the record below carries both representatives plus the index shift
data the component series needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import exactla as xla
from .cocycle import Mu8, m_xstar, word_lift
from .symplectic import IntegerSymplectic, _q0, _SymplecticRows, make_generator

MAX_RANK = 8


def q0_eval(v) -> int:
    """Q0(v) of outside input v; ValueError unless its entries are integers
    (the xla.as_int rule) and its length is even."""
    v = tuple(map(xla.as_int, v))
    if len(v) % 2:
        raise ValueError("Q0 needs a vector of even length 2m")
    return _q0(v)


def enumerate_isotropic(m: int) -> tuple:
    """All v in F2^{2m} with Q0(v) = 0, in lexicographic order.

    m follows the xla.as_int rule before the cache, so 2.0 and 2 share one
    tuple."""
    return _isotropic_vectors(xla.as_int_arg(m, "m"))


@lru_cache(maxsize=None)
def _isotropic_vectors(m: int) -> tuple:
    if not 1 <= m <= MAX_RANK:
        raise ValueError(f"supported ranks are 1..{MAX_RANK}")
    vs = tuple(v for v in product((0, 1), repeat=2 * m) if not _q0(v))
    assert len(vs) == 2 ** (2 * m - 1) + 2 ** (m - 1)
    return vs


def _isotropic(q) -> tuple:
    """q reduced mod 2; raises ValueError unless it is isotropic for Q0."""
    q = tuple(xla.as_int(x) % 2 for x in q)
    if q0_eval(q):
        raise ValueError("q must be isotropic")
    return q


def transvection_rep(q) -> IntegerSymplectic:
    """Integer matrix of v -> v + <v, q> q, for isotropic q = (x | x*).

    A transvection is symplectic for every q, so once q is checked the
    matrix is built without the full check, as symplectic._SymplecticRows."""
    q = _isotropic(q)
    m = len(q) // 2
    u = [q[m + i] for i in range(m)] + [-q[i] for i in range(m)]
    rows = [[(i == j) + u[i] * q[j] for j in range(2 * m)] for i in range(2 * m)]
    return IntegerSymplectic(_SymplecticRows(rows))


def coset_profile(g: IntegerSymplectic) -> tuple:
    """The isotropic q with Q0(v g^{-1}) = Q0(v) + <v, q> mod 2.

    q is the tuple of Q0 values of the 2m columns of g: q_i = diag(a^T c)_i
    and q*_i = diag(b^T d)_i mod 2.  This label is unchanged by left
    multiplication with the theta subgroup, so it indexes the cosets that
    carry the theta components.  Right multiplication by r moves it
    affinely, q(g r) = q(g) r + q(r) mod 2 with q a row vector; only for r
    in the theta subgroup, where q(r) = 0, is that the row action q -> q r.
    """
    q = tuple(map(_q0, zip(*g.rows)))
    assert not _q0(q), "profile of a symplectic matrix must be isotropic"
    return q


@lru_cache(maxsize=None)
def _label_index(m: int) -> dict:
    """Position of each isotropic label in enumerate_isotropic(m), which is
    also the coset_table(m) order."""
    return {q: k for k, q in enumerate(enumerate_isotropic(m))}


def coset_index_of(g: IntegerSymplectic) -> int:
    return _label_index(g.m)[coset_profile(g)]


# --- the anisotropic 4x4 block and its unipotent replacement ---

# u(-1) times the lower unipotent with c = all-ones.  The rank-2
# transvection of (1, 1, 1, 1) is an element of the theta subgroup times
# this block, so the coset representative keeps only the block.
_PAIR_BLOCK = ((0, -1, -1, 0), (-1, 0, 0, -1), (1, 1, 1, 0), (1, 1, 0, 1))


# The unipotent 2 x 2 blocks of refine_rep's single coordinates: upper for
# a component e_i*, lower for a component e_i.
_UPPER_BLOCK = ((1, 1), (0, 1))
_LOWER_BLOCK = ((1, 0), (-1, 1))


@lru_cache(maxsize=None)
def _factor(m: int, block: tuple, at) -> IntegerSymplectic:
    """A factor of refine_rep: the constant block embedded at coordinate i
    (a 2 x 2 block, at = i) or at the pair (j, k) (_PAIR_BLOCK, at = (j, k)).

    make_generator checks the block on every call, so each factor is made
    once per (m, block, at) and shared by every label that reads it."""
    if len(block) == 4:
        return make_generator("iota_pair", m, jk=at, g=block)
    return make_generator("iota", m, i=at, g=block)


@dataclass(frozen=True)
class CosetRecord:
    """One coset: its profile q, both representatives, and shift data.

    m_q and eps_q are the sign-shift and half-shift vectors of the
    component series: a coordinate carrying a single nonzero component of
    q sets one of them to 1, and each ascending consecutive pair of
    anisotropic coordinates sets both to -1.  m_xstar_q is the product of
    the factor normalizing constants.  kappa is the sign accumulated by
    multiplying the plus-lifts of the factors in the sign cover; the
    normalizing constant of the product matrix M itself is
    kappa * m_xstar_q, which can differ from m_xstar_q even though the
    factors live in disjoint coordinate blocks.
    """
    q: tuple
    M_prime: IntegerSymplectic
    M: IntegerSymplectic
    m_q: tuple
    eps_q: tuple
    m_xstar_q: Mu8
    kappa: int


def refine_rep(q) -> CosetRecord:
    q = _isotropic(q)
    m = len(q) // 2
    m_prime = transvection_rep(q)

    singles, aniso = [], []
    for i in range(1, m + 1):
        xi, xsi = q[i - 1], q[m + i - 1]
        if xi and xsi:
            aniso.append(i)
        elif xi or xsi:
            singles.append(i)
    assert len(aniso) % 2 == 0, "anisotropic support of isotropic q is even"
    pairs = [(aniso[2 * t], aniso[2 * t + 1]) for t in range(len(aniso) // 2)]

    factors = []
    m_q = [0] * m
    eps_q = [0] * m
    exp = 0
    for i in singles:
        if q[m + i - 1]:                         # component e_i*: upper block
            factors.append(_factor(m, _UPPER_BLOCK, i))
            m_q[i - 1] = 1
        else:                                    # component e_i: lower block
            factors.append(_factor(m, _LOWER_BLOCK, i))
            eps_q[i - 1] = 1
            exp += 1
    for (j, k) in pairs:
        factors.append(_factor(m, _PAIR_BLOCK, (j, k)))
        m_q[j - 1] = m_q[k - 1] = -1
        eps_q[j - 1] = eps_q[k - 1] = -1
        exp -= 1

    # the product starts at the first factor; the zero label has none
    lift = word_lift(factors or [IntegerSymplectic.identity(m)])
    mat, kappa = lift.g, lift.eps

    mm = Mu8(exp)
    assert m_xstar(mat) == (mm if kappa == 1 else mm * Mu8(4)), \
        "factor product and direct constant must agree up to the lift sign"
    idx = _label_index(m)[q]
    assert coset_index_of(m_prime) == idx == coset_index_of(mat), \
        "representatives landed in the wrong coset"
    return CosetRecord(q=q, M_prime=m_prime, M=mat, m_q=tuple(m_q),
                       eps_q=tuple(eps_q), m_xstar_q=mm, kappa=kappa)


def coset_table(m: int) -> tuple:
    """One CosetRecord per coset, ordered by the isotropic enumeration.

    m follows the xla.as_int rule before the cache, so 2.0 and 2 share one
    table."""
    return _coset_table(xla.as_int_arg(m, "m"))


@lru_cache(maxsize=None)
def _coset_table(m: int) -> tuple:
    return tuple(refine_rep(q) for q in enumerate_isotropic(m))
