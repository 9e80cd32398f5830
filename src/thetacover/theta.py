"""Analytic layer: determinant branches, automorphy factors, theta sums.

Two determinant branches live here.  The Gaussian-integral branch
det^{-1/2} is defined by principal roots of eigenvalues (all of which
stay in the right half plane on our domain); from it we build the kernel
gamma(z', z).

The genuine square root of det(cz+d) on integer symplectic matrices is
pinned by the rank normal form P c Q = diag(1_j, 0) of the c block, the
form that also gives the normalizing constant m_{X*}(g).  It splits
det(cz+d) = det T / x(g) into the exact rational x(g) and the rank-j
minor T = (Q^{-1}[:j] z + P[:j] d) Q^{-1}[:j]^T, the only z-dependent
piece.  T has the closed-form root e^{i pi j/4} / det^{-1/2}(-i T):
Re(-i T) = Im T is positive definite, so that branch is continuous from
T = i.1.  Multiplied by m_{X*}(g)^{-1} |x(g)|^{-1/2}, its square is
det(cz+d) and its composition defect is the sign cocycle of the cocycle
module; without m_{X*}(g)^{-1} it is the half-weight factor whose defect
is the full degree-8 cocycle.

Theta sums are box sums over n in [-R, R]^m, R from ``truncation_radius``
(a heuristic radius, not a certified tail bound: see there).  Summation
order is fixed (sup-norm shells, lexicographic inside a shell), so results
are bit-identical run to run.  ``theta_component`` sums one component's
box; ``theta_vector`` gives every component at both weights from one pass
that evaluates each half shift once and recombines parity sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cocycle import CoverElement, Mu8, _rank_normal_form, m_xstar
# bound here only so that perfbench's tracer test can read theta.pws_decompose
from .cocycle import pws_decompose  # noqa: F401
from .f2cosets import CosetRecord, coset_table
from .symplectic import IntegerSymplectic, SiegelPoint, j_matrix

__all__ = [
    "CapacityError",
    "ThetaParams",
    "ThetaComponentValue",
    "truncation_radius",
    "det_invsqrt",
    "gamma_pair",
    "j_half",
    "sqrt_det",
    "j_half_bar",
    "j_three_half",
    "theta_series",
    "theta_component",
    "theta_vector",
    "big_theta",
]


class CapacityError(RuntimeError):
    """The truncation radius exceeds the configured cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(f"truncation radius {needed} exceeds cap {cap}")
        self.needed = needed
        self.cap = cap


@dataclass(frozen=True)
class ThetaParams:
    """Accuracy knobs for the truncated lattice sums."""

    tail_tol: float = 1e-12
    max_radius: int = 64

    def __post_init__(self):
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be positive")
        if self.max_radius < 1:
            raise ValueError("max_radius must be at least 1")


def truncation_radius(Y: np.ndarray, params: ThetaParams) -> int:
    """Box radius R = ceil(sqrt(log(1/tol) / (pi * lambda_min(Y)))) + 2.

    A heuristic, not a certified bound: the first term brings the Gaussian
    e^{-pi lambda_min R^2} of one point on the boundary down to tail_tol,
    and the +2 margin is meant to absorb the number of points per shell
    and half-integral shifts, which it does not always do.  At tail_tol
    1e-12, for Y = lambda_min 1 with a half shift and the smallest
    lambda_min mapped to R, the exact tail beyond the box is 3.3e-12 at
    m = 3, R = 32, and 2.4e-12, 4.4e-11 and 8.6e-9 at m = 4, R = 24, 32
    and 64.  Relative to the sum it stays below 5e-14.
    """
    lam = float(np.linalg.eigvalsh((Y + Y.T) / 2)[0])
    if lam <= 0:
        raise ValueError("Y must be positive definite")
    r = math.ceil(math.sqrt(math.log(1.0 / params.tail_tol) / (math.pi * lam))) + 2
    if r > params.max_radius:
        raise CapacityError(r, params.max_radius)
    return r


# --- determinant branch ---

def det_invsqrt(S) -> complex:
    """det^{-1/2}(S) for complex symmetric S with positive definite Re S.

    Equals the Gaussian integral of e^{-pi x S x^T} over R^m.  Computed as
    the product of principal inverse square roots of the eigenvalues; the
    numerical range of S lies in the right half plane, so no eigenvalue
    can cross the branch cut.
    """
    S = np.asarray(S, dtype=complex)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be square")
    scale = max(1.0, float(np.max(np.abs(S))))
    if np.max(np.abs(S - S.T)) > 1e-10 * scale:
        raise ValueError("S must be symmetric")
    re = (S.real + S.real.T) / 2
    if float(np.linalg.eigvalsh(re)[0]) <= 0:
        raise ValueError("Re S must be positive definite")
    eig = np.linalg.eigvals(S)
    return complex(np.prod(1.0 / np.sqrt(eig)))


def gamma_pair(z1: SiegelPoint, z2: SiegelPoint) -> complex:
    """det^{-1/2}((z1 - conj(z2))/2i) * det(Im z1)^{1/4} * det(Im z2)^{1/4}."""
    s = (z1.z - np.conj(z2.z)) / 2j
    return det_invsqrt(s) * float(np.linalg.det(z1.Y)) ** 0.25 \
        * float(np.linalg.det(z2.Y)) ** 0.25


def _half_factor(form: tuple, g: IntegerSymplectic, z: SiegelPoint) -> complex:
    """|x|^{-1/2} / det^{-1/2}(-i T) from the rank normal form (j, x, P, Q)
    of g, or |x|^{-1/2} when j = 0 (see ``sqrt_det``)."""
    if z.m != g.m:
        raise ValueError("dimension mismatch")
    j, x, p, q = form
    scale = float(abs(x)) ** -0.5
    if j == 0:
        return complex(scale)
    q_inv = np.linalg.inv(np.array(q, dtype=float))[:j]
    pd = np.array(p[:j], dtype=float) @ np.array(g.d, dtype=float)
    t = (q_inv @ z.z + pd) @ q_inv.T
    return scale / det_invsqrt(-1j * t)


def sqrt_det(g: IntegerSymplectic, z: SiegelPoint) -> complex:
    """Genuine square root of det(cz+d), branch fixed by exact bookkeeping.

    With P c Q = diag(1_j, 0) the rank normal form of the c block,
    det(cz+d) = det T / x(g) for the exact rational x(g) of ``m_xstar``
    and the rank-j minor T = (Q^{-1}[:j] z + P[:j] d) Q^{-1}[:j]^T, whose
    root is continued from det(i.1)^{1/2} = e^{i pi j/4}.  In closed form,
    sqrt_det(g, z) = m_{X*}(g)^{-1} |x(g)|^{-1/2} / det^{-1/2}(-i T).
    Satisfies sqrt_det(g, z)^2 = det(cz+d), and its composition defect is
    the sign cocycle.
    """
    return m_xstar(g).inv().value * j_half(g, z)


def j_half(g: IntegerSymplectic, z: SiegelPoint) -> complex:
    """Half-weight automorphy factor m_{X*}(g) sqrt_det(g, z).

    In closed form |x(g)|^{-1/2} / det^{-1/2}(-i T) (see ``sqrt_det``);
    its composition defect is the degree-8 cocycle.
    """
    return _half_factor(_rank_normal_form(g), g, z)


def j_half_bar(gbar: CoverElement, z: SiegelPoint) -> complex:
    """Automorphy factor of a sign-cover element; multiplicative on the cover."""
    return gbar.eps * sqrt_det(gbar.g, z)


def j_three_half(g, z: SiegelPoint) -> np.ndarray:
    """Matrix factor J_{1/2}(g, z) * (cz + d) for the weight-3/2 law."""
    return j_half(g, z) * j_matrix(g, z)


# --- lattice sums ---

@lru_cache(maxsize=None)
def _box_points(m: int, radius: int) -> np.ndarray:
    """Integer points of [-R, R]^m ordered by sup-norm shell, then lex."""
    side = 2 * radius + 1
    pts = np.indices((side,) * m, dtype=np.int64).reshape(m, -1).T - radius
    # np.indices lists the box in lex order; a stable sort by shell keeps it
    # inside each shell
    arr = pts[np.argsort(np.abs(pts).max(axis=1), kind="stable")]
    arr.setflags(write=False)
    return arr


def _weights(ns: np.ndarray, shift: np.ndarray, signs: np.ndarray,
             z: SiegelPoint) -> np.ndarray:
    v = ns.astype(float) + shift
    quad = np.einsum("ni,ij,nj->n", v, z.z, v)
    return signs * np.exp(1j * math.pi * quad)


def theta_series(z: SiegelPoint, weight: str, params: ThetaParams | None = None):
    """Plain theta sum over Z^m.

    weight "half": sum of e^{i pi n z n^T} (scalar).
    weight "three_half": sum of n^T e^{i pi n z n^T} (m-vector; identically
    zero by the n <-> -n symmetry, kept as an honest computation).
    """
    params = params or ThetaParams()
    r = truncation_radius(z.Y, params)
    ns = _box_points(z.m, r)
    w = _weights(ns, np.zeros(z.m), np.ones(len(ns)), z)
    if weight == "half":
        return complex(np.sum(w))
    if weight == "three_half":
        return ns.astype(float).T @ w
    raise ValueError(f"unknown weight {weight!r}")


@dataclass(frozen=True)
class ThetaComponentValue:
    """One entry of the theta vector.

    value carries the unimodular prefactor already; prefactor records it
    separately.  With the standard plus lift of every representative
    factor, the prefactor is the lift sign itself: the product of the
    factor constants cancels against the normalizing constant attached
    to the label.
    """

    q: tuple
    value: object
    prefactor: Mu8

    def __post_init__(self):
        if not isinstance(self.prefactor, Mu8):
            raise ValueError("prefactor must be an eighth root of unity (Mu8)")


def theta_component(rec: CosetRecord, lift_sign: int, z: SiegelPoint,
                    weight: str, params: ThetaParams | None = None) -> ThetaComponentValue:
    """Sign-twisted, half-shifted theta sum attached to one coset label.

    Computes prefactor * sum (-1)^{m_q . n} e^{i pi (n + eps_q/2) z (n + eps_q/2)^T}
    (weight "three_half" inserts the moment vector (n + eps_q/2)^T).
    """
    if lift_sign not in (1, -1):
        raise ValueError("lift_sign must be +1 or -1")
    params = params or ThetaParams()
    if z.m != rec.M.m:
        raise ValueError("dimension mismatch")
    r = truncation_radius(z.Y, params)
    ns = _box_points(z.m, r)
    signs = 1.0 - 2.0 * (np.abs(ns @ np.array(rec.m_q, dtype=np.int64)) % 2)
    shift = np.array(rec.eps_q, dtype=float) / 2
    w = _weights(ns, shift, signs, z)
    prefactor = Mu8(0) if lift_sign == 1 else Mu8(4)
    if weight == "half":
        value = prefactor.value * complex(np.sum(w))
    elif weight == "three_half":
        value = prefactor.value * ((ns.astype(float) + shift).T @ w)
    else:
        raise ValueError(f"unknown weight {weight!r}")
    return ThetaComponentValue(q=rec.q, value=value, prefactor=prefactor)


@dataclass(frozen=True)
class _ShiftClass:
    """The components of coset_table(m) whose half shift is +-shift.

    Component rows[k] is signs[k] @ (parity sums of E) at weight 1/2 and
    flips[k] * signs[k] @ (parity sums of v E) at weight 3/2, where
    signs[k, p] = (-1)^{m_q . n} on the parity class p of n, and flips[k]
    is -1 when eps_q = -2 shift: that box is the negated box of shift, and
    E(-v) = E(v).
    """

    shift: np.ndarray
    rows: np.ndarray
    signs: np.ndarray
    flips: np.ndarray


@lru_cache(maxsize=None)
def _shift_classes(m: int) -> tuple:
    """coset_table(m) grouped by the half shift eps_q up to sign."""
    table = coset_table(m)
    groups: dict = {}
    for k, rec in enumerate(table):
        key = max(rec.eps_q, tuple(-e for e in rec.eps_q))
        groups.setdefault(key, []).append(k)
    # row p: n mod 2 on parity class p, first coordinate the high bit
    bits = (np.arange(2 ** m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    classes = []
    for key, rows in groups.items():
        m_q = np.array([table[k].m_q for k in rows]) % 2
        cls = _ShiftClass(
            shift=np.array(key, dtype=float) / 2,
            rows=np.array(rows),
            signs=1.0 - 2.0 * ((m_q @ bits.T) % 2),
            flips=np.array([1.0 if table[k].eps_q == key else -1.0
                            for k in rows]))
        for arr in (cls.shift, cls.rows, cls.signs, cls.flips):
            arr.setflags(write=False)
        classes.append(cls)
    return tuple(classes)


def theta_vector(z: SiegelPoint, params: ThetaParams | None = None) -> tuple:
    """Every component at both weights, from one pass over the lattice.

    Returns (half, three_half), arrays of shape (N,) and (N, m) in
    coset_table(m) order with the plus lift: half[k] and three_half[k]
    are theta_component(coset_table(m)[k], 1, z, weight, params).value up
    to rounding, on the same points (n + eps_q/2, n in [-R, R]^m).  The
    labels fall into a few classes of shifts +-eps/2; per class,
    E(v) = e^{i pi v z v^T} and v E(v) are evaluated once on the box and
    summed per parity class of n, and each component is a +-1 combination
    of those 2^m sums (see _ShiftClass).
    """
    params = params or ThetaParams()
    m = z.m
    ns = _box_points(m, truncation_radius(z.Y, params))
    parity = (ns & 1) @ (1 << np.arange(m - 1, -1, -1))
    order = np.argsort(parity, kind="stable")
    # parity class p is the run runs[p]:runs[p + 1] of the sorted points
    runs = np.searchsorted(parity[order], np.arange(2 ** m + 1))
    n = ns[order]
    cols = np.empty((len(n), m + 1))             # the row (1, v) per point
    cols[:, 0] = 1.0
    v = cols[:, 1:]
    # i pi v z v^T = -pi v Y v^T + i pi v X v^T, in real arithmetic
    exponent = np.empty(len(n), dtype=complex)
    re_form, im_form = -math.pi * z.Y, math.pi * z.X
    size = len(coset_table(m))
    half = np.zeros(size, dtype=complex)
    three_half = np.zeros((size, m), dtype=complex)
    for cls in _shift_classes(m):
        np.add(n, cls.shift, out=v)
        exponent.real = np.einsum("ij,ij->i", v @ re_form, v)
        exponent.imag = np.einsum("ij,ij->i", v @ im_form, v)
        e = np.exp(exponent).view(float).reshape(-1, 2)     # (Re E, Im E)
        # per parity class, (1, v)^T E: the sums of E and of v E
        sums = np.array([cols[lo:hi].T @ e[lo:hi]
                         for lo, hi in zip(runs[:-1], runs[1:])])
        sums = sums[..., 0] + 1j * sums[..., 1]
        half[cls.rows] = cls.signs @ sums[:, 0]
        three_half[cls.rows] = cls.flips[:, None] * (cls.signs @ sums[:, 1:])
    return half, three_half


def big_theta(z: SiegelPoint, weight: str,
              params: ThetaParams | None = None) -> tuple:
    """All coset components in the fixed label order (plus lifts).

    Read off theta_vector; theta_component is the per-component oracle.
    """
    if weight not in ("half", "three_half"):
        raise ValueError(f"unknown weight {weight!r}")
    half, three_half = theta_vector(z, params)
    values = half if weight == "half" else three_half
    return tuple(ThetaComponentValue(q=rec.q, value=value, prefactor=Mu8(0))
                 for rec, value in zip(coset_table(z.m), values))
