"""Analytic layer: determinant branches, automorphy factors, theta sums.

Two determinant branches live here.  The Gaussian-integral branch
det^{-1/2} is defined by principal roots of eigenvalues (all of which
stay in the right half plane on our domain); from it we build the kernel
gamma(z', z) and the unimodular ratio epsilon(g; z', z).

The genuine square root of det(cz+d) on integer symplectic matrices is
pinned differently: the block-triangular factorization g = p1 w p2 gives
an exact value at the base point (the normalizing constant m_{X*}(g)
with both absorbed cocycle values reducing to signs because a factor
fixes the reference Lagrangian), and the only z-dependent piece, the
rank-block minor T of p2(z), has the closed-form root
e^{i pi j/4} / det^{-1/2}(-i T): Re(-i T) = Im T is positive definite,
so that branch is continuous from T = i.1.  Its square is det(cz+d) and
its composition defect is the sign cocycle of the cocycle module;
multiplying by m_{X*}(g) gives the half-weight factor whose defect is
the full degree-8 cocycle.

Theta sums are truncated box sums with a certified Gaussian tail bound;
summation order is fixed (sup-norm shells, lexicographic inside a shell)
so results are bit-identical run to run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import exactla as xla
from .cocycle import CoverElement, Mu8, PwsFactorization, pws_decompose
from .f2cosets import CosetRecord, coset_table
from .symplectic import IntegerSymplectic, SiegelPoint, j_matrix, mobius_act

__all__ = [
    "CapacityError",
    "ThetaParams",
    "ThetaComponentValue",
    "truncation_radius",
    "det_invsqrt",
    "gamma_pair",
    "epsilon_factor",
    "j_half",
    "sqrt_det",
    "j_half_bar",
    "j_three_half",
    "theta_series",
    "theta_component",
    "big_theta",
]


class CapacityError(RuntimeError):
    """The certified truncation radius exceeds the configured cap."""

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
    """Box radius R with sum_{|n|>R} e^{-pi n Y n^T} < tail_tol.

    R = ceil(sqrt(log(1/tol) / (pi * lambda_min(Y)))) + 2; the +2 margin
    also absorbs half-integral shifts of the lattice.
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


def epsilon_factor(g, z1: SiegelPoint, z2: SiegelPoint) -> complex:
    """gamma(g(z1), g(z2)) / gamma(z1, z2); unimodular."""
    return gamma_pair(mobius_act(g, z1), mobius_act(g, z2)) / gamma_pair(z1, z2)


def _half_factor(fac: PwsFactorization, z: SiegelPoint) -> complex:
    """m_{X*}(g) sqrt_det(g, z) from the factorization g = p1 omega p2.

    Equals |det a(p1) det a(p2)|^{-1/2} / det^{-1/2}(-i T), T the rank-j
    minor of p2(z) (1 when j = 0): Re(-i T) = Im T is positive definite,
    so the principal-root product is continuous from its value 1 at
    T = i.1.
    """
    m = len(fac.p1) // 2
    det1 = xla.det([row[:m] for row in fac.p1[:m]])
    det2 = xla.det([row[:m] for row in fac.p2[:m]])
    scale = float(abs(det1 * det2)) ** -0.5
    if fac.j == 0:
        return complex(scale)
    p2f = np.array([[float(x) for x in row] for row in fac.p2])
    idx = tuple(range(fac.j))
    t = mobius_act(p2f, z).z[np.ix_(idx, idx)]
    return scale / det_invsqrt(-1j * t)


def sqrt_det(g: IntegerSymplectic, z: SiegelPoint) -> complex:
    """Genuine square root of det(cz+d), branch fixed by exact bookkeeping.

    Writing g = p1 w p2 (p1, p2 block upper triangular, w the partial
    inversion of the rank j of the c block), det(cz+d) splits into the
    two constant triangular determinants and the rank-block minor T of
    p2(z), whose root is continued from det(i.1)^{1/2} = e^{i pi j/4}.
    In closed form, sqrt_det(g, z) = m_{X*}(g)^{-1}
    |det a(p1) det a(p2)|^{-1/2} / det^{-1/2}(-i T).  Satisfies
    sqrt_det(g, z)^2 = det(cz+d), and its composition defect is the sign
    cocycle.
    """
    fac = pws_decompose(g)
    return fac.m_xstar.inv().value * _half_factor(fac, z)


def j_half(g, z: SiegelPoint) -> complex:
    """Half-weight automorphy factor.

    On integer symplectic input this is m_{X*}(g) sqrt_det(g, z), the
    normalization whose composition defect is the degree-8 cocycle.  For
    real matrix input it falls back to the kernel-ratio form
    epsilon(g; z, z0) |det(cz+d)|^{1/2}; the two conventions agree on the
    anchor families (block upper triangular with positive diagonal block,
    and unitary fixed-point elements evaluated at z0).
    """
    if isinstance(g, IntegerSymplectic):
        return _half_factor(pws_decompose(g), z)
    z0 = SiegelPoint.z0(z.m)
    return epsilon_factor(g, z, z0) * abs(np.linalg.det(j_matrix(g, z))) ** 0.5


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
    pts = sorted(itertools.product(range(-radius, radius + 1), repeat=m),
                 key=lambda n: (max(abs(x) for x in n), n))
    arr = np.array(pts, dtype=np.int64)
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
        assert abs(abs(self.prefactor.value) - 1.0) < 1e-12


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


def big_theta(z: SiegelPoint, weight: str,
              params: ThetaParams | None = None) -> tuple:
    """All coset components in the fixed label order (plus lifts)."""
    return tuple(theta_component(rec, 1, z, weight, params)
                 for rec in coset_table(z.m))
