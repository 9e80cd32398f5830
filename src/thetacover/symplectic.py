"""Integer and floating-point symplectic matrix algebra.

Conventions: the group acts on row vectors w = (x | x*) by w -> w.g, matrices
are written in m x m blocks (a b; c d), and membership is the exact identity
g^T J g = J with J = (0 -1; 1 0).  The Siegel half space carries the action
g(z) = (az + b)(cz + d)^{-1} with base point z0 = i.1_m.

The constructor IntegerSymplectic(rows) is the only way to make an
element.  It checks g^T J g = J on rows from outside.  Rows symplectic by
construction (generators, whose kind checks its own parameters, the
identity and transvections) or by closure (products and inverses) enter
it as _SymplecticRows, unchecked.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from functools import lru_cache, reduce

import numpy as np

from . import exactla as xla


def _j_blocks(m: int) -> list[list[int]]:
    """J = (0 -1; 1 0); its negative is the Gram matrix of the form."""
    j = xla.zeros(2 * m, 2 * m)
    for i in range(m):
        j[i][m + i] = -1
        j[m + i][i] = 1
    return j


def _exact_symplectic(rows) -> bool:
    """g^T J g == J in exact arithmetic; rows must be even and square."""
    n = len(rows)
    if not n or n % 2 or any(len(r) != n for r in rows):
        raise ValueError("need an even-dimensional square matrix")
    j = _j_blocks(n // 2)
    return xla.mat_eq(xla.mat_mul(xla.mat_mul(xla.transpose(rows), j), rows), j)


class IntegerSymplectic:
    """Immutable 2m x 2m integer matrix with g^T J g = J exactly.

    Every element, products and inverses included, is made by this
    constructor: it checks the identity on rows from outside and takes
    _SymplecticRows unchecked (see the module docstring).
    """

    __slots__ = ("m", "rows", "_blocks", "_float")

    def __init__(self, rows):
        if type(rows) is _SymplecticRows:
            if not rows:                   # a genus below 1
                raise ValueError("need an even-dimensional square matrix")
            rows = tuple(map(tuple, rows))
        else:
            rows = tuple(tuple(map(xla.as_int, row)) for row in rows)
            if not _exact_symplectic(rows):
                raise ValueError("matrix is not symplectic")
        object.__setattr__(self, "m", len(rows) // 2)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("IntegerSymplectic is immutable")

    # -- block access: the four m x m blocks, tuples of row tuples, built
    # together on first access and kept --
    def _quarters(self) -> tuple:
        try:
            return self._blocks
        except AttributeError:
            m, rows = self.m, self.rows
            blocks = tuple(tuple(row[c0:c0 + m] for row in rows[r0:r0 + m])
                           for r0 in (0, m) for c0 in (0, m))
            object.__setattr__(self, "_blocks", blocks)
            return blocks

    @property
    def a(self):
        return self._quarters()[0]

    @property
    def b(self):
        return self._quarters()[1]

    @property
    def c(self):
        return self._quarters()[2]

    @property
    def d(self):
        return self._quarters()[3]

    def __matmul__(self, other: "IntegerSymplectic") -> "IntegerSymplectic":
        if self.m != other.m:
            raise ValueError("genus mismatch")
        return IntegerSymplectic(_SymplecticRows(xla.mat_mul(self.rows, other.rows)))

    def inverse(self) -> "IntegerSymplectic":
        # g^{-1} = (d^T -b^T; -c^T a^T), an exact consequence of g^T J g = J
        m = self.m
        cols = list(zip(*self.rows))
        rows = [cols[m + i][m:] + tuple(-x for x in cols[m + i][:m]) for i in range(m)]
        rows += [tuple(-x for x in cols[i][m:]) + cols[i][:m] for i in range(m)]
        return IntegerSymplectic(_SymplecticRows(rows))

    # -- the rows as floats: read-only, built on first use and kept; the
    # float layer (_as_float) reads this, to_float hands out a copy --
    def _floats(self) -> np.ndarray:
        try:
            return self._float
        except AttributeError:
            arr = np.array(self.rows, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, "_float", arr)
            return arr

    def to_float(self) -> np.ndarray:
        return self._floats().copy()

    def __eq__(self, other):
        return isinstance(other, IntegerSymplectic) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IntegerSymplectic({[list(r) for r in self.rows]})"

    @classmethod
    def identity(cls, m: int) -> "IntegerSymplectic":
        return cls(_SymplecticRows(xla.identity(2 * xla.as_int_arg(m, "m"))))


class _SymplecticRows(tuple):
    """Int rows symplectic by construction (from checked parameters) or by
    closure (a product or an inverse), which the one constructor
    IntegerSymplectic takes without its check; never outside input."""

    __slots__ = ()


# --- generators ---

def _int_square(mat, n: int, name: str) -> list[list[int]]:
    """mat as n x n rows of xla.as_int; ValueError for any other shape."""
    rows = [list(map(xla.as_int, row)) for row in mat]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"{name} must be {n} x {n}")
    return rows


def _check_indices(m: int, *indices) -> tuple:
    """The 1-based indices as ints, by the xla.as_int rule; ValueError
    unless each lies in 1..m."""
    indices = tuple(xla.as_int_arg(i, "index") for i in indices)
    if not all(1 <= i <= m for i in indices):
        raise ValueError(f"indices {indices} must lie in 1..{m}")
    return indices


def _assemble(a, b, c, d) -> IntegerSymplectic:
    """(a b; c d) from m x m int blocks that make it symplectic."""
    return IntegerSymplectic(_SymplecticRows(xla.from_blocks([[a, b], [c, d]])))


def make_generator(kind: str, m: int, **params) -> IntegerSymplectic:
    """Standard generators and embeddings, all exactly integral.

    Kinds: u (b symmetric), u_minus (c symmetric), h (a in GL_m(Z)),
    omega, omega_S (S subset of 1..m), u_ij / u_minus_ij (t, i=j allowed),
    v_ij (i != j), iota (2x2 block at index i), iota_pair (4x4 block at
    indices (j, k)).  Indices are 1-based as in the classical notation, and
    any index outside 1..m raises ValueError.  m and the indices follow the
    xla.as_int rule.  A kind checks only its parameters (a symmetric b or c,
    a unimodular a, indices in range, a symplectic block), which make it
    symplectic, and is built as _SymplecticRows, by one block assembly
    (a b; c d) or one coordinate embedding.
    """
    m = xla.as_int_arg(m, "m")
    one = xla.identity(m)
    zero = xla.zeros(m, m)
    if kind == "u":
        b = _int_square(params["b"], m, "b")
        if not xla.is_symmetric(b):
            raise ValueError("u(b) needs symmetric b")
        return _assemble(one, b, zero, one)
    if kind == "u_minus":
        c = _int_square(params["c"], m, "c")
        if not xla.is_symmetric(c):
            raise ValueError("u_minus(c) needs symmetric c")
        return _assemble(one, zero, c, one)
    if kind == "h":                          # (a 0; 0 a^-T)
        a = _int_square(params["a"], m, "a")
        det, adj = xla._adjugate(a)
        if det not in (1, -1):
            raise ValueError("h(a) needs unimodular a")
        d = [[det * x for x in col] for col in zip(*adj)]  # a^-1 = det a adj a
        return _assemble(a, zero, zero, d)
    if kind in ("u_ij", "u_minus_ij"):       # s = t(E_ij + E_ji), or tE_ii
        i, j = _check_indices(m, params["i"], params["j"])
        s = xla.zeros(m, m)
        s[i - 1][j - 1] = s[j - 1][i - 1] = xla.as_int(params.get("t", 1))
        if kind == "u_ij":
            return _assemble(one, s, zero, one)
        return _assemble(one, zero, xla.mat_neg(s), one)
    if kind == "v_ij":                       # (1 + tE_ij, 0; 0, 1 - tE_ji)
        i, j = _check_indices(m, params["i"], params["j"])
        t = xla.as_int(params.get("t", 1))
        if i == j:
            raise ValueError("v_ij needs i != j")
        a, d = xla.identity(m), xla.identity(m)
        a[i - 1][j - 1], d[j - 1][i - 1] = t, -t
        return _assemble(a, zero, zero, d)
    if kind in ("omega", "omega_S"):         # e_i -> -e_i*, e_i* -> e_i on S
        support = (set(range(1, m + 1)) if kind == "omega"
                   else set(_check_indices(m, *params["S"])))
        x = [[int(r == c and r + 1 in support) for c in range(m)]
             for r in range(m)]
        rest = xla.mat_add(one, xla.mat_neg(x))
        return _assemble(rest, xla.mat_neg(x), x, rest)
    if kind == "iota":
        (i,) = _check_indices(m, params["i"])
        idx = [i - 1, m + i - 1]
    elif kind == "iota_pair":
        j, k = _check_indices(m, *params["jk"])
        if j == k:
            raise ValueError("iota_pair needs distinct indices")
        idx = [j - 1, k - 1, m + j - 1, m + k - 1]
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    block = _int_square(params["g"], len(idx), "g")
    if not _exact_symplectic(block):
        raise ValueError("matrix is not symplectic")
    # J restricted to the coordinates idx is the block's own J
    rows = xla.identity(2 * m)
    for r, block_row in zip(idx, block):
        for s, x in zip(idx, block_row):
            rows[r][s] = x
    return IntegerSymplectic(_SymplecticRows(rows))


# --- congruence subgroups ---

def _q0(v) -> int:
    """Q0(x | x*) = sum of x_i x*_i mod 2, for int v = (x | x*) of length 2m."""
    m = len(v) // 2
    return sum(map(operator.mul, v[:m], v[m:])) % 2


def _subgroup(which: str) -> tuple[str, int]:
    """Parse a subgroup name into (family, d): one spelling, one group.

    Brackets, commas and spaces are dropped, so "Gamma(1,2)", "Gamma1_2"
    and "Gamma12" all name the theta group Gamma(1,2).  "Sp", "SpZ" name
    the whole group, "Gamma<d>" the level-d group Gamma(d) and
    "Gamma<d>_<2d>" (d even) the group Gamma(d, 2d).  A name that is not a
    str is refused before the cache would hash it.
    """
    if not isinstance(which, str):
        raise ValueError(f"unknown subgroup {which!r}")
    return _parse_subgroup(which)


@lru_cache(maxsize=64)
def _parse_subgroup(which: str) -> tuple[str, int]:
    """_subgroup's parse, cached, so the per-element callers pay one
    dictionary lookup."""
    name = which.replace("(", "").replace(")", "").replace(",", "_").replace(" ", "")
    if name in ("Sp", "SpZ"):
        return "Sp", 1
    if name in ("Gamma12", "Gamma1_2"):
        return "Gamma(1,2)", 1
    parts = name[len("Gamma"):].split("_") if name.startswith("Gamma") else []
    if parts and all(p.isdigit() for p in parts) and int(parts[0]) > 0:
        d = int(parts[0])
        if len(parts) == 1:
            return "Gamma(d)", d
        if len(parts) == 2 and d % 2 == 0 and int(parts[1]) == 2 * d:
            return "Gamma(d,2d)", d
    raise ValueError(f"unknown subgroup {which!r}")


def subgroup_membership(g: IntegerSymplectic, which: str) -> bool:
    """Membership predicates for Sp, Gamma(1,2), Gamma(d), Gamma(d,2d).

    Gamma(1,2) is the orthogonal group of Q0(x | x*) = sum x_i x*_i mod 2
    under the row action: g preserves Q0 exactly when Q0 vanishes on every
    row of g, i.e. diag(a b^T) and diag(c d^T) are even.  (The
    diag(a c^T)/diag(b d^T) variant is not closed under products;
    u_12(1) h(1 + e_12) is a counterexample at m = 2.)
    Gamma(d) is g = 1 mod d; Gamma(d,2d) additionally has the (i, m+i) and
    (m+i, i) entries of (g - 1)/d even.  Names are parsed by _subgroup.
    """
    family, d = _subgroup(which)
    if family == "Sp":
        return True
    if family == "Gamma(1,2)":
        return not any(map(_q0, g.rows))
    n = 2 * g.m
    diff = [[g.rows[i][j] - (i == j) for j in range(n)] for i in range(n)]
    if any(x % d for row in diff for x in row):
        return False
    if family == "Gamma(d)":
        return True
    m = g.m
    return all(diff[m + i][i] // d % 2 == 0 and diff[i][m + i] // d % 2 == 0
               for i in range(m))


# --- Siegel upper half space ---

class SiegelPoint:
    """z = X + iY with X, Y real symmetric and Y positive definite.

    Immutable, so whatever is computed from the point alone is formed once
    and kept on it: z, the read-only X + iY, is formed here, and so is the
    one eigendecomposition _spectrum_of(Y), which _spectrum() returns.  Its
    lambda_min decides "Y must be positive definite" at every m, so a point
    pays no Cholesky test besides; at m <= 2 it is a closed form and from
    m = 3 on one numpy.linalg.eigh.  _theta and _crops, maps
    from ThetaParams that start empty, are filled by the theta module with
    the read-only (half, three_half) of theta.theta_vector at the point and
    with the sizing of its pass (theta._crop).
    """

    __slots__ = ("m", "X", "Y", "z", "_eig", "_theta", "_crops")

    def __init__(self, X, Y):
        X, Y = _real_array(X, "X"), _real_array(Y, "Y")
        if X.shape != Y.shape or X.ndim != 2 or X.shape[0] != X.shape[1] or not X.size:
            raise ValueError("X and Y must be square matrices of one size, at least 1 x 1")
        # before the residuals, in which an infinite entry would make numpy
        # warn (inf - inf)
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise ValueError("X and Y must be finite")
        for name, A in (("X", X), ("Y", Y)):
            if not abs(A - A.T).max() < 1e-12:
                raise ValueError(f"{name} must be symmetric")
        spectrum = _spectrum_of(Y)
        if not spectrum[0][0] > 0:
            raise ValueError("Y must be positive definite")
        z = X + 1j * Y
        for arr in (X, Y, z):
            arr.setflags(write=False)
        object.__setattr__(self, "m", X.shape[0])
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "_eig", spectrum)
        object.__setattr__(self, "_theta", {})
        object.__setattr__(self, "_crops", {})

    def __setattr__(self, *a):
        raise AttributeError("SiegelPoint is immutable")

    def _spectrum(self) -> tuple:
        """(lam, V) = _spectrum_of(Y), formed and kept by the constructor."""
        return self._eig

    @classmethod
    def z0(cls, m: int) -> "SiegelPoint":
        """The base point i.1_m, built and validated once per genus; m
        follows the xla.as_int rule before the cache, so z0(2.0) is z0(2)."""
        return _z0(xla.as_int_arg(m, "m"))

    def __repr__(self):
        return f"SiegelPoint(X={self.X.tolist()}, Y={self.Y.tolist()})"


def _spectrum_of(Y: np.ndarray) -> tuple:
    """(lam, V), read-only, with (Y + Y^T) / 2 = V diag(lam) V^T and lam
    ascending: the one eigendecomposition that decides a point's positive
    definiteness and sizes its lattice sums (the radius, the pass's crop)
    and sample_point's cond(Y).  In closed form at n <= 2
    (_spectrum_2x2), numpy.linalg.eigh from n = 3 on."""
    n = len(Y)
    if n > 2:
        spectrum = np.linalg.eigh((Y + Y.T) / 2)
    elif n == 2:
        lam, vec = _spectrum_2x2(*Y.tolist())
        spectrum = np.array(lam), np.array(vec)
    else:
        spectrum = np.array(Y[0], dtype=float), np.ones((1, 1))
    for arr in spectrum:
        arr.setflags(write=False)
    return spectrum


# --- the float layer's kernels at n <= 2 ---
#
# On a 1 x 1 or 2 x 2 matrix numpy.linalg spends microseconds on dispatch
# for a handful of flops.  There the float layer takes the closed forms
# below, on Python scalars; from n = 3 on it calls numpy.linalg, which is
# also the tests' oracle for them.  The size alone picks the path.  Their
# error bounds are the textbook ones for these formulas (Higham, Accuracy
# and Stability of Numerical Algorithms, 2nd ed.).

def _det(a: np.ndarray):
    """det a of a square float or complex array: the entry at n = 1, ps - qr
    at n = 2, numpy.linalg.det from n = 3 on."""
    if len(a) > 2:
        return np.linalg.det(a)
    rows = a.tolist()
    if len(rows) == 1:
        return rows[0][0]
    (p, q), (r, s) = rows
    return p * s - q * r


def _spectrum_2x2(row0: list, row1: list) -> tuple:
    """([lam_min, lam_max], V) of S = (Y + Y^T) / 2 for the 2 x 2 Y with
    rows row0, row1, as lists: V's columns are unit eigenvectors of lam_min
    and lam_max.

    With S = (p b; b s), mean = (p + s) / 2, h = (p - s) / 2 and
    rad = hypot(h, b), the roots are mean -+ rad.  The one of larger
    modulus, mean + sign(mean) rad, is formed without cancellation, and the
    other as det S / it = (p / big) s - (b / big) b, so each is within a
    few ulps of ||S|| of its exact value.  (h + rad, b), or (b, rad - h)
    when h < 0, is the eigenvector of mean + rad without cancellation; its
    rotation by a right angle is the other.  S = mean 1 (rad = 0) takes
    V = 1, as any orthonormal V would do.
    """
    (p, q), (r, s) = row0, row1
    b = (q + r) / 2
    mean, h = (p + s) / 2, (p - s) / 2
    rad = math.hypot(h, b)
    big = mean + rad if mean >= 0 else mean - rad
    small = (p / big) * s - (b / big) * b if big else 0.0
    lam = [small, big] if mean >= 0 else [big, small]
    if not rad:
        return lam, [[1.0, 0.0], [0.0, 1.0]]
    u, v = (h + rad, b) if h >= 0 else (b, rad - h)
    norm = math.hypot(u, v)
    u, v = u / norm, v / norm
    return lam, [[-v, u], [u, v]]


def _mobius_2x2(rows: list, z: list) -> list:
    """(az + b)(cz + d)^{-1} at m = 2, symmetrized, from g's float rows and
    z's complex rows as lists: the inverse of J = cz + d is adj(J) / det J
    (Cramer's rule, forward stable at 2 x 2).  ValueError when det J is not
    finite or |det J| < 1e-12, as _mobius refuses at every m."""
    (a00, a01, b00, b01), (a10, a11, b10, b11), \
        (c00, c01, d00, d01), (c10, c11, d10, d11) = rows
    (z00, z01), (z10, z11) = z
    j00 = c00 * z00 + c01 * z10 + d00
    j01 = c00 * z01 + c01 * z11 + d01
    j10 = c10 * z00 + c11 * z10 + d10
    j11 = c10 * z01 + c11 * z11 + d11
    det = j00 * j11 - j01 * j10
    if not cmath.isfinite(det):
        raise ValueError("det(cz + d) overflows")
    if abs(det) < 1e-12:
        raise ValueError("cz + d numerically singular")
    i00, i01, i10, i11 = j11 / det, -j01 / det, -j10 / det, j00 / det
    n00 = a00 * z00 + a01 * z10 + b00
    n01 = a00 * z01 + a01 * z11 + b01
    n10 = a10 * z00 + a11 * z10 + b10
    n11 = a10 * z01 + a11 * z11 + b11
    off = (n00 * i01 + n01 * i11 + n10 * i00 + n11 * i10) / 2
    return [[n00 * i00 + n01 * i10, off], [off, n10 * i01 + n11 * i11]]


def _real_array(A, name: str) -> np.ndarray:
    """A fresh float copy of A; ValueError for complex entries, which a
    float conversion would refuse or drop with a warning."""
    try:
        A = np.asarray(A)
        if A.dtype.kind != "c":
            return np.array(A, dtype=float)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be a real matrix")


# A few genera per run; the bound keeps a sweep over m from growing it.
@lru_cache(maxsize=16)
def _z0(m: int) -> SiegelPoint:
    return SiegelPoint(np.zeros((m, m)), np.eye(m))


def _as_float(g, m: int) -> np.ndarray:
    """g as a float array; ValueError unless it is 2m x 2m and finite, the
    latter before any arithmetic, in which numpy would warn on inf or nan."""
    exact = isinstance(g, IntegerSymplectic)
    arr = g._floats() if exact else np.asarray(g, dtype=float)
    if arr.shape != (2 * m, 2 * m):
        raise ValueError("dimension mismatch")
    if not (exact or np.isfinite(arr).all()):
        raise ValueError("g must be finite")
    return arr


def j_matrix(g, z: SiegelPoint) -> np.ndarray:
    """The automorphy cofactor J(g, z) = cz + d."""
    m = z.m
    arr = _as_float(g, m)
    c, d = arr[m:, :m], arr[m:, m:]
    return c @ z.z + d


def _mobius(g, z: SiegelPoint) -> np.ndarray:
    """g(z) = (az + b)(cz + d)^{-1} as a complex array, symmetrized;
    ValueError when |det(cz + d)| < 1e-12 ("cz + d numerically singular"),
    and from m = 2 on when det(cz + d) is not finite ("det(cz + d)
    overflows"), before numpy could warn on it.

    In closed form on Python scalars at m <= 2 (_mobius_2x2; one division
    at m = 1), by numpy.linalg's det and inv from m = 3 on.  m = 1 forms
    no determinant: its one division is refused only when cz + d is
    numerically 0, and an image whose Y underflows to a subnormal is
    returned as it is.
    """
    m = z.m
    arr = _as_float(g, m)
    if m == 2:
        return np.array(_mobius_2x2(arr.tolist(), z.z.tolist()))
    if m == 1:
        (a, b), (c, d) = arr.tolist()
        zz = complex(z.z[0, 0])
        jm = c * zz + d
        if abs(jm) < 1e-12:
            raise ValueError("cz + d numerically singular")
        return np.array([[(a * zz + b) / jm]])
    a, b = arr[:m, :m], arr[:m, m:]
    jm = j_matrix(arr, z)
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(jm)
    if not cmath.isfinite(det):
        raise ValueError("det(cz + d) overflows")
    if abs(det) < 1e-12:
        raise ValueError("cz + d numerically singular")
    w = (a @ z.z + b) @ np.linalg.inv(jm)
    return (w + w.T) / 2                   # symmetrize away roundoff


def mobius_act(g, z: SiegelPoint) -> SiegelPoint:
    """g(z) = (az + b)(cz + d)^{-1}; stays in the Siegel half space."""
    w = _mobius(g, z)
    return SiegelPoint(w.real, w.imag)


# --- random words ---

@lru_cache(maxsize=None)
def _alphabet(m: int, family: tuple) -> tuple:
    """(kind, params, element) per letter of a word sampler, each built
    once, from checked parameters, as make_generator(kind, m, **params)."""
    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1) if i < j]
    out = []
    if family in (("Sp", 1), ("Gamma(1,2)", 1)):
        out.append(("omega_S", {"S": frozenset(range(1, m + 1))}))
        step = 2 if family[0] == "Gamma(1,2)" else 1
        for i in range(1, m + 1):          # u with even diagonal inside Gamma(1,2)
            out.append(("u_ij", {"i": i, "j": i, "t": step}))
            out.append(("u_ij", {"i": i, "j": i, "t": -step}))
        for i, j in pairs:
            out.append(("u_ij", {"i": i, "j": j, "t": 1}))
            out.append(("u_ij", {"i": i, "j": j, "t": -1}))
        for i, j in pairs:
            out.append(("v_ij", {"i": i, "j": j, "t": 1}))
            out.append(("v_ij", {"i": i, "j": j, "t": -1}))
    elif family == ("Gamma(d)", 2):
        out.append(("h", {"a": tuple(tuple(-(i == j) for j in range(m))
                                     for i in range(m))}))
        for i in range(1, m + 1):
            for kind in ("u_ij", "u_minus_ij"):
                out.append((kind, {"i": i, "j": i, "t": 2}))
                out.append((kind, {"i": i, "j": i, "t": -2}))
        for i, j in pairs:
            for kind in ("u_ij", "u_minus_ij"):
                out.append((kind, {"i": i, "j": j, "t": 2}))
            out.append(("v_ij", {"i": i, "j": j, "t": 2}))
    else:
        raise ValueError(f"no word sampler for {family[0]} with d = {family[1]}")
    return tuple((kind, params, make_generator(kind, m, **params))
                 for kind, params in out)


def _draw_word(m: int, subgroup: str, length: int, seed: int) -> list:
    """The length (kind, params, letter) entries of the subgroup's alphabet
    drawn by random.Random(seed); m, length and seed follow the xla.as_int
    rule, and length must be at least 0."""
    m, length = xla.as_int_arg(m, "m"), xla.as_int_arg(length, "length")
    if length < 0:
        raise ValueError(f"word length must be >= 0, got {length}")
    alphabet = _alphabet(m, _subgroup(subgroup))
    rng = random.Random(xla.as_int_arg(seed, "seed"))
    return [rng.choice(alphabet) for _ in range(length)]


def random_word_element(m: int, subgroup: str, length: int, seed: int):
    """Seeded random product of generators of the requested subgroup.

    Returns (element, word) where word is the list of (kind, params) letters.
    Membership is by construction; the caller can re-check via
    subgroup_membership since the predicates are independent of the sampler.
    Samplers exist for Sp, Gamma(1,2) and Gamma(2), spelled as _subgroup
    reads them.
    """
    entries = _draw_word(m, subgroup, length, seed)
    # formed from the first letter on; the identity for an empty word
    g = (reduce(operator.matmul, (letter for *_, letter in entries)) if entries
         else IntegerSymplectic.identity(m))
    return g, [(kind, dict(params)) for kind, params, _ in entries]
