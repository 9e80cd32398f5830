"""Integer and floating-point symplectic matrix algebra.

Conventions: the group acts on row vectors w = (x | x*) by w -> w.g, matrices
are written in m x m blocks (a b; c d), and membership is the exact identity
g^T J g = J with J = (0 -1; 1 0).  The Siegel half space carries the action
g(z) = (az + b)(cz + d)^{-1} with base point z0 = i.1_m.

Validation happens where matrices enter: IntegerSymplectic(rows) and
make_generator raise ValueError on bad input.  Products and inverses of
validated elements are symplectic by closure, so @ and inverse() build them
unchecked, through _trusted.
"""

from __future__ import annotations

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

    The constructor checks the identity; @ and inverse() need not (see the
    module docstring).
    """

    __slots__ = ("m", "rows", "_blocks")

    def __init__(self, rows):
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
        return _trusted(tuple(map(tuple, xla.mat_mul(self.rows, other.rows))))

    def inverse(self) -> "IntegerSymplectic":
        # g^{-1} = (d^T -b^T; -c^T a^T), an exact consequence of g^T J g = J
        m = self.m
        cols = list(zip(*self.rows))
        rows = [cols[m + i][m:] + tuple(-x for x in cols[m + i][:m]) for i in range(m)]
        rows += [tuple(-x for x in cols[i][m:]) + cols[i][:m] for i in range(m)]
        return _trusted(tuple(rows))

    def to_float(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)

    def __eq__(self, other):
        return isinstance(other, IntegerSymplectic) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IntegerSymplectic({[list(r) for r in self.rows]})"

    @classmethod
    def identity(cls, m: int) -> "IntegerSymplectic":
        return cls(xla.identity(2 * xla.as_int_arg(m, "m")))


def _trusted(rows: tuple) -> IntegerSymplectic:
    """Unchecked IntegerSymplectic from int row tuples known to be symplectic;
    only for @ and inverse(), never for outside input."""
    g = object.__new__(IntegerSymplectic)
    object.__setattr__(g, "m", len(rows) // 2)
    object.__setattr__(g, "rows", rows)
    return g


# --- generators ---

def _eps(m, i, j, t=1):
    e = xla.zeros(m, m)
    e[i][j] = t
    return e


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


def make_generator(kind: str, m: int, **params) -> IntegerSymplectic:
    """Standard generators and embeddings, all exactly integral.

    Kinds: u (b symmetric), u_minus (c symmetric), h (a in GL_m(Z)),
    omega, omega_S (S subset of 1..m), u_ij / u_minus_ij (t, i=j allowed),
    v_ij (i != j), iota (2x2 block at index i), iota_pair (4x4 block at
    indices (j, k)).  Indices are 1-based as in the classical notation, and
    any index outside 1..m raises ValueError.  m and the indices follow the
    xla.as_int rule.
    """
    m = xla.as_int_arg(m, "m")
    one = xla.identity(m)
    zero = xla.zeros(m, m)

    def assemble(a, b, c, d):
        rows = [list(a[i]) + list(b[i]) for i in range(m)]
        rows += [list(c[i]) + list(d[i]) for i in range(m)]
        return IntegerSymplectic(rows)

    if kind == "u":
        b = _int_square(params["b"], m, "b")
        if not xla.is_symmetric(b):
            raise ValueError("u(b) needs symmetric b")
        return assemble(one, b, zero, one)
    if kind == "u_minus":
        c = _int_square(params["c"], m, "c")
        if not xla.is_symmetric(c):
            raise ValueError("u_minus(c) needs symmetric c")
        return assemble(one, zero, c, one)
    if kind == "h":
        a = _int_square(params["a"], m, "a")
        if abs(xla.det(a)) != 1:
            raise ValueError("h(a) needs unimodular a")
        d = [[int(x) for x in row] for row in xla.transpose(xla.inv(a))]
        return assemble(a, zero, zero, d)
    if kind == "omega":
        return make_generator("omega_S", m, S=set(range(1, m + 1)))
    if kind == "omega_S":
        s = set(_check_indices(m, *params["S"]))
        rows = xla.zeros(2 * m, 2 * m)
        for i in range(1, m + 1):
            if i in s:                       # e_i -> -e_i*, e_i* -> e_i
                rows[i - 1][m + i - 1] = -1
                rows[m + i - 1][i - 1] = 1
            else:
                rows[i - 1][i - 1] = 1
                rows[m + i - 1][m + i - 1] = 1
        return IntegerSymplectic(rows)
    if kind in ("u_ij", "u_minus_ij"):
        i, j = _check_indices(m, params["i"], params["j"])
        t = xla.as_int(params.get("t", 1))
        b = _eps(m, i - 1, j - 1, t)
        if i != j:
            b = xla.mat_add(b, _eps(m, j - 1, i - 1, t))
        if kind == "u_ij":
            return assemble(one, b, zero, one)
        return assemble(one, zero, xla.mat_neg(b), one)
    if kind == "v_ij":
        i, j = _check_indices(m, params["i"], params["j"])
        t = xla.as_int(params.get("t", 1))
        if i == j:
            raise ValueError("v_ij needs i != j")
        a = xla.mat_add(one, _eps(m, i - 1, j - 1, t))
        d = xla.mat_add(one, _eps(m, j - 1, i - 1, -t))
        return assemble(a, zero, zero, d)
    if kind == "iota":
        (i,) = _check_indices(m, params["i"])
        g2 = _int_square(params["g"], 2, "g")
        rows = xla.identity(2 * m)
        idx = [i - 1, m + i - 1]
        for r in range(2):
            for s_ in range(2):
                rows[idx[r]][idx[s_]] = g2[r][s_]
        return IntegerSymplectic(rows)
    if kind == "iota_pair":
        j, k = _check_indices(m, *params["jk"])
        if j == k:
            raise ValueError("iota_pair needs distinct indices")
        g4 = _int_square(params["g"], 4, "g")
        rows = xla.identity(2 * m)
        idx = [j - 1, k - 1, m + j - 1, m + k - 1]
        for r in range(4):
            for s_ in range(4):
                rows[idx[r]][idx[s_]] = g4[r][s_]
        return IntegerSymplectic(rows)
    raise ValueError(f"unknown generator kind {kind!r}")


# --- congruence subgroups ---

def _q0(v) -> int:
    """Q0(x | x*) = sum of x_i x*_i mod 2, for int v = (x | x*) of length 2m."""
    m = len(v) // 2
    return sum(map(operator.mul, v[:m], v[m:])) % 2


@lru_cache(maxsize=64)
def _subgroup(which: str) -> tuple[str, int]:
    """Parse a subgroup name into (family, d): one spelling, one group.

    Brackets, commas and spaces are dropped, so "Gamma(1,2)", "Gamma1_2"
    and "Gamma12" all name the theta group Gamma(1,2).  "Sp", "SpZ" name
    the whole group, "Gamma<d>" the level-d group Gamma(d) and
    "Gamma<d>_<2d>" (d even) the group Gamma(d, 2d).  Cached, so the
    per-element callers pay one dictionary lookup.
    """
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

    Immutable, so whatever is computed from the point alone can be kept
    on it: _theta maps ThetaParams to the read-only (half, three_half) of
    theta.theta_vector at the point, filled there on first use.
    """

    __slots__ = ("m", "X", "Y", "_theta")

    def __init__(self, X, Y):
        X = np.array(X, dtype=float)
        Y = np.array(Y, dtype=float)
        if X.shape != Y.shape or X.ndim != 2 or X.shape[0] != X.shape[1]:
            raise ValueError("X and Y must be square matrices of one size")
        if not np.max(np.abs(X - X.T)) < 1e-12:
            raise ValueError("X must be symmetric")
        if not np.max(np.abs(Y - Y.T)) < 1e-12:
            raise ValueError("Y must be symmetric")
        try:
            np.linalg.cholesky(Y)
        except np.linalg.LinAlgError:
            raise ValueError("Y must be positive definite") from None
        X.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "m", X.shape[0])
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    def __setattr__(self, *a):
        raise AttributeError("SiegelPoint is immutable")

    def _theta_memo(self) -> dict:
        try:
            return self._theta
        except AttributeError:
            object.__setattr__(self, "_theta", {})
            return self._theta

    @property
    def z(self) -> np.ndarray:
        return self.X + 1j * self.Y

    @classmethod
    def z0(cls, m: int) -> "SiegelPoint":
        m = xla.as_int_arg(m, "m")
        return cls(np.zeros((m, m)), np.eye(m))

    def __repr__(self):
        return f"SiegelPoint(X={self.X.tolist()}, Y={self.Y.tolist()})"


def _as_float(g, m: int) -> np.ndarray:
    """g as a float array; ValueError unless it is 2m x 2m."""
    arr = g.to_float() if isinstance(g, IntegerSymplectic) else np.asarray(g, dtype=float)
    if arr.shape != (2 * m, 2 * m):
        raise ValueError("dimension mismatch")
    return arr


def j_matrix(g, z: SiegelPoint) -> np.ndarray:
    """The automorphy cofactor J(g, z) = cz + d."""
    m = z.m
    arr = _as_float(g, m)
    c, d = arr[m:, :m], arr[m:, m:]
    return c @ z.z + d


def mobius_act(g, z: SiegelPoint) -> SiegelPoint:
    """g(z) = (az + b)(cz + d)^{-1}; stays in the Siegel half space."""
    m = z.m
    arr = _as_float(g, m)
    a, b = arr[:m, :m], arr[:m, m:]
    jm = j_matrix(arr, z)
    if abs(np.linalg.det(jm)) < 1e-12:
        raise ValueError("cz + d numerically singular")
    w = (a @ z.z + b) @ np.linalg.inv(jm)
    w = (w + w.T) / 2                      # symmetrize away roundoff
    return SiegelPoint(w.real, w.imag)


# --- random words ---

@lru_cache(maxsize=None)
def _alphabet(m: int, family: tuple) -> tuple:
    """(kind, params, element) per letter of a word sampler, each built and
    validated once, by make_generator."""
    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1) if i < j]
    out = []
    if family in (("Sp", 1), ("Gamma(1,2)", 1)):
        out.append(("omega", {"S": frozenset(range(1, m + 1))}))
        step = 2 if family[0] == "Gamma(1,2)" else 1
        for i in range(1, m + 1):          # u with even diagonal inside Gamma(1,2)
            out.append(("u_ij", {"i": i, "j": i, "t": step}))
            out.append(("u_ij", {"i": i, "j": i, "t": -step}))
        for i, j in pairs:
            out.append(("u_ij", {"i": i, "j": j, "t": 1}))
            out.append(("u_ij", {"i": i, "j": j, "t": -1}))
        for i, j in pairs:
            out.append(("h_elem", {"i": i, "j": j, "t": 1}))
            out.append(("h_elem", {"i": i, "j": j, "t": -1}))
    elif family == ("Gamma(d)", 2):
        out.append(("minus_one", {}))
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
    return tuple((kind, params, _letter(kind, m, params)) for kind, params in out)


def _letter(kind: str, m: int, params: dict) -> IntegerSymplectic:
    if kind == "h_elem":
        a = xla.identity(m)
        a[params["i"] - 1][params["j"] - 1] = params["t"]
        return make_generator("h", m, a=a)
    if kind == "minus_one":
        return make_generator("h", m, a=[[-(i == j) for j in range(m)] for i in range(m)])
    if kind == "omega":
        return make_generator("omega_S", m, S=set(params["S"]))
    return make_generator(kind, m, **params)


def _draw_word(m: int, subgroup: str, length: int, seed: int) -> list:
    """The length (kind, params, letter) entries of the subgroup's alphabet
    drawn by random.Random(seed); m and length follow the xla.as_int rule,
    and length must be at least 0."""
    m, length = xla.as_int_arg(m, "m"), xla.as_int_arg(length, "length")
    if length < 0:
        raise ValueError(f"word length must be >= 0, got {length}")
    alphabet = _alphabet(m, _subgroup(subgroup))
    rng = random.Random(seed)
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
