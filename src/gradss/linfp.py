"""Exact dense linear algebra over the prime field F_p.

Everything downstream (homology, Tor tables, spectral sequence pages) reduces
to rank/kernel/subquotient computations done here.  Every "class modulo
boundaries" question (page classes, homology classes, exact-couple pages) is
answered by one object, Subquotient: greedily picked representatives,
canonical normal forms and unique coordinates.  Pivoting is deterministic
(leftmost nonzero column, topmost row), so every basis produced by the package
is reproducible bit for bit.

Vectors are 1-d numpy int64 arrays with entries in [0, p); matrices are 2-d
arrays of the same kind.  Every modulus must be a prime p <= MAX_PRIME =
2**31 - 1, so (p - 1)**2 < 2**62: a product of two residues, plus a residue,
never overflows int64 (row reduction, RowSpan), and `matmul` sums at most
2**62 // (p - 1)**2 such products before reducing.  check_prime enforces the
bound wherever a modulus enters: here, in presentations and in the parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class SubquotientError(ValueError):
    """Boundaries do not lie in the span of the cycles."""


MAX_PRIME = 2**31 - 1


@lru_cache(maxsize=128)
def is_prime(n: int) -> bool:
    """Trial division, memoized: a run uses a handful of moduli, and every
    FpMatrix checks its own."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int, least: int = 2):
    """Refuse p unless it is a prime in [least, MAX_PRIME]."""
    if not least <= p <= MAX_PRIME or not is_prime(p):
        raise ValueError(f"p = {p}: need a prime in [{least}, {MAX_PRIME}]")


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, exact: the inner sum is reduced in chunks that fit int64."""
    step = 2**62 // (p - 1) ** 2
    out = a[..., :step] @ b[:step] % p
    for s in range(step, a.shape[-1], step):
        out = (out + a[..., s : s + step] @ b[s : s + step]) % p
    return out


@dataclass(frozen=True)
class FpMatrix:
    """Dense matrix over F_p, entries stored as residues in [0, p)."""

    p: int
    entries: np.ndarray

    def __post_init__(self):
        check_prime(self.p)
        a = np.asarray(self.entries, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("entries must be a 2-d array")
        object.__setattr__(self, "entries", np.mod(a, self.p))

    @classmethod
    def from_rows(cls, p: int, rows, cols: int | None = None) -> "FpMatrix":
        rows = list(rows)
        if rows:
            return cls(p, np.array(rows, dtype=np.int64))
        return cls(p, np.zeros((0, cols or 0), dtype=np.int64))

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls(p, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.entries.shape == other.entries.shape
            and bool(np.array_equal(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.p, self.entries.shape, self.entries.tobytes()))


def _rref_inplace(a: np.ndarray, p: int) -> list[int]:
    """Row reduce `a` mod p in place; return the pivot column list."""
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = np.nonzero(col)[0]
        if mask.size:
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
    return pivots


def rref(m: FpMatrix) -> tuple[FpMatrix, list[int]]:
    """Reduced row-echelon form and its strictly increasing pivot columns."""
    a = m.entries.copy()
    pivots = _rref_inplace(a, m.p)
    return FpMatrix(m.p, a), pivots


def rank(m: FpMatrix) -> int:
    return len(_rref_inplace(m.entries.copy(), m.p))


def homology_dims(p: int, dims: dict, mats: dict) -> dict:
    """Nonzero dim C_i - rank d_i - rank d_{i+1}, for i in `dims` in order.

    dims[i] is dim C_i; mats[i] is the matrix of d_i: C_i -> C_{i-1}, and a
    missing d_i counts as zero.  Every matrix is ranked once, empty ones
    included, so each checks the modulus.
    """
    ranks = {i: rank(FpMatrix(p, m)) for i, m in mats.items()}
    out = {}
    for i, dim in dims.items():
        h = dim - ranks.get(i, 0) - ranks.get(i + 1, 0)
        if h:
            out[i] = h
    return out


def kernel_basis(m: FpMatrix) -> list[np.ndarray]:
    """Columns spanning ker(m), one per free column of the rref.

    The basis vector for free column f has a 1 in position f and the
    negated rref entries in the pivot positions; vectors are ordered by
    increasing free column, which makes the result deterministic.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = np.zeros(m.cols, dtype=np.int64)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-int(red.entries[i, f])) % m.p
        basis.append(v)
    return basis


def solve(m: FpMatrix, b: np.ndarray) -> np.ndarray | None:
    """One solution x of m @ x = b, or None when the system is inconsistent."""
    b = np.mod(np.asarray(b, dtype=np.int64), m.p)
    aug = np.concatenate([m.entries, b.reshape(-1, 1)], axis=1)
    pivots = _rref_inplace(aug, m.p)
    if m.cols in pivots:
        return None
    x = np.zeros(m.cols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = aug[i, m.cols]
    return x


class RowSpan:
    """Incrementally built row space in echelon form.

    For callers that grow a span one vector at a time; a fixed pair of
    cycles and boundaries is a Subquotient.
    """

    def __init__(self, p: int, dim: int):
        self.p = p
        self.dim = dim
        self.rows: list[np.ndarray] = []   # echelon rows, pivot entry 1
        self.pivots: list[int] = []        # pivot column of each row

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Residue of v modulo the current span."""
        v = np.mod(np.asarray(v, dtype=np.int64), self.p)
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                v = (v - v[c] * row) % self.p
        return v

    def add(self, v: np.ndarray) -> bool:
        """Insert v; return True when it enlarged the span."""
        v = self.reduce(v)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        v = (v * pow(int(v[c]), -1, self.p)) % self.p
        # keep existing rows reduced against the new one
        for i, row in enumerate(self.rows):
            if row[c]:
                self.rows[i] = (row - row[c] * v) % self.p
        k = 0
        while k < len(self.pivots) and self.pivots[k] < c:
            k += 1
        self.rows.insert(k, v)
        self.pivots.insert(k, c)
        return True

    def contains(self, v: np.ndarray) -> bool:
        return not np.any(self.reduce(v))

    def rank(self) -> int:
        return len(self.rows)


def stack_rows(vectors, dim: int) -> np.ndarray:
    """The vectors as the rows of a fresh len(vectors) x dim int64 array."""
    return np.array(vectors, dtype=np.int64).reshape(len(vectors), dim)


def _independent(p: int, dim: int, vectors) -> list[int]:
    """Indices of the vectors that are not combinations of earlier ones.

    These are the pivot columns of the matrix with the vectors as columns.
    """
    return _rref_inplace(np.ascontiguousarray(stack_rows(vectors, dim).T), p)


class Subquotient:
    """span(cycles) / span(boundaries) inside F_p^dim.

    `reps` are the cycles that are independent modulo the boundaries and the
    earlier picks, chosen greedily in the order given, so they are a subset
    of the cycles and the choice is reproducible.  `boundaries` is the same
    greedy pick from the boundary list, a basis of its span.  Raises
    SubquotientError when some boundary is not a combination of the cycles
    (the signature of an inconsistent differential).

    The echelon forms behind reduce, contains and coords are built on first
    use.  The whole space with no boundaries, span(e_1..e_dim) / 0, is
    Subquotient.whole: its reps are the unit vectors, built on first read,
    and every vector is its own normal form and its own coordinates, so it
    needs no echelon form and no arithmetic beyond reducing mod p.
    """

    def __init__(self, p: int, dim: int, cycles, boundaries):
        self.p = p
        self.dim = dim
        cycles = [np.mod(np.asarray(v, dtype=np.int64), p) for v in cycles]
        bnd = [np.mod(np.asarray(v, dtype=np.int64), p) for v in boundaries]
        if bnd and any(i >= len(cycles) for i in _independent(p, dim, cycles + bnd)):
            raise SubquotientError("boundary outside the span of the cycles")
        picks = _independent(p, dim, bnd + cycles)
        self.boundaries = [bnd[i] for i in picks if i < len(bnd)]
        self.reps = [cycles[i - len(bnd)] for i in picks if i >= len(bnd)]
        self._whole = False
        self._boundary_echelon = None
        self._solver = None

    @classmethod
    def whole(cls, p: int, dim: int) -> "Subquotient":
        """span(e_1..e_dim) / 0, the same as Subquotient(p, dim, eye, [])."""
        sub = cls.__new__(cls)
        sub.p = p
        sub.dim = dim
        sub.boundaries = []
        sub._whole = True
        return sub

    @cached_property
    def reps(self) -> list:
        """The unit vectors of a whole subquotient; __init__ assigns the others."""
        return list(np.eye(self.dim, dtype=np.int64))

    def _residues(self, v) -> np.ndarray:
        """v mod p as a fresh array; raises ValueError unless its shape is (dim,)."""
        v = np.mod(np.asarray(v, dtype=np.int64), self.p)
        if v.shape != (self.dim,):
            raise ValueError(f"vector of shape {v.shape}, expected ({self.dim},)")
        return v

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """The normal form of v modulo the boundaries: zero at their pivots."""
        v = self._residues(v)
        if self._whole:
            return v
        if self._boundary_echelon is None:
            rows = stack_rows(self.boundaries, self.dim)
            self._boundary_echelon = (_rref_inplace(rows, self.p), rows)
        pivots, rows = self._boundary_echelon
        return (v - matmul(v[pivots], rows, self.p)) % self.p

    def coords(self, v: np.ndarray) -> np.ndarray | None:
        """The unique x with v = sum x_i reps_i modulo the boundaries.

        None when v is not in span(reps + boundaries).
        """
        v = self._residues(v)
        if self._whole:
            return v
        if self._solver is None:
            # [basis | I] row reduced: echelon rows T @ basis, and T itself.
            # The basis rows are independent, so every pivot lies in the
            # first dim columns.
            basis = stack_rows(self.reps + self.boundaries, self.dim)
            a = np.concatenate([basis, np.eye(len(basis), dtype=np.int64)], axis=1)
            self._solver = (_rref_inplace(a, self.p), a)
        pivots, a = self._solver
        y = v[pivots]
        if np.any((v - matmul(y, a[:, : self.dim], self.p)) % self.p):
            return None
        return matmul(y, a[:, self.dim : self.dim + len(self.reps)], self.p)

    def contains(self, v: np.ndarray) -> bool:
        """Whether v lies in span(reps + boundaries)."""
        return self.coords(v) is not None


def subquotient_basis(
    ambient_dim: int,
    cycles: list[np.ndarray],
    boundaries: list[np.ndarray],
    p: int,
) -> list[np.ndarray]:
    """Representatives of span(cycles)/span(boundaries): Subquotient(...).reps."""
    return Subquotient(p, ambient_dim, cycles, boundaries).reps
