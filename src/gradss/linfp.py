"""Exact dense linear algebra over the prime field F_p.

Everything downstream (homology, Tor tables, spectral sequence pages) reduces
to rank/kernel/subquotient computations done here.  Every "class modulo
boundaries" question (page classes, homology classes, exact-couple pages) is
answered by one object, Subquotient: greedily picked representatives and
unique coordinates.  Pivoting is deterministic (leftmost nonzero column,
topmost row), so every basis produced by the package is reproducible bit for
bit.

Every row reduction goes through _rref_inplace, which picks its loop by the
matrix's entry count: up to 128 entries it eliminates on Python int lists
(numpy's fixed cost per call would outweigh the arithmetic there), above
that on numpy rows.  Both pivot alike and give the same entries.

A matrix is passed as (p, a): the modulus and any 2-d integer array.  The
entry points (rref, rank, kernel_basis, solve, homology_dims, RowSpan,
Subquotient) check p once (check_prime returns it as a Python int) and take
every matrix and vector through _residues, which refuses the wrong dimension
and non-integer entries and reduces a fresh int64 copy mod p: no input is
mutated, and entries outside [0, p) read as their residues.  Vectors are 1-d
int64 arrays with entries in [0, p).

Every modulus must be a prime p <= MAX_PRIME = 2**31 - 1, so
(p - 1)**2 < 2**62: a product of two residues, plus a residue, never
overflows int64 (numpy row reduction, RowSpan), and `matmul` sums at most
2**62 // (p - 1)**2 such products before reducing.  The list loop is exact for
any p; the bound binds the numpy code.  check_prime enforces it wherever a
modulus enters: here, in presentations, in filtered complexes and in the
parser.
"""

from __future__ import annotations

import operator
from functools import cached_property, lru_cache

import numpy as np


class SubquotientError(ValueError):
    """Boundaries do not lie in the span of the cycles."""


MAX_PRIME = 2**31 - 1


@lru_cache(maxsize=128)
def is_prime(n: int) -> bool:
    """Trial division, memoized: a run uses a handful of moduli, and every
    linfp entry point checks its own."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int, least: int = 2) -> int:
    """p as a Python int; ValueError unless p is an int prime in [least, MAX_PRIME]."""
    q = operator.index(p) if isinstance(p, (int, np.integer)) else 0
    if not least <= q <= MAX_PRIME or not is_prime(q):
        raise ValueError(f"p = {p}: need a prime in [{least}, {MAX_PRIME}]")
    return q


def check_index(n, what: str) -> int:
    """n as a Python int; ValueError unless n is an int or numpy integer, not a bool."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{what} {n!r} is not an integer")
    return operator.index(n)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, exact: the inner sum is reduced in chunks that fit int64."""
    step = 2**62 // (p - 1) ** 2
    out = a[..., :step] @ b[:step] % p
    for s in range(step, a.shape[-1], step):
        out = (out + a[..., s : s + step] @ b[s : s + step]) % p
    return out


def _residues(p: int, a, ndim: int = 2) -> np.ndarray:
    """a mod p as a fresh int64 array, for p a value check_prime returned.

    Raises ValueError unless `a` has `ndim` dimensions and integer entries;
    entries not given as int64 are reduced mod p as Python ints first.
    """
    arr = np.asarray(a)
    if arr.dtype != np.int64:  # numpy may have widened big ints to float
        try:
            arr = np.frompyfunc(operator.index, 1, 1)(np.array(a, dtype=object)) % p
        except TypeError:
            raise ValueError(f"entries must be integers, not {arr.dtype}") from None
        arr = np.asarray(arr, np.int64)
    if arr.ndim != ndim:
        raise ValueError(f"entries must be a {ndim}-d array, not {arr.ndim}-d")
    return np.mod(arr, p)


# The most entries _rref_inplace reduces on Python int lists, for every p.
# Near it the two loops cost about the same on dense p = 5 matrices (2-CPU
# Xeon, Python 3.11, numpy 2.4; 8 x 16: numpy 116, lists 105 us; 12 x 12:
# numpy 168, lists 188 us; 16 x 16: numpy 251, lists 391 us).  Past 2**15
# the list loop's products outgrow one 30-bit digit and it loses sooner, but
# no workload runs such a prime; it stays exact there.
_LIST_CELLS = 128


def _rref_inplace(a: np.ndarray, p: int) -> list[int]:
    """Row reduce `a` mod p in place; return the pivot column list.

    Entries must be residues in [0, p).  Both loops take the leftmost
    nonzero column and, in it, the topmost row, so they agree bit for bit.
    """
    if a.size > _LIST_CELLS:
        return _rref_numpy(a, p)
    rows = a.tolist()
    pivots = _rref_rows(rows, p)
    if pivots:  # without a pivot `a` is zero and stays as it is
        a[...] = rows
    return pivots


def _rref_rows(rows: list, p: int) -> list[int]:
    """_rref_inplace on a list of int lists, exact for every p."""
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        if r == len(rows):
            break
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        pivot = rows[i]
        rows[i] = rows[r]
        inv = pow(pivot[c], -1, p)
        if inv != 1:
            pivot = [x * inv % p for x in pivot]
        rows[r] = pivot
        for k, row in enumerate(rows):
            f = row[c]
            if f and k != r:
                rows[k] = [(x - f * y) % p for x, y in zip(row, pivot)]
        pivots.append(c)
        r += 1
    return pivots


def _rref_numpy(a: np.ndarray, p: int) -> list[int]:
    """_rref_inplace with numpy row operations; products stay below 2**62."""
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


def rref(p: int, a) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of a mod p and its strictly increasing pivot columns."""
    p = check_prime(p)
    red = _residues(p, a)
    pivots = _rref_inplace(red, p)
    return red, pivots


def rank(p: int, a) -> int:
    p = check_prime(p)
    a = _residues(p, a)
    # a single row or column has rank 1 exactly when it is nonzero
    if min(a.shape) <= 1:
        return 1 if np.count_nonzero(a) else 0
    return len(_rref_inplace(a, p))


def homology_dims(p: int, dims: dict, mats: dict) -> dict:
    """Nonzero dim C_i - rank d_i - rank d_{i+1}, for i in `dims` in order.

    dims[i] is dim C_i; mats[i] is the matrix of d_i: C_i -> C_{i-1}, and a
    missing d_i counts as zero.  Every matrix is ranked once, empty ones
    included, so each checks the modulus.
    """
    ranks = {i: rank(p, m) for i, m in mats.items()}
    out = {}
    for i, dim in dims.items():
        h = dim - ranks.get(i, 0) - ranks.get(i + 1, 0)
        if h:
            out[i] = h
    return out


def kernel_basis(p: int, a) -> list[np.ndarray]:
    """Columns spanning the kernel of a mod p, one per free column of the rref.

    The basis vector for free column f has a 1 in position f and the
    negated rref entries in the pivot positions; vectors are ordered by
    increasing free column, which makes the result deterministic.
    """
    p = check_prime(p)
    a = _residues(p, a)
    cols = a.shape[1]
    pivots = _rref_inplace(a, p)
    red = a[: len(pivots)].tolist()
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [0] * cols
        v[f] = 1
        for row, c in zip(red, pivots):
            v[c] = -row[f] % p
        basis.append(np.array(v, dtype=np.int64))
    return basis


def solve(p: int, a, b) -> np.ndarray | None:
    """One solution x of a @ x = b mod p, or None when the system is inconsistent."""
    p = check_prime(p)
    a = _residues(p, a)
    cols = a.shape[1]
    aug = np.concatenate([a, _residues(p, b, 1).reshape(-1, 1)], axis=1)
    pivots = _rref_inplace(aug, p)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = aug[i, cols]
    return x


class RowSpan:
    """Incrementally built row space in echelon form.

    For callers that grow a span one vector at a time; a fixed pair of
    cycles and boundaries is a Subquotient.
    """

    def __init__(self, p: int, dim: int):
        self.p = check_prime(p)
        self.dim = dim
        self.rows: list[np.ndarray] = []   # echelon rows, pivot entry 1
        self.pivots: list[int] = []        # pivot column of each row

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Residue of v modulo the current span."""
        v = _residues(self.p, v, 1)
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


def _independent(p: int, rows: np.ndarray) -> list[int]:
    """Indices of the rows that are not combinations of earlier ones.

    These are the pivot columns of the transpose, reduced as a copy.
    """
    return _rref_inplace(rows.T.copy(), p)


class Subquotient:
    """span(cycles) / span(boundaries) inside F_p^dim.

    `reps` are the cycles that are independent modulo the boundaries and the
    earlier picks, chosen greedily in the order given, so they are a subset
    of the cycles and the choice is reproducible.  `boundaries` is the same
    greedy pick from the boundary list, a basis of its span.  Raises
    SubquotientError when some boundary is not a combination of the cycles
    (the signature of an inconsistent differential).

    A subquotient answers one question, `coords`, from one echelon form
    built on first use; reps and boundaries are independent, so v lies in
    span(boundaries) exactly when its coords are the zero vector.  The whole
    space with no boundaries, span(e_1..e_dim) / 0, is Subquotient.whole, and
    `is_whole` says so: its reps are the unit vectors, built on first read
    (len counts them without building them), and every vector is its own
    coordinates, so it needs no echelon form and no arithmetic beyond
    reducing mod p.
    """

    def __init__(self, p: int, dim: int, cycles, boundaries):
        self.p = p = check_prime(p)
        self.dim = dim
        self.is_whole = False
        self._solver = None
        nb = len(boundaries)
        if not nb and not len(cycles):  # the zero subquotient: nothing to reduce
            self.boundaries, self.reps = [], []
            return
        rows = _residues(p, stack_rows([*boundaries, *cycles], dim))
        picks = _independent(p, rows)
        # the boundaries lie in span(cycles) when they add nothing to its rank
        if nb and len(picks) > len(_independent(p, rows[nb:])):
            raise SubquotientError("boundary outside the span of the cycles")
        vectors = list(rows)
        self.boundaries = [vectors[i] for i in picks if i < nb]
        self.reps = [vectors[i] for i in picks if i >= nb]

    @classmethod
    def whole(cls, p: int, dim: int) -> "Subquotient":
        """span(e_1..e_dim) / 0, the same as Subquotient(p, dim, eye, [])."""
        sub = cls.__new__(cls)
        sub.p = check_prime(p)
        sub.dim = dim
        sub.boundaries = []
        sub.is_whole = True
        return sub

    def __len__(self) -> int:
        """The number of reps, the dimension of the subquotient."""
        return self.dim if self.is_whole else len(self.reps)

    @cached_property
    def reps(self) -> list:
        """The unit vectors of a whole subquotient; __init__ assigns the others."""
        return list(np.eye(self.dim, dtype=np.int64))

    def coords(self, v: np.ndarray) -> np.ndarray | None:
        """The unique x with v = sum x_i reps_i modulo the boundaries.

        None when v is not in span(reps + boundaries); ValueError unless v
        has shape (dim,).
        """
        v = _residues(self.p, v, 1)
        if v.shape != (self.dim,):
            raise ValueError(f"vector of shape {v.shape}, expected ({self.dim},)")
        if self.is_whole:
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


def subquotient_basis(
    ambient_dim: int,
    cycles: list[np.ndarray],
    boundaries: list[np.ndarray],
    p: int,
) -> list[np.ndarray]:
    """Representatives of span(cycles)/span(boundaries): Subquotient(...).reps."""
    return Subquotient(p, ambient_dim, cycles, boundaries).reps
