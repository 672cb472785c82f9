"""Finite filtered F_p chain complexes and their spectral sequence.

This is the oracle side of the engine: a filtered complex is stored in a
filtration-adapted basis (level s vectors first, so F_s is a coordinate
slice), and the pages come straight out of the classical cycle subspaces

    Z^r(n, d) = { x in F_n C_d : dx in F_{n-r} C_{d-1} },

which is the derived exact couple made explicit.  The induced differential
carries the boundary sign (-1)^{degree}; all dimension data is independent of
that sign choice.

Z^r(n, d) is the kernel of a column prefix of bmat(d)[dim F_{n-r} C_{d-1}:, :],
and with leftmost-column pivoting the kernel of a column prefix is spanned by
the kernel_basis vectors of the whole slice whose last nonzero entry lies
inside the prefix.  So the oracle row-reduces one kernel per (degree, cut)
and certifies it once (its vectors are cycles, independent, and as many as
the kernel's dimension); every cycle space is a prefix of one, checked
against the rank of its column prefix.  E^r(n, m) is zero unless n is a
filtration level of degree n + m, so only those cells are visited.

Pages of a finite complex stabilize once r exceeds the top filtration level.
The oracle stops sooner, after the first page r on which no nonzero cell lies
r or more columns right of a nonzero cell one degree lower.  Then d_r has no
source with a target, so E^{r+1} = E^r, and every later d_r' spans r' > r
columns between cells among these, so E^r is E-infinity.  E-infinity gives
the strong-convergence comparison against the homology of the total complex.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .dga import Derivation, d_matrix, d_target
from .linfp import (
    Subquotient,
    SubquotientError,
    _residues,
    check_prime,
    homology_dims,
    kernel_basis,
    matmul,
    rref,
    stack_rows,
)


@dataclass
class FilteredComplex:
    """Chain complex with an exhaustive filtration in an adapted basis.

    dims[d] is the dimension of C_d; boundary[d] maps C_d to C_{d-1};
    levels[d][i] is the filtration level of the i-th basis vector, and must be
    nondecreasing so that F_s C_d is spanned by a prefix of the basis.
    """

    p: int
    dims: dict
    boundary: dict
    levels: dict

    def __post_init__(self):
        self.p = check_prime(self.p)
        for d, dim in self.dims.items():
            lv = self.levels.get(d, [])
            if len(lv) != dim:
                raise ValueError(f"degree {d}: {len(lv)} levels for dimension {dim}")
            if any(s < 0 for s in lv):
                raise ValueError(f"degree {d}: negative filtration level")
            if list(lv) != sorted(lv):
                raise ValueError(f"degree {d}: basis not filtration-adapted")
        self.boundary = {d: _residues(self.p, mat) for d, mat in self.boundary.items()}
        for d, mat in self.boundary.items():
            if mat.shape != (self.dims.get(d - 1, 0), self.dims.get(d, 0)):
                raise ValueError(f"degree {d}: boundary shape {mat.shape} is wrong")
            # filtration preserved: target level <= source level entrywise.
            # A nonzero entry means degrees d - 1 and d both have levels; the
            # first offender in column-major order is named.
            if not mat.any():
                continue
            rows, cols = np.asarray(self.levels[d - 1]), np.asarray(self.levels[d])
            raised = (mat != 0) & (rows[:, None] > cols[None, :])
            if raised.any():
                j, i = (int(k[0]) for k in np.nonzero(raised.T))
                raise ValueError(f"degree {d}: boundary raises filtration at ({i}, {j})")
        for d in self.dims:
            lower = self.bmat(d)
            upper = self.bmat(d + 1)
            if lower.size and upper.size and np.any(matmul(lower, upper, self.p)):
                raise ValueError(f"not a complex: d^2 != 0 out of degree {d + 1}")

    def bmat(self, d) -> np.ndarray:
        if d in self.boundary:
            return self.boundary[d]
        return np.zeros((self.dims.get(d - 1, 0), self.dims.get(d, 0)), dtype=np.int64)

    @property
    def degrees(self) -> list:
        return sorted(self.dims)

    @property
    def top_level(self) -> int:
        return max((max(lv) for lv in self.levels.values() if lv), default=0)

    def filtration_dim(self, s: int, d: int) -> int:
        """dim F_s C_d; levels are sorted so this is a prefix length."""
        if s < 0:
            return 0
        return bisect_right(self.levels.get(d, []), s)

    def total_homology(self) -> dict:
        dims = {d: self.dims[d] for d in self.degrees}
        return homology_dims(self.p, dims, self.boundary)


def _kernel(fc: FilteredComplex, d: int, cut: int) -> list:
    """kernel_basis of bmat(d)[cut:, :], as vectors in C_d: one per free
    column of the rref, in increasing order of that column, which is also
    the vector's last nonzero entry."""
    return kernel_basis(fc.p, fc.bmat(d)[cut:, :])


@dataclass
class SSRun:
    """Page dimension tables and differentials of a filtered complex."""

    p: int
    pages: list          # (r, {(n, m): dim})
    differentials: list  # (r, {(n, m): signed matrix of d_r})
    einf: dict           # {(n, m): dim}
    stable_page: int

    def page_dims(self, r: int) -> dict:
        for rr, dims in self.pages:
            if rr == r:
                return dims
        raise KeyError(r)

    def einf_total(self, d: int) -> int:
        return sum(v for (n, m), v in self.einf.items() if n + m == d)


def _certify_kernel(fc: FilteredComplex, d: int, cut: int, basis) -> tuple:
    """Raise SubquotientError unless `basis` is a basis of the kernel of
    bmat(d)[cut:, :] in echelon form read from the right; return the last
    nonzero column of each vector and the pivot columns of the slice's rref.

    Three checks: there are cols - rank vectors; the slice maps them to 0
    (one matmul); and every vector is nonzero with its last nonzero entry
    strictly right of the one before, so they are independent.
    """
    mat = fc.bmat(d)[cut:, :]
    pivots = rref(fc.p, mat)[1] if mat.any() else []
    where = f"kernel of degree {d} below row {cut}"
    if len(basis) != mat.shape[1] - len(pivots):
        raise SubquotientError(
            f"{where}: {len(basis)} vectors, kernel dimension {mat.shape[1] - len(pivots)}"
        )
    if not basis:
        return [], pivots
    a = np.array(basis, dtype=np.int64) % fc.p
    if a.shape != (len(basis), mat.shape[1]):
        raise SubquotientError(f"{where}: a vector outside C_d")
    if matmul(mat, a.T, fc.p).any():
        raise SubquotientError(f"{where}: a vector is not a cycle")
    nonzero = a != 0
    last = (mat.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1)).tolist()
    if not nonzero.any(axis=1).all() or any(x >= y for x, y in zip(last, last[1:])):
        raise SubquotientError(f"{where}: last nonzero entries not increasing")
    return last, pivots


def exact_couple_run(fc: FilteredComplex, r_max: int | None = None) -> SSRun:
    """Pages E^1, E^2, ... of the filtered complex, up to stabilization.

    E^r(n, m) = Z^r(n, d) / (Z^{r-1}(n-1, d) + d Z^{r-1}(n+r-1, d+1)) with
    d = n + m, a linfp.Subquotient of C_d; d_r is read off in the target's
    coordinates.  The finite filtration forces E^{S+1} = E-infinity for S
    the top level.

    Z^r(n, d) is the kernel of the column prefix bmat(d)[cut:, :fn] with
    fn = dim F_n C_d and cut = dim F_{n-r} C_{d-1}.  With leftmost-column
    pivoting, that kernel is spanned by the vectors of _kernel(fc, d, cut)
    whose last nonzero entry lies left of fn: a prefix of the list.  So each
    (d, cut) is row-reduced and certified once (_certify_kernel), and the
    length of each prefix is checked against fn minus the pivots left of
    fn.  Where F_n C_d = F_{n-1} C_d, Z^r(n, d) = Z^{r-1}(n-1, d) and
    E^r(n, m) = 0, so for each (r, d) only the filtration levels n of
    degree d are visited: the E^1 support.  Each boundary image d Z is one
    matmul per (d + 1, cut), each Subquotient is built once per choice of
    its three prefixes and keeps its own check, and a differential image
    outside its target page raises SubquotientError.

    The run stops after page r once, in every degree d, no nonzero cell lies
    r or more columns right of a nonzero cell of degree d - 1.  Then d_r
    has no source with a target, so E^{r+1} = E^r; every later page has its
    nonzero cells among these, and d_{r'} with r' > r spans more columns
    still, so E^r = E-infinity.  The pages up to max(r_max, S + 1) are
    copies of E^r with no differentials.
    """
    top = fc.top_level
    stable = top + 1
    if r_max is None:
        r_max = stable
    r_max = max(r_max, stable)
    stages = {d: [fc.filtration_dim(s, d) for s in range(top + 1)] for d in fc.degrees}
    support = {d: sorted(set(fc.levels.get(d, []))) for d in fc.degrees}
    kernels = {}  # (d, cut) -> (basis, last nonzero columns, rref pivots)
    images = {}   # (d + 1, cut) -> bmat(d + 1) of each vector of that kernel
    subs = {}     # (d, cut, k, below, fn, source): the prefix lengths of its three Z

    def stage(s, d):
        """dim F_s C_d."""
        if s < 0 or d not in stages:
            return 0
        return stages[d][min(s, top)]

    def cycles(d, fn, cut):
        """The length of the prefix of kernels[d, cut] that spans Z."""
        if fn == 0:
            return 0
        if (d, cut) not in kernels:
            basis = _kernel(fc, d, cut)
            kernels[d, cut] = (basis, *_certify_kernel(fc, d, cut, basis))
        _, last, pivots = kernels[d, cut]
        k, kernel_dim = bisect_left(last, fn), fn - bisect_left(pivots, fn)
        if k != kernel_dim:
            raise SubquotientError(
                f"cycle space {(d, fn, cut)}: {k} vectors, kernel dimension {kernel_dim}"
            )
        return k

    def image(d, cut):
        if (d, cut) not in images:
            basis = kernels[d, cut][0]
            images[d, cut] = list(matmul(stack_rows(basis, fc.dims[d]), fc.bmat(d).T, fc.p))
        return images[d, cut]

    pages = []
    diffs = []
    for r in range(1, r_max + 1):
        dims = {}
        cells = {}
        for d in fc.degrees:
            for n in support[d]:
                m = d - n
                fn, cut = stage(n, d), stage(n - r, d - 1)
                k = cycles(d, fn, cut)
                if not k:
                    continue
                below = cycles(d, stage(n - 1, d), cut)
                source = cycles(d + 1, stage(n + r - 1, d + 1), fn)
                key = (d, cut, k, below, fn, source)
                if key not in subs:
                    z = kernels[d, cut][0]
                    dead = z[:below] + (image(d + 1, fn)[:source] if source else [])
                    subs[key] = Subquotient(fc.p, fc.dims[d], z[:k], dead)
                sub = subs[key]
                if sub.reps:
                    dims[(n, m)] = len(sub.reps)
                    cells[(n, m)] = sub
        # induced differential with the (-1)^{degree} boundary sign
        dmat = {}
        for (n, m), sub in cells.items():
            target = cells.get(d_target((n, m), r))
            if target is None:
                continue
            d = n + m
            cols = []
            for v in sub.reps:
                x = target.coords(matmul(fc.bmat(d), v, fc.p))
                if x is None:
                    raise SubquotientError("differential image outside the page")
                cols.append(((-1) ** d * x) % fc.p)
            dmat[(n, m)] = np.stack(cols, axis=1)
        pages.append((r, dims))
        diffs.append((r, dmat))
        if _settled(dims, r):
            pages += [(s, dict(dims)) for s in range(r + 1, r_max + 1)]
            diffs += [(s, {}) for s in range(r + 1, r_max + 1)]
            break
    einf = pages[stable - 1][1]
    return SSRun(fc.p, pages, diffs, dict(einf), stable)


def _settled(dims: dict, r: int) -> bool:
    """Whether no nonzero cell of E^r lies r or more columns right of a
    nonzero cell one degree lower: then E^r = E-infinity."""
    lo, hi = {}, {}
    for n, m in dims:
        lo[n + m] = min(lo.get(n + m, n), n)
        hi[n + m] = max(hi.get(n + m, n), n)
    return all(hi[d] - lo[d - 1] < r for d in hi if d - 1 in lo)


def compare_with_total_homology(fc: FilteredComplex, run: SSRun) -> dict:
    """Per total degree: (sum of E-infinity dims, total homology dim, equal?)."""
    h = fc.total_homology()
    degrees = sorted(set(h) | {n + m for (n, m) in run.einf})
    out = {}
    for d in degrees:
        got = run.einf_total(d)
        want = h.get(d, 0)
        out[d] = (got, want, got == want)
    return out


def realize_filtered_dga(pres, derivation: Derivation, n_max: int) -> FilteredComplex:
    """Filtered complex of a presented DGA, filtered by column degree.

    Basis of C_d: monomials of total degree d ordered by (column, exponents);
    the derivation strictly drops the column, so the filtration is preserved.
    The boundary of C_d is assembled from the d_matrix block of each of its
    bidegrees.  Every block is read on purpose, never the derivation's
    support, so the oracle does not share the list the page engine and
    dga.homology work from.
    """
    table = alg.monomial_table(pres)
    basis = {}  # d -> bidegrees of total degree d, by column
    for bd in sorted(table):
        if sum(bd) <= n_max:
            basis.setdefault(sum(bd), []).append(bd)
    offsets = {}  # bidegree -> its first index in C_d
    dims = {}
    levels = {}
    for d, bds in basis.items():
        levels[d] = []
        for bd in bds:
            offsets[bd] = len(levels[d])
            levels[d] += [bd[0]] * len(table[bd])
        dims[d] = len(levels[d])
    boundary = {}
    for d, bds in basis.items():
        if d - 1 not in basis:
            continue
        mat = boundary[d] = np.zeros((dims[d - 1], dims[d]), dtype=np.int64)
        for bd in bds:
            block = d_matrix(derivation, bd)
            if len(block):
                row, col = offsets[derivation.target(bd)], offsets[bd]
                mat[row : row + block.shape[0], col : col + block.shape[1]] = block
    return FilteredComplex(pres.p, dims, boundary, levels)


def random_filtered_complex(
    rng, p: int = 5, max_steps: int = 5, max_degree: int = 4, max_total_dim: int = 40
) -> FilteredComplex:
    """Seeded random filtered complex, built level-compatibly with d^2 = 0.

    The boundary of each basis vector is sampled from the kernel of the
    previous boundary intersected with the vector's filtration stage, so the
    result is a complex by construction.
    """
    p = check_prime(p)
    steps = rng.randint(1, max_steps)
    top_degree = rng.randint(1, max_degree)
    dims = {}
    levels = {}
    budget = max_total_dim
    for d in range(top_degree + 1):
        dim = rng.randint(0, min(5, budget))
        budget -= dim
        if dim == 0:
            continue
        dims[d] = dim
        levels[d] = sorted(rng.randint(0, steps - 1) for _ in range(dim))
    boundary = {}
    prev = None  # boundary out of degree d - 1
    for d in sorted(dims):
        if d - 1 not in dims:
            prev = None
            continue
        rows = dims[d - 1]
        mat = np.zeros((rows, dims[d]), dtype=np.int64)
        below = prev if prev is not None else np.zeros((0, rows), dtype=np.int64)
        for j in range(dims[d]):
            cut = sum(1 for s in levels[d - 1] if s <= levels[d][j])
            if cut == 0:
                continue
            ker = kernel_basis(p, below[:, :cut])
            if not ker:
                continue
            v = np.zeros(rows, dtype=np.int64)
            for kv in ker:
                c = rng.randint(0, p - 1)
                if c:
                    v[:cut] = (v[:cut] + c * kv) % p
            mat[:, j] = v
        boundary[d] = mat
        prev = mat
    return FilteredComplex(p, dims, boundary, levels)
