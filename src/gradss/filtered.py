"""Finite filtered F_p chain complexes and their spectral sequence.

This is the oracle side of the engine: a filtered complex is stored in a
filtration-adapted basis (level s vectors first, so F_s is a coordinate
slice), and the pages come straight out of the classical cycle subspaces

    Z^r(n, d) = { x in F_n C_d : dx in F_{n-r} C_{d-1} },

which is the derived exact couple made explicit.  The induced differential
carries the boundary sign (-1)^{degree}; all dimension data is independent of
that sign choice.

Pages of a finite complex stabilize once r exceeds the top filtration level,
which gives E-infinity and the strong-convergence comparison against the
homology of the total complex.

E^r(n, m) is zero unless n is a filtration level of degree n + m, so the
oracle visits only those cells, and it certifies every cycle space it builds
(in the kernel, independent, of the kernel's dimension) instead of relying on
the containment checks of the cells it skips.
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
    rank,
    rref,
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
            # filtration preserved: target level <= source level entrywise
            for j in range(mat.shape[1]):
                for i in np.nonzero(mat[:, j])[0]:
                    if self.levels[d - 1][int(i)] > self.levels[d][j]:
                        raise ValueError(
                            f"degree {d}: boundary raises filtration at ({i}, {j})"
                        )
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


def _cycle_space(fc: FilteredComplex, key) -> list:
    """Basis of the cycle space with memo key (d, fn, cut), the kernel of
    bmat(d)[cut:, :fn], as vectors in C_d."""
    d, fn, cut = key
    if fn == 0:
        return []
    dim = fc.dims.get(d, 0)
    mat = fc.bmat(d)[cut:, :fn]
    ker = kernel_basis(fc.p, mat)
    out = []
    for v in ker:
        w = np.zeros(dim, dtype=np.int64)
        w[:fn] = v
        out.append(w)
    return out


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


def _certify_cycle_space(fc: FilteredComplex, key, basis, pivots: dict):
    """Raise SubquotientError unless `basis` is a basis of the cycle space
    with memo key (d, fn, cut), the kernel of bmat(d)[cut:, :fn].

    Three checks: there are fn - rank of the slice vectors; every vector
    lies in F_fn C_d and is mapped to 0 by the slice (one matmul); and the
    vectors are independent: their last nonzero entries lie in distinct
    columns, as in kernel_basis output (one free column each), or else a
    rank says so.
    The slice rank is the number of pivots left of fn in the rref of
    bmat(d)[cut:, :], which `pivots` holds once per (d, cut): leftmost-column
    pivoting makes every column-prefix rank exact.
    """
    d, fn, cut = key
    mat = fc.bmat(d)[cut:, :]
    if fn and (d, cut) not in pivots:
        pivots[(d, cut)] = rref(fc.p, mat)[1] if mat.any() else []
    kernel_dim = fn - bisect_left(pivots.get((d, cut), []), fn)
    if len(basis) != kernel_dim:
        raise SubquotientError(
            f"cycle space {key}: {len(basis)} vectors, kernel dimension {kernel_dim}"
        )
    if not basis:
        return
    a = np.array(basis, dtype=np.int64) % fc.p
    if a.shape != (len(basis), fc.dims[d]) or a[:, fn:].any():
        raise SubquotientError(f"cycle space {key}: a vector outside F_n C_d")
    if matmul(mat[:, :fn], a[:, :fn].T, fc.p).any():
        raise SubquotientError(f"cycle space {key}: a vector is not a cycle")
    # nonzero vectors whose last nonzero entries lie in distinct columns are
    # independent (an echelon form read from the right)
    nonzero = a != 0
    last = nonzero[:, ::-1].argmax(axis=1)
    if not nonzero.any(axis=1).all() or len(set(last.tolist())) < len(basis):
        if rank(fc.p, a) != len(basis):
            raise SubquotientError(f"cycle space {key}: dependent vectors")


def exact_couple_run(fc: FilteredComplex, r_max: int | None = None) -> SSRun:
    """Pages E^1, E^2, ... of the filtered complex, up to stabilization.

    E^r(n, m) = Z^r(n, d) / (Z^{r-1}(n-1, d) + d Z^{r-1}(n+r-1, d+1)) with
    d = n + m, a linfp.Subquotient of C_d; d_r is read off in the target's
    coordinates.  The finite filtration forces E^{S+1} = E-infinity for S
    the top level.

    Z^r(n, d) is the kernel of the slice bmat(d)[dim F_{n-r} C_{d-1}:,
    :dim F_n C_d], and that slice is fixed by the key
    (d, dim F_n C_d, dim F_{n-r} C_{d-1}), so a memo on the key is exact.
    The stage dimensions are read from one prefix-count list per degree.
    Where F_n C_d = F_{n-1} C_d, Z^r(n, d) and Z^{r-1}(n-1, d) share a key
    and E^r(n, m) = 0, so for each (r, d) only the filtration levels n of
    degree d are visited: the E^1 support.

    Each cycle space is certified once, when it is first built: its vectors
    lie in the kernel, are independent, and number the kernel dimension,
    or SubquotientError is raised.  Each boundary image d Z is built once
    per key, and each Subquotient once per triple of its input keys, and
    every Subquotient keeps its own check; a differential image outside its
    target page also raises SubquotientError.
    """
    top = fc.top_level
    stable = top + 1
    if r_max is None:
        r_max = stable
    r_max = max(r_max, stable)
    stages = {d: [fc.filtration_dim(s, d) for s in range(top + 1)] for d in fc.degrees}
    support = {d: sorted(set(fc.levels.get(d, []))) for d in fc.degrees}
    spaces = {}   # key -> basis of Z
    images = {}   # key of Z in degree d + 1 -> d Z in C_d
    subs = {}     # (key of Z^r(n, d), of Z^{r-1}(n-1, d), of Z^{r-1}(n+r-1, d+1))
    pivots = {}   # (d, cut) -> pivot columns of the rref of bmat(d)[cut:, :]

    def stage(s, d):
        """dim F_s C_d."""
        if s < 0 or d not in stages:
            return 0
        return stages[d][min(s, top)]

    def cycles(key):
        if key not in spaces:
            basis = _cycle_space(fc, key)
            _certify_cycle_space(fc, key, basis, pivots)
            spaces[key] = basis
        return key

    pages = []
    diffs = []
    for r in range(1, r_max + 1):
        dims = {}
        cells = {}
        for d in fc.degrees:
            for n in support[d]:
                m = d - n
                fn, cut = stage(n, d), stage(n - r, d - 1)
                z = cycles((d, fn, cut))
                if not spaces[z]:
                    continue
                key = (
                    z,
                    cycles((d, stage(n - 1, d), cut)),
                    cycles((d + 1, stage(n + r - 1, d + 1), fn)),
                )
                if key not in subs:
                    src = key[2]
                    if src not in images:
                        bmat = fc.bmat(d + 1)
                        images[src] = [matmul(bmat, v, fc.p) for v in spaces[src]]
                    dead = spaces[key[1]] + images[src]
                    subs[key] = Subquotient(fc.p, fc.dims[d], spaces[z], dead)
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
    einf = pages[stable - 1][1]
    return SSRun(fc.p, pages, diffs, dict(einf), stable)


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
    bidegrees.
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
