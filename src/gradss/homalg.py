"""Tor over single-variable graded base rings, and Hochschild homology.

Tor is computed from small explicit free resolutions (Koszul complexes for
regular elements/sequences, the periodic resolution over a truncated ring)
tensored with F_p on the left.  The p-adic coefficient ring is never
represented as such: resolution entries are kept as integer-coefficient
u-powers, and tensoring with a p-torsion module reduces everything to F_p.

Hochschild homology uses the normalized cyclic bar complex with the Koszul
sign on the rotating face, so HH_0 of a graded-commutative algebra is the
algebra itself.  The faces keep the internal degree, so the bar complex is
built one internal degree at a time: no matrix spans two degrees.  Both Tor
and HH read their dimensions off linfp.homology_dims, one rank per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .algebra import EXTERIOR, Presentation, ext, poly
from .linfp import check_index, check_prime, homology_dims


class ResourceLimit(RuntimeError):
    """The bar complex grew past BAR_CAP chains."""


BAR_CAP = 200_000  # chains hochschild_homology builds before it refuses


@dataclass(frozen=True)
class BaseRing:
    """k[u] or k[u]/(u^height), k the prime field or the p-adic integers.

    coefficients is "fp" or "zp"; "zp" is purely symbolic, which is sound
    because Tor takes F_p on the left.
    """

    coefficients: str
    p: int
    height: int | None = None

    def __post_init__(self):
        if self.coefficients not in ("fp", "zp"):
            raise ValueError(f"unknown coefficient kind {self.coefficients!r}")
        if self.coefficients == "zp" and self.height is not None:
            raise ValueError("truncation is only supported over fp coefficients")
        if self.height is not None and self.height < 2:
            raise ValueError("truncation height must be >= 2")
        object.__setattr__(self, "p", check_prime(self.p))


@dataclass(frozen=True)
class TorTable:
    """Bigraded dimensions Tor_{n,m} up to internal degree max_internal."""

    p: int
    max_internal: int
    dims: dict

    def dim(self, n: int, m: int) -> int:
        return self.dims.get((n, m), 0)

    def total_series(self, d_max: int) -> list[int]:
        out = [0] * (d_max + 1)
        for (n, m), v in self.dims.items():
            if n + m <= d_max:
                out[n + m] += v
        return out

    def nonzero(self) -> list:
        return sorted((nm, v) for nm, v in self.dims.items() if v)


# A resolution is (levels, diffs): levels[n] lists the internal degrees of the
# free generators in homological degree n; diffs[n] maps level n+1 to level n,
# entries (c, k) standing for c * u^k with c a plain integer (p survives in c).
def _resolution(base: BaseRing, right: str, n_internal: int):
    du = 2  # |u|
    if base.coefficients == "zp":
        if right == "zp":
            return [[0], [du]], [[[(1, 1)]]]
        if right == "fpu":
            return [[0], [0]], [[[(base.p, 0)]]]
        if right == "fp":
            # Koszul complex on the regular sequence (p, u)
            levels = [[0], [0, du], [du]]
            d1 = [[(base.p, 0), (1, 1)]]
            d2 = [[(-1, 1)], [(base.p, 0)]]
            return levels, [d1, d2]
        raise ValueError(f"unsupported right module {right!r} over zp[u]")
    # fp coefficients
    if right == "zp":
        raise ValueError("the p-adic module only makes sense over zp coefficients")
    if base.height is None:
        if right == "fpu":
            return [[0]], []
        if right == "fp":
            return [[0], [du]], [[[(1, 1)]]]
        raise ValueError(f"unsupported right module {right!r} over fp[u]")
    # truncated base: periodic resolution of fp, alternating u and u^{h-1}
    if right == "fpu":
        return [[0]], []
    if right != "fp":
        raise ValueError(f"unsupported right module {right!r} over truncated base")
    h = base.height
    levels = [[0]]
    diffs = []
    k = 0
    while True:
        k += 1
        if k % 2:
            deg = ((k // 2) * h + 1) * du
            entry = (1, 1)
        else:
            deg = (k // 2) * h * du
            entry = (1, h - 1)
        if deg > n_internal:
            break
        levels.append([deg])
        diffs.append([[entry]])
    return levels, diffs


def koszul_tor(base: BaseRing, left: str, right: str, n_internal: int) -> TorTable:
    """Tor_{n,m}(F_p, right) over the base ring, for internal degrees m <= N.

    F_p, the only left module, is p-torsion, so the tensored complex is an
    F_p-complex: one basis vector per resolution generator, and the u^0 part
    of each resolution entry, mod p.  Any other left module is rejected.
    """
    if left != "fp":
        raise ValueError(f"left module {left!r} is not F_p")
    n_internal = check_index(n_internal, "n_internal")
    levels, diffs = _resolution(base, right, n_internal)
    p = base.p
    dims: dict = {}
    for t in range(n_internal + 1):
        # the generators of internal degree t, per homological degree
        spaces = [[g for g, a in enumerate(level) if a == t] for level in levels]
        mats = {}  # mats[n + 1]: level n + 1 -> level n
        for n in range(len(levels) - 1):
            m = np.zeros((len(spaces[n]), len(spaces[n + 1])), dtype=np.int64)
            for i, gi in enumerate(spaces[n]):
                for j, gj in enumerate(spaces[n + 1]):
                    c, k = diffs[n][gi][gj]
                    if k == 0:
                        m[i, j] = c % p
            mats[n + 1] = m
        sizes = {n: len(space) for n, space in enumerate(spaces)}
        for n, h in homology_dims(p, sizes, mats).items():
            dims[(n, t)] = h
    return TorTable(p, n_internal, dims)


@dataclass(frozen=True)
class Recognition:
    presentation: Presentation | None
    forced: bool
    note: str


def recognize_free_presentation(series: list[int], p: int) -> Recognition:
    """Match a dimension series against a free graded-commutative algebra.

    Odd-degree generators are exterior, even-degree polynomial.  Returns the
    tensor presentation whose series reproduces the input exactly, or refuses.
    Uniqueness of the algebra structure is only asserted (forced=True) for a
    single exterior generator whose square lands in a zero degree.
    """
    n_max = len(series) - 1
    if n_max < 0 or series[0] != 1:
        return Recognition(None, False, "series does not start with 1")
    resid = list(series)
    gens = []
    for d in range(1, n_max + 1):
        while resid[d] > 0:
            same = sum(1 for g in gens if g.bidegree == (d, 0))
            name = f"x{d}" if same == 0 else f"x{d}_{same}"
            if d % 2:
                gens.append(ext(name, (d, 0)))
                # divide the series by (1 + x^d)
                for k in range(d, n_max + 1):
                    resid[k] -= resid[k - d]
            else:
                gens.append(poly(name, (d, 0)))
                # divide by 1/(1 - x^d): multiply by (1 - x^d)
                for k in range(n_max, d - 1, -1):
                    resid[k] -= resid[k - d]
            if any(c < 0 for c in resid):
                return Recognition(None, False, f"negative residual at degree {d}")
    if resid != [1] + [0] * n_max:
        return Recognition(None, False, "residual series is not 1")
    pres = Presentation(p, tuple(gens), n_max)
    forced = (
        len(gens) == 1
        and gens[0].kind == EXTERIOR
        and (2 * gens[0].total_degree > n_max or series[2 * gens[0].total_degree] == 0)
    )
    note = "structure forced" if forced else "series match only"
    return Recognition(pres, forced, note)


def hochschild_homology(pres: Presentation, s_max: int, t_max: int) -> dict:
    """HH_{s,t} of the presented algebra via the normalized cyclic bar complex.

    Chains in simplicial degree s are A (x) Abar^{(x) s} with Abar the
    positive-degree part; the rotating face carries the Koszul sign for
    moving the last tensor factor to the front.  Every face keeps the
    internal degree t, so the chains are grouped by t as they are built and
    d_s is one block per t.  Refuses past BAR_CAP chains.
    """
    if t_max > pres.max_degree:
        raise alg.BeyondTruncation(t_max, pres.max_degree)
    table = alg.monomial_table(pres)
    monos = []
    for (n, m), ms in sorted(table.items()):
        if n + m <= t_max:
            monos.extend((mono, n + m) for mono in ms)
    monos.sort(key=lambda t: (t[1], t[0]))
    positive = [(mono, d) for mono, d in monos if d > 0]

    # chains[s][t]: tuples (m0, m1, ..., ms) of total degree t <= t_max
    chains: list[dict] = []
    total = 0
    for s in range(s_max + 2):
        level: dict = {}

        def build(prefix, deg, remaining):
            if remaining == 0:
                level.setdefault(deg, []).append(tuple(prefix))
                return
            for mono, d in positive:
                if deg + d > t_max:
                    continue
                prefix.append(mono)
                build(prefix, deg + d, remaining - 1)
                prefix.pop()

        for m0, d0 in monos:
            build([m0], d0, s)
        total += sum(map(len, level.values()))
        if total > BAR_CAP:
            raise ResourceLimit(f"bar complex size {total} exceeds the cap {BAR_CAP}")
        chains.append(level)

    def boundary(s, t):
        """Matrix of d_s: chains[s][t] -> chains[s-1][t]."""
        sources = chains[s].get(t, [])
        index = {c: i for i, c in enumerate(chains[s - 1].get(t, []))}
        mat = np.zeros((len(index), len(sources)), dtype=np.int64)

        def emit(j, x, y, head, tail, sign):
            """Add sign * (head, x * y, tail) to column j."""
            koszul, mono = alg.multiply_monomials(pres, x, y)
            i = index.get(head + (mono,) + tail) if koszul else None
            if i is not None:
                mat[i, j] = (mat[i, j] + sign * koszul) % pres.p

        for j, c in enumerate(sources):
            # inner faces: merge slots i and i+1; products of positive
            # factors stay positive, so no degeneracies appear
            for i in range(s):
                emit(j, c[i], c[i + 1], c[:i], c[i + 2 :], (-1) ** i)
            # rotating face: move the last factor to the front, with the
            # Koszul sign for passing everything before it
            last = alg.total_degree(pres, c[s])
            emit(j, c[s], c[0], (), c[1:s], (-1) ** (s + last * (t - last)))
        return mat

    dims: dict = {}
    for t in range(t_max + 1):
        sizes = {s: len(chains[s].get(t, [])) for s in range(s_max + 1)}
        mats = {s: boundary(s, t) for s in range(1, s_max + 2)}
        for s, h in homology_dims(pres.p, sizes, mats).items():
            dims[(s, t)] = h
    return dict(sorted(dims.items()))
