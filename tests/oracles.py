"""Brute-force oracles kept independent of the library's computation paths.

These recompute Tor and Hochschild homology from dense unnormalized bar
complexes by raw rank counting, so the library's resolution-based and
normalized-complex answers can be checked against a second route.  The
exact-couple loop is also kept here in its unmemoized form, which rebuilds
every cycle space and subquotient at every (r, n, d).  quotient_dims ranks
the whole relation ideal of a candidate presentation, where
dga.verify_presentation_iso counts standard monomials.
"""

import itertools

import numpy as np

from gradss import algebra as alg
from gradss import filtered
from gradss.filtered import SSRun
from gradss.linfp import FpMatrix, Subquotient, kernel_basis, matmul, rank


def truncated_poly_basis(height, var_degree, t_max):
    """Monomial degrees of F_p[u]/(u^height) up to t_max (height None: no cut)."""
    out = []
    k = 0
    while k * var_degree <= t_max and (height is None or k < height):
        out.append(k * var_degree)
        k += 1
    return out


def bar_tor_fp_fp(p, height, var_degree, n_max, t_max):
    """Tor_{n,t}(F_p, F_p) over F_p[u]/(u^height) from the reduced bar complex.

    B_n has basis the n-tuples of positive u-powers; only the inner face maps
    survive, merging adjacent powers (zero past the truncation).
    """
    degrees = [d for d in truncated_poly_basis(height, var_degree, t_max) if d > 0]
    levels = []
    for n in range(n_max + 2):
        level = [
            combo
            for combo in itertools.product(degrees, repeat=n)
            if sum(combo) <= t_max
        ]
        levels.append(sorted(level))
    index = [{c: i for i, c in enumerate(level)} for level in levels]

    def merge_ok(a, b):
        # u^i * u^j, degrees track exponents exactly
        if height is None:
            return True
        return (a + b) // var_degree < height

    mats = []
    for n in range(1, n_max + 2):
        mat = np.zeros((len(levels[n - 1]), len(levels[n])), dtype=np.int64)
        for j, c in enumerate(levels[n]):
            for i in range(n - 1):
                if not merge_ok(c[i], c[i + 1]):
                    continue
                key = c[:i] + (c[i] + c[i + 1],) + c[i + 2 :]
                mat[index[n - 1][key], j] = (
                    mat[index[n - 1][key], j] + (-1) ** (i + 1)
                ) % p
        mats.append(mat)

    dims = {}
    for n in range(n_max + 1):
        by_degree = {}
        for i, c in enumerate(levels[n]):
            by_degree.setdefault(sum(c), []).append(i)
        for t, idxs in by_degree.items():
            sel = np.array(idxs)
            if n == 0:
                cycles = len(idxs)
            else:
                cycles = len(kernel_basis(FpMatrix(p, mats[n - 1][:, sel])))
            nxt = [i for i, c in enumerate(levels[n + 1]) if sum(c) == t]
            incoming = rank(FpMatrix(p, mats[n][:, np.array(nxt)])) if nxt else 0
            if cycles - incoming:
                dims[(n, t)] = cycles - incoming
    return dims


def dense_hochschild(p, height, var_degree, s_max, t_max):
    """HH_{s,t} of F_p[u]/(u^height) from the full unnormalized cyclic bar complex.

    Chains are (s+1)-tuples of arbitrary u-powers (units allowed), with the
    plain simplicial faces; everything is even-degree here so no Koszul signs
    arise.
    """
    degrees = truncated_poly_basis(height, var_degree, t_max)
    levels = []
    for s in range(s_max + 2):
        level = [
            combo
            for combo in itertools.product(degrees, repeat=s + 1)
            if sum(combo) <= t_max
        ]
        levels.append(sorted(level))
    index = [{c: i for i, c in enumerate(level)} for level in levels]

    def merged(a, b):
        if height is not None and (a + b) // var_degree >= height:
            return None
        return a + b

    mats = []
    for s in range(1, s_max + 2):
        mat = np.zeros((len(levels[s - 1]), len(levels[s])), dtype=np.int64)
        for j, c in enumerate(levels[s]):
            for i in range(s):
                v = merged(c[i], c[i + 1])
                if v is None:
                    continue
                key = c[:i] + (v,) + c[i + 2 :]
                mat[index[s - 1][key], j] = (
                    mat[index[s - 1][key], j] + (-1) ** i
                ) % p
            v = merged(c[s], c[0])
            if v is not None:
                key = (v,) + c[1:s]
                mat[index[s - 1][key], j] = (
                    mat[index[s - 1][key], j] + (-1) ** s
                ) % p
        mats.append(mat)

    dims = {}
    for s in range(s_max + 1):
        by_degree = {}
        for i, c in enumerate(levels[s]):
            by_degree.setdefault(sum(c), []).append(i)
        for t, idxs in by_degree.items():
            sel = np.array(idxs)
            if s == 0:
                cycles = len(idxs)
            else:
                cycles = len(kernel_basis(FpMatrix(p, mats[s - 1][:, sel])))
            nxt = [i for i, c in enumerate(levels[s + 1]) if sum(c) == t]
            incoming = rank(FpMatrix(p, mats[s][:, np.array(nxt)])) if nxt else 0
            if cycles - incoming:
                dims[(s, t)] = cycles - incoming
    return dims


def naive_exact_couple_run(fc, r_max=None):
    """filtered.exact_couple_run without its memos: every Z and every
    Subquotient is rebuilt at every (r, n, d), through filtered._cycle_space."""
    stable = fc.top_level + 1
    if r_max is None:
        r_max = stable
    r_max = max(r_max, stable)
    pages = []
    diffs = []
    for r in range(1, r_max + 1):
        dims = {}
        cells = {}
        for d in fc.degrees:
            for n in range(0, fc.top_level + 1):
                m = d - n
                z = filtered._cycle_space(fc, n, r, d)
                if not z:
                    continue
                dead = filtered._cycle_space(fc, n - 1, r - 1, d)
                for v in filtered._cycle_space(fc, n + r - 1, r - 1, d + 1):
                    dead.append(matmul(fc.bmat(d + 1), v, fc.p))
                sub = Subquotient(fc.p, fc.dims[d], z, dead)
                if sub.reps:
                    dims[(n, m)] = len(sub.reps)
                    cells[(n, m)] = sub
        dmat = {}
        for (n, m), sub in cells.items():
            target = cells.get((n - r, m + r - 1))
            if target is None:
                continue
            d = n + m
            cols = []
            for v in sub.reps:
                x = target.coords(matmul(fc.bmat(d), v, fc.p))
                if x is None:
                    raise AssertionError("differential image outside the page")
                cols.append(((-1) ** d * x) % fc.p)
            dmat[(n, m)] = np.stack(cols, axis=1)
        pages.append((r, dims))
        diffs.append((r, dmat))
    einf = pages[stable - 1][1]
    return SSRun(fc.p, pages, diffs, dict(einf), stable)


def quotient_dims(candidate, relations, bidegrees, memo=None):
    """Yield (bd, dim of candidate / (relations) in bd) for each bd, lazily.

    In bd the ideal is spanned by the rows cofactor * relation, over every
    nonzero relation and every candidate monomial of the complementary
    bidegree; the quotient dimension is the monomial count minus the rank of
    those rows, one plain dense rank per bidegree.  A caller that ranks many
    relation sets sharing most relations can pass one `memo` dict to all
    calls, keyed by (relation terms, bd), so each row block is built once.
    """
    table = alg.monomial_table(candidate)
    rels = [(alg.bidegree_of(candidate, r), tuple(r.items())) for r in relations if r]
    memo = {} if memo is None else memo
    for bd in bidegrees:
        basis = table.get(bd, [])
        index = {m: i for i, m in enumerate(basis)}
        blocks = [np.zeros((0, len(basis)), dtype=np.int64)]
        for rbd, terms in rels:
            cofactors = table.get((bd[0] - rbd[0], bd[1] - rbd[1]))
            if not cofactors:
                continue
            if (terms, bd) not in memo:
                rows = np.zeros((len(cofactors), len(basis)), dtype=np.int64)
                for row, cofactor in enumerate(cofactors):
                    for term, c in terms:
                        sign, prod = alg.multiply_monomials(candidate, cofactor, term)
                        if sign:
                            rows[row, index[prod]] += sign * c
                memo[terms, bd] = rows
            blocks.append(memo[terms, bd])
        yield bd, len(basis) - rank(FpMatrix(candidate.p, np.concatenate(blocks)))
