"""Brute-force oracles kept independent of the library's computation paths.

These recompute Tor and Hochschild homology from dense unnormalized bar
complexes by raw rank counting, so the library's resolution-based and
normalized-complex answers can be checked against a second route.  The
exact-couple loop is also kept here in its unmemoized form, which rebuilds
every cycle space (each from its own kernel) and every subquotient at every
(r, n, d), and turns every page.  quotient_dims ranks
the whole relation ideal of a candidate presentation, where
dga.verify_presentation_iso counts standard monomials.  DGA homology is
also computed with a kernel and a two-rref Subquotient in every bidegree,
where dga.homology row-reduces only on d's support and its targets.  The
Leibniz rule on a monomial is also run through Element arithmetic
(multiply, scale, add), where dga.d_monomial multiplies exponent tuples; d^2
= 0 is checked one monomial at a time by that expansion, where
dga.check_d_squared multiplies two matrices per support bidegree; a page is
turned by applying d to one element at a time, where specseq.turn_page maps
each support cell by one matrix product.  A chart is also listed by printing
every class's element and sorting the rows, where cli.chart_rows prints each
class from its cell in the order the rows come out.  These loops visit every bidegree
and never read the support.  Collapse is certified by scanning every target
of every class, where specseq.certify_collapse reads one column index per
page.  An element's image under an algebra map is multiplied out of the
generator images and summed by Element arithmetic (multiply, add, scale),
where algebra.monomial_map multiplies exponent tuples and dga.image_coords
sums coordinates; Element sums and scalar multiples (add, scale) live only
here, since the library sums coefficient dicts and coordinates instead, and
reduce_on_page gives an element's normal form modulo a page's boundaries,
from its own rref of them, where the library asks Page.is_boundary.
check_leibniz checks d_r(xy) = d_r(x) y + (-1)^{n+m} x d_r(y) on every pair
of classes of a page by brute force; only tests call it.
"""

import itertools

import numpy as np

from gradss import algebra as alg
from gradss import dga
from gradss.filtered import SSRun
from gradss.specseq import (
    CollapseCertificate,
    Page,
    PageError,
    init_page,
    spec_images,
    turn_page,
)
from gradss.linfp import Subquotient, kernel_basis, matmul, rank, rref


def add(pres, a, b):
    """a + b, an Element of pres, with its homogeneity checked."""
    coeffs = dict(a.coeffs)
    for mono, c in b.coeffs.items():
        coeffs[mono] = (coeffs.get(mono, 0) + c) % pres.p
    el = alg.Element({m: c for m, c in coeffs.items() if c})
    alg.bidegree_of(pres, el)
    return el


def scale(pres, c, a):
    """c * a, an Element of pres."""
    c %= pres.p
    if c == 0:
        return alg.ZERO
    return alg.Element({m: (c * v) % pres.p for m, v in a.coeffs.items()})


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
                cycles = len(kernel_basis(p, mats[n - 1][:, sel]))
            nxt = [i for i, c in enumerate(levels[n + 1]) if sum(c) == t]
            incoming = rank(p, mats[n][:, np.array(nxt)]) if nxt else 0
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
                cycles = len(kernel_basis(p, mats[s - 1][:, sel]))
            nxt = [i for i, c in enumerate(levels[s + 1]) if sum(c) == t]
            incoming = rank(p, mats[s][:, np.array(nxt)]) if nxt else 0
            if cycles - incoming:
                dims[(s, t)] = cycles - incoming
    return dims


def cycle_space(fc, key):
    """The cycle space with key (d, fn, cut), the kernel of
    bmat(d)[cut:, :fn], from its own kernel_basis, as vectors in C_d."""
    d, fn, cut = key
    out = []
    for v in kernel_basis(fc.p, fc.bmat(d)[cut:, :fn]) if fn else []:
        w = np.zeros(fc.dims[d], dtype=np.int64)
        w[:fn] = v
        out.append(w)
    return out


def naive_exact_couple_run(fc, r_max=None):
    """filtered.exact_couple_run without its memos, its shared kernels or its
    early stop: every Z and every Subquotient is rebuilt at every (r, n, d),
    each Z from its own kernel_basis of the slice, and every page up to
    max(r_max, top level + 1) is turned."""

    def cycles(n, r, d):
        """Z^r(n, d): the kernel of bmat(d)[dim F_{n-r} C_{d-1}:, :dim F_n C_d]."""
        return cycle_space(fc, (d, fc.filtration_dim(n, d), fc.filtration_dim(n - r, d - 1)))

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
                z = cycles(n, r, d)
                if not z:
                    continue
                dead = cycles(n - 1, r - 1, d)
                for v in cycles(n + r - 1, r - 1, d + 1):
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
        yield bd, len(basis) - rank(candidate.p, np.concatenate(blocks))


def reference_d_monomial(d, mono):
    """dga.d_monomial through Element arithmetic: the i-th Leibniz term
    (-1)^{|prefix|} e_i (prefix g_i^{e_i - 1}) d(g_i) suffix is built by
    algebra.multiply, scale and add, the image multiplied in place between
    the two halves.  algebra.multiply raises BeyondTruncation past the box."""
    pres = d.base
    out = alg.ZERO
    prefix_degree = 0
    for i, (e, g) in enumerate(zip(mono, pres.generators)):
        if e and g.name in d.images:
            img = d.images[g.name]
            left = list(mono[: i + 1]) + [0] * (len(mono) - i - 1)
            left[i] = e - 1
            right = [0] * (i + 1) + list(mono[i + 1 :])
            term = alg.multiply(pres, alg.element(pres, {tuple(left): e}), img)
            term = alg.multiply(pres, term, alg.element(pres, {tuple(right): 1}))
            out = add(pres, out, scale(pres, (-1) ** prefix_degree, term))
        prefix_degree += e * g.total_degree
    return out


def reference_check_d_squared(d, n_max):
    """dga.check_d_squared on elements: every monomial is expanded by
    reference_d_monomial, then every term of its image, and the results
    summed."""
    pres = d.base
    violations = []
    for (n, m), monos in sorted(alg.monomial_table(pres).items()):
        if n + m > n_max:
            continue
        for mono in monos:
            v = alg.ZERO
            for term, c in reference_d_monomial(d, mono).items():
                v = add(pres, v, scale(pres, c, reference_d_monomial(d, term)))
            if v:
                violations.append((mono, v))
    return violations


def reference_homology(pres, d, n_max):
    """dga.homology with a kernel and a checked Subquotient in every bidegree,
    d^2 = 0 checked by reference_check_d_squared through degree n_max + 1 (the
    sources of the boundaries) and every representative built up front by the
    homogeneity-checking algebra.element.  Returns the homology, a dga.Page,
    and those representatives, {bd: list of elements}."""
    if n_max > pres.max_degree:
        raise alg.BeyondTruncation(n_max, pres.max_degree)
    bad = reference_check_d_squared(d, n_max + 1)
    if bad:
        mono, img = bad[0]
        raise dga.DifferentialError(
            f"d^2 != 0 on {alg.monomial_str(pres, mono)}: {alg.element_str(pres, img)}"
        )
    table = alg.monomial_table(pres)
    reps, subs = {}, {}
    for (n, m), basis in sorted(table.items()):
        if n + m > n_max:
            continue
        mat = dga.d_matrix(d, (n, m))
        if len(mat):
            cycles = kernel_basis(pres.p, mat)
        else:
            cycles = list(np.eye(len(basis), dtype=np.int64))
        source = (n + d.page, m - d.page + 1)
        bvecs = []
        if source in table:
            incoming = dga.d_matrix(d, source)
            bvecs = [incoming[:, j] for j in np.flatnonzero(incoming.any(axis=0))]
        sub = subs[n, m] = Subquotient(pres.p, len(basis), cycles, bvecs)
        reps[n, m] = [
            alg.element(pres, {mono: int(c) for mono, c in zip(basis, v)}) for v in sub.reps
        ]
    return Page(pres, d.page + 1, n_max - 1, subs), reps


def reference_map_element(source, target, images, el):
    """The image of el, an element of source, under the algebra map into
    target fixed by images (generator name -> Element), by Element arithmetic:
    each monomial's image is the left-to-right product of its generators'
    images, in generator order, and the terms are summed by add and scale."""
    out = alg.ZERO
    for mono, c in el.items():
        image = alg.element(target, {target.unit_monomial: 1})
        for e, g in zip(mono, source.generators):
            for _ in range(e):
                image = alg.multiply(target, image, images[g.name])
        out = add(target, out, scale(target, c, image))
    return out


def reduce_on_page(page, el):
    """The canonical representative of el modulo the page's boundaries: zero
    at the pivots of their reduced row-echelon form."""
    if not el:
        return alg.ZERO
    pres = page.pres
    bd = alg.bidegree_of(pres, el)
    v = dga.coords(pres, bd, el)
    boundaries = page.subquotients[bd].boundaries
    if boundaries:
        red, pivots = rref(pres.p, np.array(boundaries))
        v = (v - matmul(v[pivots], red[: len(pivots)], pres.p)) % pres.p
    return dga.element_from_coords(pres, bd, v)


def _leibniz(d, el):
    """d on an element, summed from reference_d_monomial on its monomials."""
    out = alg.ZERO
    for mono, c in el.items():
        out = add(d.base, out, scale(d.base, c, reference_d_monomial(d, mono)))
    return out


def reference_turn_page(page, specs):
    """specseq.turn_page with d applied to one element at a time: every
    boundary and class checked on its own, the kernel columns and the new
    boundaries each expanded again."""
    pres = page.pres
    live = [s for s in specs if s.image]
    for spec in live:
        if spec.page != page.r:
            raise PageError(f"spec for page {spec.page} applied on page {page.r}")
    if not live:
        return Page(pres, page.r + 1, page.cert_bound, page.subquotients)
    r = page.r
    images = {}
    for spec in live:
        name = spec.source_generator(pres)
        if not page.is_surviving(spec.source):
            raise PageError(f"differential source {name} is not alive on page {r}")
        if name in images:
            raise PageError(f"two differentials on generator {name}")
        images[name] = spec.image
    d = dga.extend_derivation(pres, images, r)
    for bd in sorted(page.subquotients):
        for v in page.subquotients[bd].boundaries:
            img = _leibniz(d, dga.element_from_coords(pres, bd, v))
            if img and reduce_on_page(page, img):
                raise PageError(f"differential does not preserve boundaries at {bd}")
        for rep in page.reps(bd):
            img = _leibniz(d, rep)
            if img:
                try:
                    page.class_coords(img)
                except PageError:
                    raise PageError(f"differential image of a class at {bd} leaves the page")
            dd = _leibniz(d, img)
            if dd and reduce_on_page(page, dd):
                raise PageError(f"d^2 != 0 on class at {bd}: {alg.element_str(pres, dd)}")
    subs = {}
    for bd in sorted(page.subquotients):
        n, m = bd
        sub = page.subquotients[bd]
        reps = list(sub.reps)
        target = (n - r, m + r - 1)
        if page.reps(bd) and target in page.subquotients:
            tsub = page.subquotients[target]
            cols = [tsub.coords(dga.coords(pres, target, _leibniz(d, x))) for x in page.reps(bd)]
            kernel = kernel_basis(pres.p, np.stack(cols, axis=1))
            reps = [matmul(k, np.array(sub.reps), pres.p) for k in kernel]
        bnd = list(sub.boundaries)
        for x in page.reps((n + r, m - r + 1)):
            img = _leibniz(d, x)
            if img:
                bnd.append(dga.coords(pres, bd, img))
        subs[bd] = Subquotient(pres.p, sub.dim, reps + list(sub.boundaries), bnd)
    return Page(pres, r + 1, page.cert_bound - 1, subs)


def reference_certify_collapse(page):
    """specseq.certify_collapse one class at a time: each class scans every
    r from page.r to its column for the first target holding classes."""
    certified = {}
    uncertified = []
    refusals = []
    survival_bound = page.cert_bound - 1
    for bd in sorted(page.subquotients):
        n, m = bd
        reasons = []
        for i in range(page.dim(bd)):
            if n + m > survival_bound:
                uncertified.append((n, m, i, "beyond-truncation"))
                continue
            if n < page.r:
                reasons.append((i, "column-bound"))
                continue
            blocked = None
            for r in range(page.r, n + 1):
                target = (n - r, m + r - 1)
                if page.dim(target):
                    blocked = (r, target)
                    break
            if blocked is None:
                reasons.append((i, "target-vanishes"))
            else:
                refusals.append((n, m, i, blocked[0], blocked[1]))
        if reasons:
            certified[bd] = tuple(reasons)
    return CollapseCertificate(page.r, certified, uncertified, refusals)


def reference_chart_rows(parsed):
    """cli.chart_rows printing every class through its element: element_str
    on every rep of every emitted page, then the rows sorted by
    (r, n, m, index)."""
    pres = parsed.presentation
    by_page = {}
    for spec in parsed.differentials:
        by_page.setdefault(spec.page, []).append(spec)
    emit = sorted({2} | {r + 1 for r in by_page})
    page = init_page(pres)
    rows = []
    while True:
        if page.r in emit:
            for (n, m), i, rep in page.classes():
                rows.append((page.r, n, m, i + 1, alg.element_str(pres, rep)))
        if page.r >= emit[-1]:
            break
        page = turn_page(page, by_page.get(page.r, []))
    rows.sort(key=lambda t: t[:4])
    return rows


def check_leibniz(page, specs):
    """Violations of d_r(xy) = d_r(x) y + (-1)^{n+m} x d_r(y) on the page.

    Runs over every ordered pair of surviving basis classes whose product
    stays inside the box; both sides are compared as reduced representatives.
    An empty list certifies the Leibniz rule for this page's differential.
    """
    pres = page.pres
    images = spec_images(pres, specs)
    d = dga.extend_derivation(pres, images, page.r) if images else None

    def dd(el):
        if d is None or not el:
            return alg.ZERO
        return dga.d_element(d, el)

    violations = []
    classes = list(page.classes())
    for bd1, i1, x in classes:
        for bd2, i2, y in classes:
            if sum(bd1) + sum(bd2) > pres.max_degree:
                continue
            xy = alg.multiply(pres, x, y)
            lhs = reduce_on_page(page, dd(xy))
            sign = (-1) ** (bd1[0] + bd1[1])
            rhs = add(
                pres,
                alg.multiply(pres, dd(x), y),
                scale(pres, sign, alg.multiply(pres, x, dd(y))),
            )
            if lhs != reduce_on_page(page, rhs):
                violations.append((bd1, i1, bd2, i2))
    return violations
