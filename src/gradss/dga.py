"""Derivations on presented algebras and their degreewise homology.

A derivation is declared on generators and extended to monomials by the
signed Leibniz rule d(xy) = d(x) y + (-1)^{|x|} x d(y), with |x| the total
degree.  The bidegree shift is (-r, r-1) for a declared page r >= 1, stated
for every module by d_target and d_source, so the total degree always drops
by one and homology at total degree d is certified once every monomial of
degree d + 1 is enumerated: the certified bound is N - 1.

d is applied through one matrix per bidegree, d_matrix: its columns are the
Leibniz expansions of the bidegree's monomials, built once per derivation, and
d^2 = 0, homology and every element-level image read it.  The expansion,
d_monomial, runs the Leibniz rule on monomials: each term is two
multiply_monomials calls on exponent tuples, and the coefficients are summed
mod p in one dict, with no element arithmetic.  extend_derivation
returns one Derivation per (presentation, page, images), so a page turn and a
homology of the same differential share those matrices.  A derivation knows
its support, the sorted bidegrees out of which d is nonzero, found once: a
matrix is built only where a monomial holds an acting generator and the
target holds monomials.  d^2 = 0, homology and a page turn visit only the
support and its targets.  Each such bidegree's homology is a
linfp.Subquotient of kernel modulo image, which also gives the coordinates of
a class in the homology basis; every other bidegree is its own homology, the
whole-space Subquotient with its monomials as representatives, and needs
neither a matrix nor row reduction.

Page is the one store of classes, for a spectral-sequence page and for a DGA
homology alike (homology of d_r on E_r is E_{r+1}): one Subquotient per
bidegree; representatives as elements are built from it on first read, a
whole cell prints its monomials with no element built, and class counts per
bidegree and per total degree (through a column index) read it directly.
Page.vector_coords is the one way to take class coordinates of a vector,
Page.is_boundary the one test of "zero modulo the boundaries", and
image_coords the one way to evaluate an element under an
algebra.monomial_map: its coefficient dicts summed into coordinates.

verify_presentation_iso certifies candidate/(relations) = homology degree by
degree: generator representatives must be cycles, a class plus boundaries of
the homology; relations, algebra.RelationSpecs as assemble_abutment reads
them, must become boundaries, and the standard monomials (divisible by no
relation's lex-least term), which span the quotient, must map to a basis of
the homology, one square rank per bidegree.  A generator's kind is one more
relation, g^cap = 0, checked, led and counted like the given ones; each
relation's element is built once, shared with assemble_abutment.  Its one
limit: a relation set that is not a Groebner basis for lex order has too
many standard monomials somewhere and is refused with a dimension mismatch,
never accepted wrongly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

import numpy as np

from . import algebra as alg
from .algebra import Element, Presentation, ZERO
from .linfp import Subquotient, check_index, kernel_basis, matmul, rank


class DifferentialError(ValueError):
    """A generator image violates the declared bidegree shift."""


def d_target(bd, r):
    """The bidegree d_r maps bd to: (n - r, m + r - 1)."""
    return (bd[0] - r, bd[1] + r - 1)


def d_source(bd, r):
    """The bidegree d_r maps to bd from: (n + r, m - r + 1)."""
    return (bd[0] + r, bd[1] - r + 1)


@dataclass
class Derivation:
    """Degree -1 derivation with bidegree shift (-page, page - 1)."""

    base: Presentation
    page: int
    images: dict  # generator name -> Element (missing means zero)
    # bidegree -> matrix of d out of it, filled by d_matrix
    matrices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def target(self, bd):
        return d_target(bd, self.page)

    @cached_property
    def table(self) -> dict:
        """The base's monomial table, looked up once: a cache hit on a
        presentation equal to, but not the same object as, the cached key
        costs an __eq__."""
        return alg.monomial_table(self.base)

    @cached_property
    def support(self) -> list:
        """The sorted bidegrees out of which d is nonzero.

        Only a bidegree with a monomial on an acting generator and monomials
        in its target can be one, so a matrix is built for those alone.
        """
        acting = [i for i, g in enumerate(self.base.generators) if g.name in self.images]
        return [
            bd for bd, monos in sorted(self.table.items())
            if self.target(bd) in self.table
            and any(mono[i] for mono in monos for i in acting)
            and d_matrix(self, bd).any()
        ]


def extend_derivation(pres: Presentation, gen_images: dict, page: int) -> Derivation:
    """Validate generator images and package them as a derivation.

    Every image must be homogeneous of bidegree = generator bidegree plus
    (-page, page - 1); zero images may simply be omitted.  Every call is
    validated; equal page and images then give the same Derivation, kept on
    the presentation, so its d_matrix blocks are built once for all callers.
    """
    if page < 1:
        raise DifferentialError(f"page {page} must be >= 1")
    images = {}
    for name, img in gen_images.items():
        g = pres.gen(name)
        if not img:
            continue
        bd = alg.bidegree_of(pres, img)
        want = d_target(g.bidegree, page)
        if bd != want:
            raise DifferentialError(
                f"d({name}) has bidegree {bd}, expected {want}"
            )
        images[name] = img
    key = ("derivation", page, frozenset(images.items()))
    if key not in pres._built:
        pres._built[key] = Derivation(pres, page, images)
    return pres._built[key]


def d_monomial(d: Derivation, mono) -> Element:
    """Leibniz expansion of d on one monomial, on exponent tuples.

    For m = g_1^{e_1} ... g_k^{e_k} the i-th term is
    (-1)^{|prefix|} e_i (prefix g_i^{e_i - 1}) d(g_i) suffix.  Each monomial
    of d(g_i) is multiplied in place between the two halves, two
    multiply_monomials calls whose Koszul signs are the only reordering
    signs, and the coefficients are summed in one dict, reduced mod p once
    by algebra.element.  A term with e_i = 0 mod p vanishes; any other
    raises BeyondTruncation when the image, of total degree |m| - 1, lies
    past the box.
    """
    pres = d.base
    p = pres.p
    unit = pres.unit_monomial
    image_degree = sum(map(mul, mono, pres.degrees)) - 1
    out: dict = {}
    prefix_degree = 0
    for i, (e, g, deg) in enumerate(zip(mono, pres.generators, pres.degrees)):
        img = d.images.get(g.name) if e % p else None
        if img:
            if image_degree > pres.max_degree:
                raise alg.BeyondTruncation(image_degree, pres.max_degree)
            left = mono[:i] + (e - 1,) + unit[i + 1 :]
            right = unit[: i + 1] + mono[i + 1 :]
            c = -e if prefix_degree & 1 else e
            for m, cm in img.items():
                s1, prod = alg.multiply_monomials(pres, left, m)
                if s1:
                    s2, prod = alg.multiply_monomials(pres, prod, right)
                    if s2:
                        out[prod] = out.get(prod, 0) + s1 * s2 * c * cm
        prefix_degree += e * deg
    return alg.element(pres, out)


def d_matrix(d: Derivation, bd) -> np.ndarray:
    """The matrix of d from bd to d.target(bd) in the monomial bases.

    Column j holds the coordinates of d_monomial on the j-th monomial of bd.
    Built once per bidegree and kept on the derivation; with no monomials in
    the target it has no rows and nothing is expanded.
    """
    mat = d.matrices.get(bd)
    if mat is None:
        table = d.table
        basis = table.get(bd, [])
        target = table.get(d.target(bd), [])
        mat = np.zeros((len(target), len(basis)), dtype=np.int64)
        if target:
            index = alg.basis_positions(d.base, d.target(bd))
            for j, mono in enumerate(basis):
                for m, c in d_monomial(d, mono).items():
                    mat[index[m], j] = c
        d.matrices[bd] = mat
    return mat


def d_element(d: Derivation, el: Element) -> Element:
    """d(el), read from d_matrix on the support and zero off it."""
    if not el:
        return ZERO
    pres = d.base
    bd = alg.bidegree_of(pres, el)
    if bd not in d.support:
        return ZERO
    v = matmul(d_matrix(d, bd), coords(pres, bd, el), pres.p)
    return element_from_coords(pres, d.target(bd), v) if v.any() else ZERO


def check_d_squared(d: Derivation, n_max: int) -> list:
    """All (monomial, d(d(monomial))) pairs that fail d^2 = 0 up to degree n_max.

    d^2 can be nonzero only out of a support bidegree whose target is in the
    support too, so only those pairs are multiplied, in bidegree order.
    """
    pres = d.base
    support = set(d.support)
    violations = []
    for bd in d.support:
        target = d.target(bd)
        if sum(bd) > n_max or target not in support:
            continue
        dd = matmul(d_matrix(d, target), d_matrix(d, bd), pres.p)
        for j in np.flatnonzero(dd.any(axis=0)):
            img = element_from_coords(pres, d.target(target), dd[:, j])
            violations.append((d.table[bd][j], img))
    return violations


def coords(pres: Presentation, bd, el: Element) -> np.ndarray:
    """Coordinate vector of el in the monomial basis of bidegree bd."""
    index = alg.basis_positions(pres, bd)
    v = np.zeros(len(index), dtype=np.int64)
    for mono, c in el.items():
        v[index[mono]] = c % pres.p
    return v


def image_coords(pres: Presentation, bd, f, el) -> np.ndarray:
    """Coordinates at bd of sum c * f(m) over the terms c * m of el, for f an
    algebra.monomial_map into pres; zero-length where bd holds no monomial."""
    p = pres.p
    index = alg.basis_positions(pres, bd)
    v = np.zeros(len(index), dtype=np.int64)
    for mono, c in el.items():
        for m, cm in f(mono).items():
            v[index[m]] = (v[index[m]] + c * cm % p) % p
    return v


def element_from_coords(pres: Presentation, bd, v) -> Element:
    """The element with coordinates v (reduced mod p) in the basis of bd.

    The basis of one bidegree is homogeneous, so no check is needed.
    """
    basis = alg.basis_in_bidegree(pres, bd)
    v = np.mod(v, pres.p)
    return Element({basis[i]: int(v[i]) for i in np.flatnonzero(v)})


class PageError(ValueError):
    """A differential specification is inconsistent with the page."""


@dataclass
class Page:
    """Classes of a bigraded presentation on page r, stored one way:
    `subquotients[bd]`, a linfp.Subquotient in the monomial coordinates of bd.

    A spectral-sequence page and a DGA homology (the page after d) are both
    Pages, an immutable snapshot by convention.  Classes are certified
    through total degree cert_bound.  Elements are built from a subquotient
    on the first read of its reps: a whole cell's reps are its basis
    monomials, any other cell's go through element_from_coords.
    """

    pres: Presentation
    r: int
    cert_bound: int
    subquotients: dict
    _reps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _table(self) -> dict:
        # looked up once: a cache hit on a presentation equal to, but not the
        # same object as, the cached key costs an __eq__
        return alg.monomial_table(self.pres)

    @cached_property
    def _columns(self) -> dict:
        columns = {}
        for n, m in sorted(bd for bd, sub in self.subquotients.items() if len(sub)):
            columns.setdefault(n + m, []).append(n)
        return columns

    @cached_property
    def _totals(self) -> dict:
        totals = {}
        for (n, m), sub in self.subquotients.items():
            totals[n + m] = totals.get(n + m, 0) + len(sub)
        return totals

    @property
    def survival_bound(self) -> int:
        """Total degree through which a class is certified to survive: a
        differential into degree cert_bound comes from past the certified box."""
        return self.cert_bound - 1

    def reps(self, bd) -> list:
        """The classes at bd as elements, [] where none are stored."""
        reps = self._reps.get(bd)
        if reps is None:
            sub = self.subquotients.get(bd)
            if sub is None:
                reps = []
            elif sub.is_whole:
                reps = [Element({mono: 1}) for mono in self._table[bd]]
            else:
                reps = [element_from_coords(self.pres, bd, v) for v in sub.reps]
            self._reps[bd] = reps
        return reps

    def class_strs(self, bd) -> list:
        """The classes at bd as strings, for printing: a whole cell's are its
        basis monomials, printed with no element built; any other cell's are
        its reps."""
        sub = self.subquotients[bd]
        if sub.is_whole:
            return [alg.monomial_str(self.pres, mono) for mono in self._table[bd]]
        return [alg.element_str(self.pres, rep) for rep in self.reps(bd)]

    def vector_coords(self, bd, v) -> np.ndarray | None:
        """Class coordinates of v, a vector in the monomial basis of bd; None
        when v is no class plus boundaries there, or nothing is stored at bd."""
        sub = self.subquotients.get(bd)
        return None if sub is None else sub.coords(v)

    def is_boundary(self, bd, v) -> bool:
        """Whether v, a vector in the monomial basis of bd, is zero modulo the
        boundaries there: v is zero or zero-length, or a class plus
        boundaries whose class coordinates are all zero.  Exact, since the
        reps and boundaries of a cell are independent."""
        if not np.count_nonzero(v):
            return True
        x = self.vector_coords(bd, v)
        return x is not None and not x.any()

    def class_coords(self, el: Element) -> np.ndarray:
        """Coordinates of el in the surviving basis of its bidegree.

        Raises PageError when el is not a combination of surviving classes
        and boundaries.
        """
        if not el:
            return np.zeros(0, dtype=np.int64)
        bd = alg.bidegree_of(self.pres, el)
        x = self.vector_coords(bd, coords(self.pres, bd, el))
        if x is None:
            raise PageError("element is not a class on this page")
        return x

    def is_surviving(self, el: Element) -> bool:
        try:
            return bool(np.any(self.class_coords(el)))
        except PageError:
            return False

    def classes(self):
        """(bd, index, rep) for every class, in bidegree order."""
        for bd in sorted(self.subquotients):
            for i, rep in enumerate(self.reps(bd)):
                yield bd, i, rep

    def dim(self, bd) -> int:
        sub = self.subquotients.get(bd)
        return 0 if sub is None else len(sub)

    def dims_by_bidegree(self) -> dict:
        return {bd: len(sub) for bd, sub in sorted(self.subquotients.items()) if len(sub)}

    def dim_total(self, d: int) -> int:
        """The number of classes of total degree d, all totals counted in one pass."""
        return self._totals.get(d, 0)

    def columns(self, d: int) -> list:
        """Sorted columns n of the nonzero cells (n, d - n), indexed once."""
        return self._columns.get(d, [])


def homology(pres: Presentation, d: Derivation, n_max: int) -> Page:
    """Per-bidegree homology via kernel/image subquotients: the page after d,
    certified to n_max - 1, since boundaries out of degree n_max + 1 are
    invisible.  Each cell's reps, read as elements, are actual cycles.

    Row reduction runs only on d's support, where the kernel is taken, and on
    its targets, which hold the boundaries.  Every other bidegree is
    untouched: its homology is the whole space, with its monomials as
    representatives, and no matrix is read there.  Requires d^2 = 0 on the
    enumerated monomials through degree n_max + 1, where the boundaries into
    degree n_max come from; violations propagate as DifferentialError.
    """
    n_max = check_index(n_max, "n_max")
    if n_max > pres.max_degree:
        raise alg.BeyondTruncation(n_max, pres.max_degree)
    bad = check_d_squared(d, n_max + 1)
    if bad:
        mono, img = bad[0]
        raise DifferentialError(
            f"d^2 != 0 on {alg.monomial_str(pres, mono)}: {alg.element_str(pres, img)}"
        )
    table = d.table
    support = set(d.support)
    targets = {d.target(bd) for bd in support}
    subs: dict = {}
    for bd in sorted(table):
        if sum(bd) > n_max:
            continue
        dim = len(table[bd])
        if bd not in support and bd not in targets:
            subs[bd] = Subquotient.whole(pres.p, dim)
            continue
        # boundaries: the nonzero columns of d out of one shift up
        source = d_source(bd, d.page)
        bvecs = []
        if source in support:
            incoming = d_matrix(d, source)
            bvecs = [incoming[:, j] for j in np.flatnonzero(incoming.any(axis=0))]
        if bd in support:
            cycles = kernel_basis(pres.p, d_matrix(d, bd))
        else:
            cycles = np.eye(dim, dtype=np.int64)
        subs[bd] = Subquotient(pres.p, dim, cycles, bvecs)
    return Page(pres, d.page + 1, n_max - 1, subs)


@dataclass
class IsoReport:
    """Outcome of checking a candidate presentation against a homology."""

    bound: int
    generator_failures: list
    relation_failures: list  # (label, bd, reason) of relations that survive
    surjectivity_failures: list  # (bd, rank of f(standard monomials), dim H)
    dimension_mismatches: list  # (bd, count of standard monomials, dim H)
    skipped_relations: list  # (label, bd) of relations past the bound

    def failures(self) -> dict:
        """The non-empty failure lists, by field name."""
        names = ("generator_failures", "relation_failures",
                 "surjectivity_failures", "dimension_mismatches")
        return {name: getattr(self, name) for name in names if getattr(self, name)}

    @property
    def ok(self) -> bool:
        return not self.failures()

    def to_json_dict(self) -> dict:
        return {
            "kind": "presentation-iso",
            "bound": self.bound,
            "skipped_relations": len(self.skipped_relations),
            "ok": self.ok,
            **self.failures(),
        }


def verify_presentation_iso(
    H: Page, candidate: Presentation, gen_reps: dict, relations: list
) -> IsoReport:
    """Certify H = candidate/(relations) as bigraded algebras up to degree
    bound = min(H.cert_bound, candidate.max_degree).

    (pre) Each generator's representative must be a cycle: a class plus
    boundaries of H at its bidegree, read by H.vector_coords.  A generator
    where H stores no cell lives outside the box H was computed in.

    (a) Every relation, an algebra.RelationSpec, must map to a boundary, read
    by H.is_boundary (an image that is no class is listed too), so the
    algebra map f factors through the quotient by the relation ideal I.
    A generator's kind is a relation too: g^cap = 0, labelled "g^cap", is
    checked for each capped generator g (Presentation.caps) unless a given
    relation is already that power alone, as rel1 = u^{p-1} is.  A relation
    past the bound is skipped and counted, a kind power included.
    (b) In every bidegree the standard monomials S, those divisible by no
    relation's lead, must satisfy rank f(S) = |S| = dim H.

    The lead of a relation is its lex-least exponent tuple, min(rel.coeffs).
    Lex order is compatible with multiplying monomials, so rewriting a lead
    multiple into the other terms of its relation only reaches lex-greater
    monomials of the same finite bidegree and terminates: S spans the
    quotient.  Given (a), f then maps the quotient onto span f(S), and (b)
    makes that map onto H with dim quotient <= |S| = dim H, so it is an
    isomorphism.  No overlap check is needed: if the relations are not a
    Groebner basis for this order, |S| exceeds dim H and the bidegree is
    listed as a dimension mismatch, so such a set is refused, never accepted.

    f is built multiplicatively, f(m) = f(m / g) * f(g) with g the last
    generator dividing m, and S is an order ideal, so f is evaluated on S and
    the relation terms only, never on all of the candidate algebra; not at
    all where pres has no monomial, since every image there is 0.  A whole H
    cell has no boundaries, so with one standard monomial m there rank f({m})
    is 1 iff f(m) != 0, read from f(m) with no coordinates or row reduction.
    """
    pres = H.pres
    bound = min(H.cert_bound, candidate.max_degree)
    gen_failures = []

    # (pre) generator representatives: right bidegree, honest cycles
    images = {}
    for g in candidate.generators:
        if g.bidegree not in H.subquotients:
            gen_failures.append(f"{g.name}: generator lives outside the box")
            continue
        rep = gen_reps.get(g.name)
        if rep is None or not rep:
            gen_failures.append(f"{g.name}: no representative")
            continue
        bd = alg.bidegree_of(pres, rep)
        if bd != g.bidegree:
            gen_failures.append(f"{g.name}: representative bidegree {bd} != {g.bidegree}")
            continue
        if H.vector_coords(bd, coords(pres, bd, rep)) is None:
            gen_failures.append(f"{g.name}: representative is not a cycle")
            continue
        images[g.name] = rep
    if gen_failures:
        return IsoReport(bound, gen_failures, [], [], [], [])

    # induced map on candidate monomials, one multiply per new monomial
    f = alg.monomial_map(candidate, pres, images)

    # the relations and the unlisted kind powers
    rels = [(spec.label, spec.element(candidate)) for spec in relations]
    listed = {mono for _, rel in rels if len(rel.coeffs) == 1 for mono in rel.coeffs}
    unit = candidate.unit_monomial
    for i, (g, k) in enumerate(zip(candidate.generators, candidate.caps)):
        power = unit[:i] + (k,) + unit[i + 1 :]
        if k and power not in listed:
            rels.append((f"{g.name}^{k}", Element({power: 1})))

    # relations must evaluate to boundaries; each one's lex-least term leads
    table = alg.monomial_table(pres)
    relation_failures = []
    skipped = []
    leads = []
    for label, rel in rels:
        if not rel:
            continue
        rbd = alg.bidegree_of(candidate, rel)
        if sum(rbd) > bound:
            skipped.append((label, rbd))
            continue
        leads.append(min(rel.coeffs))
        if rbd not in table:  # pres holds no monomial there: the image is 0
            continue
        v = image_coords(pres, rbd, f, rel)
        if not H.is_boundary(rbd, v):
            val = element_from_coords(pres, rbd, v)
            relation_failures.append(
                (label, rbd, f"image {alg.element_str(pres, val)} survives")
            )

    # the standard monomials must map to a basis of the homology
    standard = alg.standard_monomials(candidate, leads, bound)
    hom_bds = set(H.dims_by_bidegree())
    surj_failures = []
    dim_mismatches = []
    for bd in sorted(bd for bd in set(standard) | hom_bds if sum(bd) <= bound):
        basis = standard.get(bd, [])
        want = H.dim(bd)
        if bd not in table:
            got = 0
        elif len(basis) == 1 and H.subquotients[bd].is_whole:
            got = 1 if f(basis[0]) else 0  # no boundaries: nonzero spans
        else:
            mapped = (image_coords(pres, bd, f, {m: 1}) for m in basis)
            vecs = [H.vector_coords(bd, v) for v in mapped if np.count_nonzero(v)]
            if any(x is None for x in vecs):
                raise ValueError("element does not represent a homology class")
            got = rank(pres.p, vecs) if want and vecs else 0
        if got < want:
            surj_failures.append((bd, got, want))
        if len(basis) != want:
            dim_mismatches.append((bd, len(basis), want))

    return IsoReport(bound, gen_failures, relation_failures, surj_failures,
                     dim_mismatches, skipped)
