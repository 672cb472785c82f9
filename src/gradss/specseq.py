"""Multiplicative first-quadrant spectral sequence engine over F_p.

A page stores, per bidegree, surviving classes as elements of the fixed
E2-monomial basis together with the boundary subspace accumulated by earlier
differentials; as vectors, each cell is a linfp.Subquotient, which reduces
elements modulo the boundaries and gives class coordinates.  Products of
classes are computed by multiplying their representatives in the E2 algebra
and reducing modulo those boundaries, so the multiplicative structure stays
effective on every page.

Differentials are only accepted on algebra generators of the E2 presentation
and are extended by the Leibniz rule with the sign (-1)^{n+m} on the right
term; arbitrary class-level specifications are rejected.  Page turning loses
one total degree of certification: boundaries into degree d come from degree
d + 1.

A page turn applies d through its matrix per bidegree (dga.d_matrix): each
cell's classes are mapped by one product, and those images serve the
soundness checks, the kernel and the target cell's new boundaries; a cell
that d neither leaves nor enters carries over as it is.  An E2 cell is the
whole space of its bidegree (linfp.Subquotient.whole) and needs no row
reduction.

Collapse certification is conservative.  A class is certified permanent only
with explicit evidence (all outgoing targets empty, or the whole column to
the left of the page index), and classes within reach of the truncation
boundary are reported as uncertified rather than assumed to survive.  Collapse
and abutment find the occupied cells of a total degree in a per-page column
index, Page.columns, instead of scanning every column.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from .algebra import Element, Presentation, ZERO
from .dga import coords, d_element, d_matrix, element_from_coords, extend_derivation
from .linfp import FpMatrix, Subquotient, kernel_basis, matmul, stack_rows


class PageError(ValueError):
    """A differential specification is inconsistent with the page."""


@dataclass(frozen=True)
class DifferentialSpec:
    """d_page(source) = image, with source a single E2 algebra generator."""

    page: int
    source: Element
    image: Element
    provenance: str = ""

    def source_generator(self, pres: Presentation) -> str:
        monos = list(self.source.coeffs)
        if len(monos) != 1 or self.source.coeffs[monos[0]] != 1:
            raise PageError("differential source must be a single generator class")
        mono = monos[0]
        if sum(mono) != 1:
            raise PageError("differential source must be an algebra generator")
        return pres.generators[mono.index(1)].name


@dataclass
class Cell:
    reps: list       # surviving classes, as E2-monomial elements
    boundaries: list  # accumulated boundary basis, same coordinates


@dataclass
class Page:
    """One page of the spectral sequence, an immutable snapshot by convention."""

    pres: Presentation
    r: int
    cert_bound: int
    cells: dict = field(default_factory=dict)
    _subquotients: dict = field(default_factory=dict, repr=False)
    _columns: dict | None = field(default=None, repr=False, compare=False)

    def cell(self, bd) -> Cell:
        return self.cells.get(bd, Cell([], []))

    def dim(self, bd) -> int:
        return len(self.cell(bd).reps)

    def dims_by_bidegree(self) -> dict:
        return {bd: len(c.reps) for bd, c in sorted(self.cells.items()) if c.reps}

    def dim_total(self, d: int) -> int:
        return sum(len(self.cells[n, d - n].reps) for n in self.columns(d))

    def columns(self, d: int) -> list:
        """Sorted columns n of the nonzero cells (n, d - n), indexed once per page."""
        if self._columns is None:
            self._columns = {}
            for n, m in sorted(bd for bd, c in self.cells.items() if c.reps):
                self._columns.setdefault(n + m, []).append(n)
        return self._columns.get(d, [])

    def classes(self):
        for bd in sorted(self.cells):
            for i, rep in enumerate(self.cells[bd].reps):
                yield bd, i, rep

    def subquotient(self, bd) -> Subquotient:
        """The cell at bd in the monomial coordinates of bd: reps modulo boundaries.

        An E2 cell, its basis monomials in order and no boundaries, is the
        whole space and needs no row reduction.
        """
        if bd not in self._subquotients:
            cell = self.cell(bd)
            basis = alg.basis_in_bidegree(self.pres, bd)
            if not cell.boundaries and len(cell.reps) == len(basis) and all(
                rep.coeffs == {mono: 1} for rep, mono in zip(cell.reps, basis)
            ):
                sub = Subquotient.whole(self.pres.p, len(basis))
            else:
                bnd = [coords(self.pres, bd, b) for b in cell.boundaries]
                cycles = [coords(self.pres, bd, x) for x in cell.reps] + bnd
                sub = Subquotient(self.pres.p, len(basis), cycles, bnd)
            self._subquotients[bd] = sub
        return self._subquotients[bd]

    def reduce(self, el: Element) -> Element:
        """Canonical representative of el modulo the accumulated boundaries."""
        if not el:
            return ZERO
        bd = alg.bidegree_of(self.pres, el)
        v = self.subquotient(bd).reduce(coords(self.pres, bd, el))
        return element_from_coords(self.pres, bd, v)

    def class_coords(self, el: Element) -> np.ndarray:
        """Coordinates of el in the surviving basis of its bidegree.

        Raises PageError when el is not a combination of surviving classes
        and boundaries.
        """
        if not el:
            return np.zeros(0, dtype=np.int64)
        bd = alg.bidegree_of(self.pres, el)
        x = self.subquotient(bd).coords(coords(self.pres, bd, el))
        if x is None:
            raise PageError("element is not a class on this page")
        return x

    def is_surviving(self, el: Element) -> bool:
        try:
            return bool(np.any(self.class_coords(el)))
        except PageError:
            return False


def init_page(pres: Presentation, n_max: int | None = None) -> Page:
    """E2: every admissible monomial is its own class, no boundaries yet."""
    bound = pres.max_degree if n_max is None else min(n_max, pres.max_degree)
    cells = {}
    for bd, monos in alg.monomial_table(pres).items():
        if sum(bd) > bound:
            continue
        cells[bd] = Cell([Element({m: 1}) for m in monos], [])
    return Page(pres, 2, bound, cells)


def turn_page(page: Page, specs: list) -> Page:
    """Homology of the page with respect to the specified differentials.

    All specs must target this page index; sources must be surviving algebra
    generators.  The extension by Leibniz must square to zero modulo
    boundaries and must map boundaries into boundaries, otherwise the
    specification is rejected with the offending class.
    """
    pres = page.pres
    live = [s for s in specs if s.image]
    for spec in live:
        if spec.page != page.r:
            raise PageError(f"spec for page {spec.page} applied on page {page.r}")
    if not live:
        return Page(pres, page.r + 1, page.cert_bound, page.cells, page._subquotients)

    r = page.r
    images = {}
    for spec in live:
        name = spec.source_generator(pres)
        if not page.is_surviving(spec.source):
            raise PageError(f"differential source {name} is not alive on page {r}")
        if name in images:
            raise PageError(f"two differentials on generator {name}")
        images[name] = spec.image
    d = extend_derivation(pres, images, r)
    p = pres.p

    # soundness: d maps boundaries to boundaries and squares to zero; the
    # images of each cell's classes and their class coordinates are kept
    rep_images = {}  # bd -> rows d(rep), in the monomial coordinates of the target
    kernels = {}     # bd -> surviving combinations of the reps, where d is nonzero
    for bd in sorted(page.cells):
        mat = d_matrix(d, bd)
        if not mat.any():
            continue
        sub = page.subquotient(bd)
        target = d.target(bd)
        for v in matmul(stack_rows(sub.boundaries, sub.dim), mat.T, p):
            if v.any() and page.subquotient(target).reduce(v).any():
                raise PageError(
                    f"differential does not preserve boundaries at {bd}"
                )
        reps = stack_rows(sub.reps, sub.dim)
        img = rep_images[bd] = matmul(reps, mat.T, p)
        if not img.any():
            continue
        tsub = page.subquotient(target)
        target2 = d.target(target)
        cols = []
        for v, dd in zip(img, matmul(img, d_matrix(d, target).T, p)):
            x = tsub.coords(v)
            if x is None:
                raise PageError(
                    f"differential image of a class at {bd} leaves the page"
                )
            cols.append(x)
            dd = page.subquotient(target2).reduce(dd) if dd.any() else dd
            if dd.any():
                raise PageError(
                    f"d^2 != 0 on class at {bd}: "
                    f"{alg.element_str(pres, element_from_coords(pres, target2, dd))}"
                )
        # kernel of the induced differential on surviving classes
        kernel = kernel_basis(FpMatrix(p, np.stack(cols, axis=1)))
        kernels[bd] = matmul(stack_rows(kernel, len(cols)), reps, p)

    # a cell that d neither leaves nor enters carries over unchanged
    new_cells = dict(page.cells)
    new_subquotients = dict(page._subquotients)
    for bd in sorted(page.cells):
        n, m = bd
        # new boundaries: the old ones plus images from one shift up; the
        # old boundaries stay cycles too
        incoming = [v for v in rep_images.get((n + r, m - r + 1), ()) if v.any()]
        if bd not in kernels and not incoming:
            continue
        sub = page.subquotient(bd)
        new = new_subquotients[bd] = Subquotient(
            p,
            sub.dim,
            [*kernels.get(bd, sub.reps), *sub.boundaries],
            list(sub.boundaries) + incoming,
        )
        new_cells[bd] = Cell(
            [element_from_coords(pres, bd, v) for v in new.reps],
            [element_from_coords(pres, bd, v) for v in new.boundaries],
        )
    return Page(pres, r + 1, page.cert_bound - 1, new_cells, new_subquotients)


@dataclass
class CollapseCertificate:
    """Evidence that no differential moves on or after the given page."""

    from_page: int
    certified: dict      # (n, m) -> tuple of (class index, reason)
    uncertified: list    # (n, m, index, "beyond-truncation")
    refusals: list       # (n, m, index, r, target) possible differentials

    @property
    def full(self) -> bool:
        return not self.refusals

    def to_json_dict(self) -> dict:
        return {
            "from_page": self.from_page,
            "certified": {f"{n},{m}": v for (n, m), v in sorted(self.certified.items())},
            "uncertified": [list(x) for x in self.uncertified],
            "refusals": [list(x) for x in self.refusals],
            "full": self.full,
        }


def certify_collapse(page: Page) -> CollapseCertificate:
    """Check every class's outgoing differentials for all r >= page.r.

    Outgoing checks cover incoming ones: a differential hitting a class is
    outgoing from another class in the box.  Classes too close to the
    truncation boundary (sources above the box could still hit them) are
    reported uncertified.
    """
    certified = {}
    uncertified = []
    refusals = []
    survival_bound = page.cert_bound - 1
    for bd in sorted(page.cells):
        n, m = bd
        classes = range(len(page.cells[bd].reps))
        if not classes:
            continue
        if n + m > survival_bound:
            uncertified.extend((n, m, i, "beyond-truncation") for i in classes)
            continue
        if n < page.r:
            certified[bd] = tuple((i, "column-bound") for i in classes)
            continue
        # the first target (n - r, m + r - 1), r >= page.r, that holds classes:
        # the largest occupied column <= n - page.r of total degree n + m - 1
        below = page.columns(n + m - 1)
        k = bisect_right(below, n - page.r)
        if not k:
            certified[bd] = tuple((i, "target-vanishes") for i in classes)
            continue
        c = below[k - 1]
        refusals.extend((n, m, i, n - c, (c, n + m - 1 - c)) for i in classes)
    return CollapseCertificate(page.r, certified, uncertified, refusals)


@dataclass
class ZeroDifferentialCertificate:
    """Evidence that d_r vanishes on a single page, generator by generator."""

    page: int
    reasons: dict       # generator name -> reason string
    obstructions: list  # (generator, target bidegree) that could not be excluded

    @property
    def ok(self) -> bool:
        return not self.obstructions

    def to_json_dict(self) -> dict:
        return {"page": self.page, "reasons": dict(self.reasons), "ok": self.ok}


def _permanent_classes(page: Page, bd, permanent) -> Subquotient:
    """The classes of `permanent` that lie at bd, modulo the boundaries there."""
    pres = page.pres
    cell = page.subquotient(bd)
    perm = [
        coords(pres, bd, el)
        for el in permanent
        if el and alg.bidegree_of(pres, el) == bd
    ]
    return Subquotient(pres.p, cell.dim, perm + cell.boundaries, cell.boundaries)


def certify_zero_differentials(page: Page, permanent: list = ()) -> ZeroDifferentialCertificate:
    """Show d_{page.r} = 0 using only generator-level evidence.

    By the Leibniz rule a differential vanishing on all algebra generators
    vanishes everywhere, so it is enough that each generator's target is
    empty, out of the quadrant, or populated only by classes recorded as
    permanent cycles.
    """
    pres = page.pres
    r = page.r
    reasons = {}
    obstructions = []
    for g in pres.generators:
        gen_el = alg.element(pres, {pres.monomial({g.name: 1}): 1})
        if not page.is_surviving(gen_el):
            reasons[g.name] = "generator-dead"
            continue
        n, m = g.bidegree
        target = (n - r, m + r - 1)
        if target[0] < 0:
            reasons[g.name] = "out-of-quadrant"
            continue
        if page.dim(target) == 0:
            reasons[g.name] = "target-empty"
            continue
        # every class in the target must be a recorded permanent cycle
        known = _permanent_classes(page, target, permanent)
        if all(known.contains(v) for v in page.subquotient(target).reps):
            reasons[g.name] = "target-permanent"
        else:
            obstructions.append((g.name, target))
    return ZeroDifferentialCertificate(r, reasons, obstructions)


def infer_forced_differentials(
    page: Page, must_die: Element, permanent: list = ()
) -> list:
    """All (r, source class) whose d_r could hit must_die inside the box.

    must_die has to be a surviving class; a class recorded as a permanent
    cycle can neither die nor support a differential, so it is excluded on
    both sides.  An empty result for a class that is required to die signals
    a contradiction with the recorded facts.
    """
    pres = page.pres
    if not page.is_surviving(must_die):
        raise PageError("must_die is not a surviving class on this page")
    target_bd = alg.bidegree_of(pres, must_die)

    def is_permanent(el: Element) -> bool:
        bd = alg.bidegree_of(pres, el)
        return _permanent_classes(page, bd, permanent).contains(coords(pres, bd, el))

    if is_permanent(must_die):
        return []
    n, m = target_bd
    candidates = []
    for r in range(page.r, m + 2):
        source = (n + r, m - r + 1)
        if sum(source) > page.cert_bound:
            continue
        for rep in page.cell(source).reps:
            if not is_permanent(rep):
                candidates.append((r, rep))
    return candidates


@dataclass
class RelationSpec:
    """x = y in the abutment: lhs a formal generator monomial, rhs terms.

    lhs is a tuple of (generator name, exponent); rhs is a tuple of
    (coefficient, lhs-style monomial) terms, empty for x = 0.  Exponents may
    exceed the kind bounds (u^{p-1}, a^2); a monomial's lifts are multiplied
    in generator order.
    """

    label: str
    lhs: tuple
    rhs: tuple = ()


@dataclass
class AbutmentReport:
    """Lifts, relation justifications and leftovers at E-infinity."""

    candidate: Presentation
    einf_dims: dict
    generator_lifts: dict        # name -> (filtration, weight, unique, obstructions)
    relations: list              # (label, kind, details)
    unresolved: list
    beyond_truncation: list
    free_commutative: bool = False

    @property
    def ok(self) -> bool:
        return not self.unresolved and all(
            u for (_, _, u, _) in self.generator_lifts.values()
        )

    def justification(self, label: str) -> str:
        for lbl, kind, _ in self.relations:
            if lbl == label:
                return kind
        raise KeyError(label)

    def to_json_dict(self) -> dict:
        return {
            "free_commutative": self.free_commutative,
            "einf_dims": {f"{n},{m}": v for (n, m), v in sorted(self.einf_dims.items())},
            "generator_lifts": {
                name: {
                    "filtration": f,
                    "weight": w,
                    "unique_equal_weight_representative": u,
                    "obstructions": list(obs),
                }
                for name, (f, w, u, obs) in sorted(self.generator_lifts.items())
            },
            "relations": [
                {"label": label, "kind": kind, "details": details}
                for label, kind, details in self.relations
            ],
            "unresolved": list(self.unresolved),
            "beyond_truncation": list(self.beyond_truncation),
            "ok": self.ok,
        }


def _lower_columns(page: Page, d: int, n: int) -> list:
    """The occupied columns of total degree d strictly left of column n."""
    cols = page.columns(d)
    return cols[: bisect_left(cols, n)]


def assemble_abutment(
    einf: Page,
    candidate: Presentation,
    gen_lifts: dict,
    relations: list,
) -> AbutmentReport:
    """Transfer the E-infinity presentation to the abutment.

    Generators must have surviving lifts in their bidegree with a unique
    representative among classes of equal weight.  Each relation is settled
    by one of: the free-commutative shortcut (no relations, E-infinity free
    graded-commutative of matching size), a strict lift (no lower-filtration
    classes in that total degree), or a weight obstruction (every
    lower-filtration class has a different weight).  Anything else is listed
    as unresolved, never accepted silently.
    """
    pres = einf.pres
    survival_bound = einf.cert_bound - 1

    lifts_report = {}
    for g in candidate.generators:
        if g.total_degree > pres.max_degree:
            raise PageError(f"generator {g.name} lives outside the box")
        lift = gen_lifts[g.name]
        bd = alg.bidegree_of(pres, lift)
        if bd != g.bidegree or not einf.is_surviving(lift):
            raise PageError(f"lift of {g.name} is not a surviving class at {g.bidegree}")
        n, m = bd
        w = g.weight % (candidate.p - 1)
        # weight arguments are only sound if the declared weight is the
        # weight the lift actually carries on the page
        lift_w = alg.weight_of_element(pres, lift)
        if lift_w != w:
            raise PageError(
                f"lift of {g.name} has weight {lift_w}, declared {w}"
            )
        obstructions = []
        for n2 in _lower_columns(einf, n + m, n):
            other = (n2, n + m - n2)
            for rep in einf.cells[other].reps:
                wr = alg.weight_of_element(pres, rep)
                if wr is None or wr == w:
                    obstructions.append(
                        (other, alg.element_str(pres, rep), wr)
                    )
        unique = not obstructions
        lifts_report[g.name] = (n, w, unique, obstructions)

    # free-commutative shortcut: a free E-infinity algebra lifts untouched
    if not relations:
        free_kinds = all(
            g.kind in (alg.EXTERIOR, alg.POLYNOMIAL) for g in candidate.generators
        )
        bound = min(survival_bound, candidate.max_degree)
        series = alg.dimension_series(candidate, bound)
        dims_ok = all(
            einf.dim_total(d) == series[d] for d in range(bound + 1)
        )
        if free_kinds and dims_ok:
            return AbutmentReport(
                candidate,
                einf.dims_by_bidegree(),
                lifts_report,
                [("all-products", "free-commutative", "no extension problems arise")],
                [],
                [],
                free_commutative=True,
            )

    def exponents(mono):
        e = [0] * len(candidate.generators)
        for name, k in mono:
            e[candidate.index(name)] += k
        return tuple(e)

    lift = alg.monomial_map(candidate, pres, gen_lifts)

    resolved = []
    unresolved = []
    beyond = []
    for rel in relations:
        lhs = exponents(rel.lhs)
        deg = alg.total_degree(candidate, lhs)
        filt = alg.bidegree(candidate, lhs)[0]
        w = alg.weight_of(candidate, lhs)
        if deg > survival_bound:
            beyond.append(rel.label)
            continue
        lhs_val = einf.reduce(lift(lhs))
        rhs_val = ZERO
        for c, mono in rel.rhs:
            term = lift(exponents(mono))
            rhs_val = alg.add(pres, rhs_val, alg.scale(pres, c, term))
        rhs_val = einf.reduce(rhs_val)
        if lhs_val != rhs_val:
            unresolved.append(
                (rel.label, "fails-at-E-infinity")
            )
            continue
        # classes of the same total degree in strictly lower filtration
        obstructions = []
        for n2 in _lower_columns(einf, deg, filt):
            other = (n2, deg - n2)
            for rep in einf.cells[other].reps:
                obstructions.append((other, rep))
        if not obstructions:
            resolved.append((rel.label, "strict-lift", "no lower-filtration classes"))
            continue
        weights = [alg.weight_of_element(pres, rep) for _, rep in obstructions]
        if all(wr is not None and wr != w for wr in weights):
            detail = "; ".join(
                f"{alg.element_str(pres, rep)} at {other} has weight {wr}"
                for (other, rep), wr in zip(obstructions, weights)
            )
            resolved.append(
                (rel.label, "weight-obstruction", f"product weight {w}: {detail}")
            )
            continue
        unresolved.append((rel.label, "equal-weight lower-filtration classes remain"))

    return AbutmentReport(
        candidate,
        einf.dims_by_bidegree(),
        lifts_report,
        resolved,
        unresolved,
        beyond,
    )


def check_leibniz(page: Page, specs: list) -> list:
    """Violations of d_r(xy) = d_r(x) y + (-1)^{n+m} x d_r(y) on the page.

    Runs over every ordered pair of surviving basis classes whose product
    stays inside the box; both sides are compared as reduced representatives.
    An empty list certifies the Leibniz rule for this page's differential.
    """
    pres = page.pres
    images = {}
    for spec in specs:
        if spec.image:
            images[spec.source_generator(pres)] = spec.image
    d = extend_derivation(pres, images, page.r) if images else None

    def dd(el: Element) -> Element:
        if d is None or not el:
            return ZERO
        return d_element(d, el)

    violations = []
    classes = list(page.classes())
    for bd1, i1, x in classes:
        for bd2, i2, y in classes:
            if sum(bd1) + sum(bd2) > pres.max_degree:
                continue
            xy = alg.multiply(pres, x, y)
            lhs = page.reduce(dd(xy))
            sign = (-1) ** (bd1[0] + bd1[1])
            rhs = alg.add(
                pres,
                alg.multiply(pres, dd(x), y),
                alg.scale(pres, sign, alg.multiply(pres, x, dd(y))),
            )
            if lhs != page.reduce(rhs):
                violations.append((bd1, i1, bd2, i2))
    return violations
