"""Multiplicative first-quadrant spectral sequence engine over F_p.

A page is a dga.Page, one linfp.Subquotient per bidegree: the surviving
classes modulo the boundaries accumulated by earlier differentials, in the
coordinates of the fixed E2-monomial basis.  Class coordinates come from
Page.vector_coords, and "zero modulo the boundaries" from Page.is_boundary,
which the page turn's soundness checks and assemble_abutment both read; a
relation's image is evaluated in coordinates by dga.image_coords, and the
classes as elements are built on first read.  Products of classes are
computed by multiplying their representatives in the E2 algebra and taking
their coordinates modulo those boundaries, so the multiplicative structure
stays effective on every page.  Page and PageError live in dga and are
exported here too.

Differentials are only accepted on algebra generators of the E2 presentation
and are extended by the Leibniz rule with the sign (-1)^{n+m} on the right
term; arbitrary class-level specifications are rejected.  Page turning loses
one total degree of certification: boundaries into degree d come from degree
d + 1.

A page turn applies d through its matrix per bidegree (dga.d_matrix), on
the derivation's support only: each support cell's classes are mapped by one
product, and those images serve the soundness checks, the kernel and the
target cell's new boundaries.  Only the support cells and their targets are
rebuilt; every other cell carries over as it is.  An E2 cell is the whole
space of its bidegree (linfp.Subquotient.whole) and needs no row reduction.

Collapse certification is conservative.  A class is certified permanent only
with explicit evidence (all outgoing targets empty, or the whole column to
the left of the page index), and classes within reach of the truncation
boundary are reported as uncertified rather than assumed to survive.  Collapse
and abutment read class counts, and find the occupied cells of a total degree
in a per-page column index, Page.columns, instead of scanning every column.

forced_run is the one argument from a page to E-infinity when a class must
die: infer the one differential that can kill it, certify every page before
it zero, turn that page and certify the collapse.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .algebra import Element, Presentation
from .dga import (
    Page, PageError, coords, d_matrix, d_source, d_target, element_from_coords,
    extend_derivation, image_coords,
)
from .linfp import Subquotient, kernel_basis, matmul, stack_rows


@dataclass(frozen=True)
class DifferentialSpec:
    """d_page(source) = image, with source a single E2 algebra generator."""

    page: int
    source: Element
    image: Element

    def source_generator(self, pres: Presentation) -> str:
        monos = list(self.source.coeffs)
        if len(monos) != 1 or self.source.coeffs[monos[0]] != 1:
            raise PageError("differential source must be a single generator class")
        mono = monos[0]
        if sum(mono) != 1:
            raise PageError("differential source must be an algebra generator")
        return pres.generators[mono.index(1)].name


def spec_images(pres: Presentation, specs: list) -> dict:
    """{source generator name: image} of the specs with a nonzero image.

    Raises PageError when two of them name one generator.
    """
    images = {}
    for spec in specs:
        if not spec.image:
            continue
        name = spec.source_generator(pres)
        if name in images:
            raise PageError(f"two differentials on generator {name}")
        images[name] = spec.image
    return images


def init_page(pres: Presentation) -> Page:
    """E2: every admissible monomial is its own class, no boundaries yet."""
    subs = {
        bd: Subquotient.whole(pres.p, len(monos))
        for bd, monos in alg.monomial_table(pres).items()
    }
    return Page(pres, 2, pres.max_degree, subs)


def turn_page(page: Page, specs: list) -> Page:
    """Homology of the page with respect to the specified differentials.

    All specs must target this page index; sources must be surviving algebra
    generators.  The extension by Leibniz must square to zero modulo
    boundaries and must map boundaries into boundaries, otherwise the
    specification is rejected with the offending class, the first in
    bidegree order.  d is applied on its support alone, and only the support
    cells and their targets are rebuilt.
    """
    pres = page.pres
    live = [s for s in specs if s.image]
    for spec in live:
        if spec.page != page.r:
            raise PageError(f"spec for page {spec.page} applied on page {page.r}")
    if not live:
        return Page(pres, page.r + 1, page.cert_bound, page.subquotients)

    r = page.r
    for spec in live:
        name = spec.source_generator(pres)
        if not page.is_surviving(spec.source):
            raise PageError(f"differential source {name} is not alive on page {r}")
    d = extend_derivation(pres, spec_images(pres, live), r)
    p = pres.p

    # soundness: d maps boundaries to boundaries and squares to zero; the
    # images of each cell's classes and their class coordinates are kept
    rep_images = {}  # bd -> rows d(rep), in the monomial coordinates of the target
    kernels = {}     # bd -> surviving combinations of the reps, where d is nonzero
    support = set(d.support)
    for bd in d.support:
        mat = d_matrix(d, bd)
        sub = page.subquotients[bd]
        target = d.target(bd)
        for v in matmul(stack_rows(sub.boundaries, sub.dim), mat.T, p):
            if not page.is_boundary(target, v):
                raise PageError(
                    f"differential does not preserve boundaries at {bd}"
                )
        reps = stack_rows(sub.reps, sub.dim)
        img = rep_images[bd] = matmul(reps, mat.T, p)
        if not img.any():
            continue
        target2 = d.target(target)
        if target in support:
            dds = matmul(img, d_matrix(d, target).T, p)
        else:
            dds = np.zeros((len(img), 0), dtype=np.int64)  # d is zero on the target
        cols = []
        for v, dd in zip(img, dds):
            x = page.vector_coords(target, v)
            if x is None:
                raise PageError(
                    f"differential image of a class at {bd} leaves the page"
                )
            cols.append(x)
            if not page.is_boundary(target2, dd):
                raise PageError(
                    f"d^2 != 0 on class at {bd}: "
                    f"{alg.element_str(pres, element_from_coords(pres, target2, dd))}"
                )
        # kernel of the induced differential on surviving classes
        kernel = kernel_basis(p, np.stack(cols, axis=1))
        kernels[bd] = matmul(stack_rows(kernel, len(cols)), reps, p)

    # a cell off the support and its targets carries over unchanged
    new_subquotients = dict(page.subquotients)
    for bd in sorted(support | {d.target(bd) for bd in support}):
        # new boundaries: the old ones plus images from one shift up; the
        # old boundaries stay cycles too
        incoming = [v for v in rep_images.get(d_source(bd, r), ()) if np.count_nonzero(v)]
        if bd not in kernels and not incoming:
            continue
        sub = page.subquotients[bd]
        new_subquotients[bd] = Subquotient(
            p,
            sub.dim,
            [*kernels.get(bd, sub.reps), *sub.boundaries],
            list(sub.boundaries) + incoming,
        )
    return Page(pres, r + 1, page.cert_bound - 1, new_subquotients)


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
            "kind": "collapse",
            "from_page": self.from_page,
            "certified": {f"{n},{m}": v for (n, m), v in sorted(self.certified.items())},
            "uncertified": [list(x) for x in self.uncertified],
            "refusals": [list(x) for x in self.refusals],
            "full": self.full,
            "ok": self.full,
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
    for bd, sub in sorted(page.subquotients.items()):
        n, m = bd
        classes = range(len(sub))
        if not classes:
            continue
        if n + m > page.survival_bound:
            uncertified.extend((n, m, i, "beyond-truncation") for i in classes)
            continue
        if n < page.r:
            certified[bd] = tuple((i, "column-bound") for i in classes)
            continue
        # the first target of a d_r, r >= page.r, that holds classes: the
        # largest occupied column of that total degree at or left of d_{page.r}'s
        first = d_target(bd, page.r)
        below = page.columns(sum(first))
        k = bisect_right(below, first[0])
        if not k:
            certified[bd] = tuple((i, "target-vanishes") for i in classes)
            continue
        r = n - below[k - 1]
        refusals.extend((n, m, i, r, d_target(bd, r)) for i in classes)
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
        out = {"page": self.page, "reasons": dict(self.reasons), "ok": self.ok}
        if self.obstructions:
            out["obstructions"] = self.obstructions
        return out


def _permanent_classes(page: Page, bd, permanent) -> Subquotient:
    """The classes of `permanent` that lie at bd, modulo the boundaries there."""
    pres = page.pres
    cell = page.subquotients[bd]
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
        target = d_target(g.bidegree, r)
        if target[0] < 0:
            reasons[g.name] = "out-of-quadrant"
            continue
        if page.dim(target) == 0:
            reasons[g.name] = "target-empty"
            continue
        # every class in the target must be a recorded permanent cycle
        known = _permanent_classes(page, target, permanent)
        if all(known.coords(v) is not None for v in page.subquotients[target].reps):
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
        return _permanent_classes(page, bd, permanent).coords(coords(pres, bd, el)) is not None

    if is_permanent(must_die):
        return []
    candidates = []
    for r in range(page.r, target_bd[1] + 2):
        source = d_source(target_bd, r)
        if sum(source) > page.cert_bound:
            continue
        for rep in page.reps(source):
            if not is_permanent(rep):
                candidates.append((r, rep))
    return candidates


def forced_run(page: Page, must_die: Element, permanent: list):
    """From page to E-infinity, when must_die dies and permanent survive.

    The one differential that can kill must_die is inferred; every page
    before it is certified zero, its page is turned, and the page after is
    certified to collapse.  Returns E-infinity, or None on a failure, and the
    certificates as (JSON dict, failure message) pairs in report order,
    ending at the first that fails.
    """
    pres = page.pres
    candidates = infer_forced_differentials(page, must_die, permanent)
    forced = {
        "kind": "forced-differential",
        "must_die": alg.element_str(pres, must_die),
        "candidates": [(r, alg.element_str(pres, src)) for r, src in candidates],
        "ok": len(candidates) == 1,
    }
    certs = [(forced, "forced differential is not unique")]
    if not forced["ok"]:
        return None, certs
    ((r, source),) = candidates
    zero_pages = []
    while page.r < r:
        zero_pages.append(certify_zero_differentials(page, permanent).to_json_dict())
        if not zero_pages[-1]["ok"]:
            break
        page = turn_page(page, [])
    zero = {"kind": "zero-differentials", "pages": zero_pages, "ok": page.r == r}
    certs.append((zero, f"page {page.r} differential not forced to vanish"))
    if not zero["ok"]:
        return None, certs
    einf = turn_page(page, [DifferentialSpec(r, source, must_die)])
    collapse = certify_collapse(einf)
    certs.append((collapse.to_json_dict(), f"no collapse on page {einf.r}"))
    return (einf if collapse.full else None), certs


@dataclass
class AbutmentReport:
    """Lifts, relation justifications and leftovers at E-infinity."""

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

    def to_json_dict(self) -> dict:
        return {
            "kind": "abutment",
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


def _lower_classes(page: Page, d: int, n: int) -> list:
    """(bd, rep, weight) for each class of total degree d left of column n."""
    cols = page.columns(d)
    return [
        ((c, d - c), rep, alg.weight_of_element(page.pres, rep))
        for c in cols[: bisect_left(cols, n)]
        for rep in page.reps((c, d - c))
    ]


def assemble_abutment(
    einf: Page,
    candidate: Presentation,
    gen_lifts: dict,
    relations: list,
) -> AbutmentReport:
    """Transfer the E-infinity presentation to the abutment.

    Generators must have surviving lifts in their bidegree with a unique
    representative among classes of equal weight.  A relation must hold at
    E-infinity (the image of lhs - rhs under the lifts, dga.image_coords, is
    a boundary by Page.is_boundary; it is 0, and not evaluated, where E2
    holds no monomial) and is settled by one of: the free-commutative
    shortcut (no relations, E-infinity free graded-commutative of matching
    size), a strict lift (no lower-filtration classes in that total degree), or
    a weight obstruction (every lower-filtration class has a different weight).
    Anything else is listed as unresolved, never accepted silently.
    """
    pres = einf.pres

    lifts_report = {}
    for g in candidate.generators:
        if g.total_degree > pres.max_degree:
            raise PageError(f"generator {g.name} lives outside the box")
        lift = gen_lifts[g.name]
        bd = alg.bidegree_of(pres, lift)
        if bd != g.bidegree or not einf.is_surviving(lift):
            raise PageError(f"lift of {g.name} is not a surviving class at {g.bidegree}")
        n, m = bd
        w = g.weight
        # weight arguments are only sound if the declared weight is the
        # weight the lift actually carries on the page
        lift_w = alg.weight_of_element(pres, lift)
        if lift_w != w:
            raise PageError(
                f"lift of {g.name} has weight {lift_w}, declared {w}"
            )
        obstructions = [
            (other, alg.element_str(pres, rep), wr)
            for other, rep, wr in _lower_classes(einf, n + m, n)
            if wr is None or wr == w
        ]
        lifts_report[g.name] = (n, w, not obstructions, obstructions)

    # free-commutative shortcut: a free E-infinity algebra lifts untouched
    if not relations:
        free_kinds = all(
            g.kind in (alg.EXTERIOR, alg.POLYNOMIAL) for g in candidate.generators
        )
        bound = min(einf.survival_bound, candidate.max_degree)
        series = alg.dimension_series(candidate, bound)
        dims_ok = all(
            einf.dim_total(d) == series[d] for d in range(bound + 1)
        )
        if free_kinds and dims_ok:
            return AbutmentReport(
                einf.dims_by_bidegree(),
                lifts_report,
                [("all-products", "free-commutative", "no extension problems arise")],
                [],
                [],
                free_commutative=True,
            )

    lift = alg.monomial_map(candidate, pres, gen_lifts)
    table = alg.monomial_table(pres)

    resolved = []
    unresolved = []
    beyond = []
    for rel in relations:
        diff = rel.element(candidate)  # lhs - rhs, refused if inhomogeneous
        lhs = rel.monomial(candidate, rel.lhs)
        filt, row = alg.bidegree(candidate, lhs)
        w = alg.weight_of(candidate, lhs)
        if filt + row > einf.survival_bound:
            beyond.append(rel.label)
            continue
        # where E2 holds no monomial the image is 0 and is not evaluated
        bd = (filt, row)
        if bd in table and not einf.is_boundary(bd, image_coords(pres, bd, lift, diff)):
            unresolved.append((rel.label, "fails-at-E-infinity"))
            continue
        # classes of the same total degree in strictly lower filtration
        lower = _lower_classes(einf, filt + row, filt)
        if not lower:
            resolved.append((rel.label, "strict-lift", "no lower-filtration classes"))
            continue
        if all(wr is not None and wr != w for _, _, wr in lower):
            detail = "; ".join(
                f"{alg.element_str(pres, rep)} at {other} has weight {wr}"
                for other, rep, wr in lower
            )
            resolved.append(
                (rel.label, "weight-obstruction", f"product weight {w}: {detail}")
            )
            continue
        unresolved.append((rel.label, "equal-weight lower-filtration classes remain"))

    return AbutmentReport(
        einf.dims_by_bidegree(),
        lifts_report,
        resolved,
        unresolved,
        beyond,
    )
