"""Mod p and mod (p, v_1) THH of connective complex K-theory, as a pipeline.

Three steps, each a first-quadrant spectral sequence computation over F_p:

1. Tor over Z_p[u] of (F_p, Z_p), recognized as an exterior algebra on a
   degree-3 class sigma-u.
2. The relative run: E2 = E(su) (x) E(l1) (x) P(m1) collapses and abuts to
   E(su, l1) (x) P(m1) without extension problems.
3. The absolute run: E2 = P_{p-1}(u) (x) E(su, l1) (x) P(m1).  The vanishing
   of u^{p-2} su in the abutment forces the unique differential
   d_{2p-3}(m1) = u^{p-2} su; one page turn later everything collapses, the
   result is identified with Omega (x) E(l1), and every multiplicative
   extension is excluded by a strict lift or a weight obstruction.

Homotopy-theoretic inputs enter only through the fact registry below; each
step's report records exactly which facts it consumed, so a reported result
is re-runnable from the registry alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

from . import algebra as alg
from .algebra import Presentation, ext, monomial_element, poly, trunc
from .dga import extend_derivation, homology, verify_presentation_iso
from .homalg import BaseRing, koszul_tor, recognize_free_presentation
from .linfp import check_prime
from .specseq import (
    DifferentialSpec,
    RelationSpec,
    assemble_abutment,
    certify_collapse,
    certify_zero_differentials,
    infer_forced_differentials,
    init_page,
    turn_page,
)


class PipelineError(RuntimeError):
    """A certificate failed; the partial report is attached."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class InputFact:
    """A cited statement paired with the algebraic content the engine uses."""

    identifier: str
    content: str
    citation: str


def input_facts(p: int) -> dict:
    """The homotopy-theoretic inputs of the three steps, keyed by identifier."""
    return {
        f.identifier: f
        for f in [
            InputFact(
                "ku-homotopy",
                f"pi_*(ku) = Z_p[u] with |u| = 2 (p = {p})",
                "Bott periodicity for p-complete connective complex K-theory",
            ),
            InputFact(
                "v1-ku",
                f"V(1)_* ku = P_{p - 1}(u), truncated polynomial on the mod (p, v1) "
                "Bott class",
                "Ausoni, Topological Hochschild homology of connective complex "
                "K-theory, Amer. J. Math. 127 (2005)",
            ),
            InputFact(
                "bokstedt-thh-zp",
                f"THH_*(Z_p; F_p) = E(l1) (x) P(m1) with |l1| = {2 * p - 1}, "
                f"|m1| = {2 * p}",
                "Bokstedt's periodicity computation of THH of the integers",
            ),
            InputFact(
                "sigma-must-die",
                "u^{p-2} su = 0 in the abutment of the absolute run: the "
                "suspension-induced derivation on HF_p-homology applied to "
                "u^{p-1} = 0, detected in mod (p, v1) homotopy",
                "McClure-Staffeldt sigma-derivation; Ausoni, HF_p-homology of ku",
            ),
            InputFact(
                "u-permanent",
                "u survives to E-infinity: the unit of the absolute run is "
                "split injective in degree 2",
                "unit argument for THH of a commutative S-algebra",
            ),
            InputFact(
                "delta-weights",
                "Z/(p-1) Galois weights: u and su have weight 1; l1 and m1 have "
                "weight 0, being pulled back from the Adams summand",
                "Ausoni's delta-action method; the Adams summand comparison",
            ),
            InputFact(
                "hfp-ku",
                "HF_p_* ku = P_{p-1}(u) (x) P(xi1b, xi2b, ...) (x) E(tau2b, ...), "
                "recorded for documentation only",
                "Ausoni, Theorem 2.5 of the THH(ku) computation",
            ),
        ]
    }


@dataclass
class StepReport:
    name: str
    result: dict
    certificates: list = field(default_factory=list)
    consumed_facts: list = field(default_factory=list)
    cert_bound: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "result": self.result,
            "certificates": self.certificates,
            "consumed_facts": sorted(self.consumed_facts),
            "cert_bound": self.cert_bound,
        }


@dataclass
class PipelineReport:
    prime: int
    max_degree: int
    steps: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(
            c.get("ok", True) for s in self.steps for c in s.certificates
        )

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "max_degree": self.max_degree,
            "ok": self.ok,
            "steps": [s.to_json_dict() for s in self.steps],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def presentation_dict(pres: Presentation) -> dict:
    """The JSON form of pres."""
    return {
        "p": pres.p,
        "max_degree": pres.max_degree,
        "generators": [
            {
                "name": g.name,
                "kind": g.kind + (f"({g.height})" if g.height else ""),
                "bidegree": list(g.bidegree),
                "total_degree": g.total_degree,
                "weight": g.weight % (pres.p - 1),
            }
            for g in pres.generators
        ],
    }


def _require_prime(p: int):
    try:
        check_prime(p, 5)
    except ValueError as err:
        raise PipelineError(str(err)) from None


# ------------------------------------------------------------------ step 1

def step1_tor(p: int, n_internal: int = 40):
    """Tor_{Z_p[u]}(F_p, Z_p): an exterior class in total degree 3.

    Returns the recognized presentation (generator su, bidegree (3, 0) in the
    total-degree convention) and its step report.
    """
    _require_prime(p)
    table = koszul_tor(BaseRing("zp", p), "fp", "zp", n_internal)
    rec = recognize_free_presentation(table.total_series(n_internal), p)
    cert = {
        "kind": "tor-recognition",
        "table": {f"{n},{m}": v for (n, m), v in table.nonzero()},
        "recognized": rec.note if rec.presentation else "not free",
        "forced": rec.forced,
        "ok": rec.presentation is not None and rec.forced,
    }
    report = StepReport(
        "tor-of-smash",
        {},
        [cert],
        ["ku-homotopy"],
        n_internal,
    )
    if not cert["ok"]:
        raise PipelineError("Tor table was not recognized as forced-free", report)
    gens = rec.presentation.generators
    if [g.total_degree for g in gens] != [3]:
        raise PipelineError("Tor table is not an exterior algebra on degree 3", report)
    pres = Presentation(p, (ext("su", (3, 0), weight=1),), n_internal)
    report.result = presentation_dict(pres)
    return pres, report


# ------------------------------------------------------------------ step 2

def relative_e2(p: int, N: int, su_degree: int = 3) -> Presentation:
    """E2 of the relative run: su in the rows, l1 and m1 in the columns."""
    return Presentation(
        p,
        (
            ext("su", (0, su_degree)),
            ext("l1", (2 * p - 1, 0)),
            poly("m1", (2 * p, 0)),
        ),
        N,
    )


def step2_v0(p: int, N: int = 100):
    """The relative run: full E2 collapse, free-commutative abutment."""
    _require_prime(p)
    if N < 2 * p + 2:
        raise ValueError(f"max degree {N} too small for p = {p}: need {2 * p + 2}")
    tor_pres, _ = step1_tor(p)
    (su_gen,) = tor_pres.generators
    pres = relative_e2(p, N, su_gen.total_degree)
    page = init_page(pres)
    collapse = certify_collapse(page)
    result = Presentation(
        p,
        (ext("su", (3, 0)), ext("l1", (2 * p - 1, 0)), poly("m1", (2 * p, 0))),
        N,
    )
    report = StepReport(
        "relative-run",
        presentation_dict(result),
        [dict(collapse.to_json_dict(), kind="collapse", ok=collapse.full)],
        ["ku-homotopy", "bokstedt-thh-zp"],
        page.cert_bound - 1,
    )
    if not collapse.full:
        raise PipelineError("relative run does not collapse on the front page", report)
    lifts = {g.name: monomial_element(pres, {g.name: 1}) for g in pres.generators}
    candidate = relative_e2(p, N)
    abutment = assemble_abutment(page, candidate, lifts, [])
    report.certificates.append(
        dict(abutment.to_json_dict(), kind="abutment", ok=abutment.ok)
    )
    if not (abutment.ok and abutment.free_commutative):
        raise PipelineError("relative abutment is not free graded-commutative", report)
    return result, report


# ------------------------------------------------------------------ step 3

def absolute_e2(p: int, N: int) -> Presentation:
    """E2 of the absolute run, with the Galois weights attached."""
    return Presentation(
        p,
        (
            trunc("u", p - 1, (0, 2), weight=1),
            ext("su", (3, 0), weight=1),
            ext("l1", (2 * p - 1, 0), weight=0),
            poly("m1", (2 * p, 0), weight=0),
        ),
        N,
    )


def weight_table(p: int) -> dict:
    """Galois weights of the abutment generators, in Z/(p-1)."""
    _require_prime(p)
    table = {"u": 1, "l1": 0, "mu2": 0}
    for i in range(p):
        table[f"a{i}"] = 1
    for i in range(1, p):
        table[f"b{i}"] = 1
    return table


def omega_candidate(p: int, N: int) -> Presentation:
    """Generators of the abutment: u, mu2, a_0..a_{p-1}, b_1..b_{p-1}, l1.

    Kinds encode the monomial-bound relations: u is truncated at p-1 and the
    a_i are exterior; all remaining relations are handled separately.
    """
    w = weight_table(p)
    gens = [
        trunc("u", p - 1, (0, 2), weight=w["u"]),
        ext("l1", (2 * p - 1, 0), weight=w["l1"]),
        poly("mu2", (2 * p * p, 0), weight=w["mu2"]),
    ]
    for i in range(p):
        gens.append(ext(f"a{i}", (2 * p * i + 3, 0), weight=w[f"a{i}"]))
    for i in range(1, p):
        gens.append(poly(f"b{i}", (2 * p * i, 2), weight=w[f"b{i}"]))
    return Presentation(p, tuple(gens), N)


def omega_relations(candidate: Presentation, p: int) -> list:
    """rel2..rel7 and rel8[i,j], i < j, as candidate elements lhs - rhs.

    Derived from abutment_relations.  The relations x^k = 0 with k at the
    kind bound of x (rel1 = u^{p-1} and rel8[i,i] = a_i^2) are left out: the
    kinds of the candidate's generators already impose them.
    """
    caps = {g.name: cap for g, cap in zip(candidate.generators, candidate.caps)}

    def element(mono, c=1):
        return monomial_element(candidate, dict(mono), c)

    rels = []
    for rel in abutment_relations(p):
        if not rel.rhs and any(caps[x] and k >= caps[x] for x, k in rel.lhs):
            continue
        val = element(rel.lhs)
        for c, mono in rel.rhs:
            val = alg.sub(candidate, val, element(mono, c))
        rels.append(val)
    return rels


def omega_reps(pres: Presentation, p: int) -> dict:
    """Cycle representatives: mu2 = m1^p, a_i = su m1^i, b_i = u m1^i."""
    reps = {
        "u": monomial_element(pres, {"u": 1}),
        "l1": monomial_element(pres, {"l1": 1}),
        "mu2": monomial_element(pres, {"m1": p}),
    }
    for i in range(p):
        reps[f"a{i}"] = monomial_element(pres, {"su": 1, "m1": i})
    for i in range(1, p):
        reps[f"b{i}"] = monomial_element(pres, {"u": 1, "m1": i})
    return reps


def abutment_relations(p: int) -> list:
    """rel1..rel8 as abutment statements, with b_0 = u throughout.

    The one place the relations are written; omega_relations derives the
    candidate's relation list from them.
    """

    def mono(*factors, **named):
        """Sorted (name, exponent) pairs: each listed name once, times the keywords."""
        out = dict(named)
        for name in factors:
            out[name] = out.get(name, 0) + 1
        return tuple(sorted(out.items()))

    def b(i):
        """The name of b_i."""
        return "u" if i == 0 else f"b{i}"

    rels = [RelationSpec("rel1", (("u", p - 1),))]
    for i in range(p - 1):
        rels.append(RelationSpec(f"rel2[{i}]", ((f"a{i}", 1), ("u", p - 2))))
    for i in range(1, p):
        rels.append(RelationSpec(f"rel3[{i}]", mono(b(i), u=p - 2)))
    for i in range(1, p):
        for j in range(i, p):
            if i + j <= p - 1:
                rhs, label = mono(b(i + j), "u"), f"rel4[{i},{j}]"
            else:
                rhs, label = mono(b(i + j - p), "u", "mu2"), f"rel6[{i},{j}]"
            rels.append(RelationSpec(label, mono(b(i), b(j)), ((1, rhs),)))
    for i in range(p):
        for j in range(1, p):
            if i + j <= p - 1:
                rhs, label = mono("u", f"a{i + j}"), f"rel5[{i},{j}]"
            else:
                rhs, label = mono("u", f"a{i + j - p}", "mu2"), f"rel7[{i},{j}]"
            rels.append(RelationSpec(label, mono(f"a{i}", b(j)), ((1, rhs),)))
    for i in range(p):
        for j in range(i, p):
            lhs = ((f"a{i}", 1), (f"a{j}", 1)) if i != j else ((f"a{i}", 2),)
            rels.append(RelationSpec(f"rel8[{i},{j}]", lhs))
    return rels


def basis_formula_count(p: int, d: int) -> int:
    """Size of the four-family basis of the l1-free homology in degree d.

    Families: m1^{pn}; u^i m1^n for 1 <= i <= p-2; u^i su m1^n for
    0 <= i <= p-3; u^{p-2} su m1^{pn+p-1}.
    """
    count = 0
    if d % (2 * p * p) == 0:
        count += 1
    for i in range(1, p - 1):
        rest = d - 2 * i
        if rest >= 0 and rest % (2 * p) == 0:
            count += 1
    for i in range(0, p - 2):
        rest = d - 2 * i - 3
        if rest >= 0 and rest % (2 * p) == 0:
            count += 1
    rest = d - 2 * (p - 2) - 3
    if rest >= 0 and rest % (2 * p) == 0:
        n_index = rest // (2 * p)
        if n_index % p == p - 1:
            count += 1
    return count


def full_basis_count(p: int, d: int) -> int:
    """Dimension of the abutment in degree d: the four families times E(l1)."""
    out = basis_formula_count(p, d)
    if d >= 2 * p - 1:
        out += basis_formula_count(p, d - (2 * p - 1))
    return out


def _totals(dims: dict) -> dict:
    """{d: summed dims over the bidegrees (n, m) with n + m = d}."""
    out = {}
    for (n, m), v in dims.items():
        out[n + m] = out.get(n + m, 0) + v
    return out


def _require_step3_box(p: int, N: int):
    """Refuse a box too small for the largest abutment generator, mu2."""
    if N < 2 * p * p + 2:
        raise ValueError(
            f"max degree {N} too small for p = {p}: the abutment generators "
            f"reach total degree {2 * p * p}, need at least {2 * p * p + 2}"
        )


def step3_v1(p: int, N: int = 100):
    """The absolute run: forced differential, collapse, identification, lifts."""
    _require_prime(p)
    _require_step3_box(p, N)
    pres = absolute_e2(p, N)
    facts = [
        "v1-ku",
        "bokstedt-thh-zp",
        "ku-homotopy",
        "delta-weights",
        "sigma-must-die",
        "u-permanent",
    ]
    report = StepReport("absolute-run", {}, [], facts, None)

    u = monomial_element(pres, {"u": 1})
    must_die = monomial_element(pres, {"u": p - 2, "su": 1})
    page = init_page(pres)

    candidates = infer_forced_differentials(page, must_die, permanent=[u])
    cert = {
        "kind": "forced-differential",
        "must_die": alg.element_str(pres, must_die),
        "fact": "sigma-must-die",
        "exclusions": ["u-permanent"],
        "candidates": [
            (r, alg.element_str(pres, src)) for r, src in candidates
        ],
        "ok": len(candidates) == 1,
    }
    report.certificates.append(cert)
    if len(candidates) != 1:
        raise PipelineError("forced differential is not unique", report)
    r_forced, source = candidates[0]
    if r_forced != 2 * p - 3 or alg.element_str(pres, source) != "m1":
        raise PipelineError("unexpected forced differential candidate", report)

    zero_pages = []
    while page.r < r_forced:
        zc = certify_zero_differentials(page, permanent=[u])
        zero_pages.append(zc.to_json_dict())
        if not zc.ok:
            report.certificates.append(
                {"kind": "zero-differentials", "pages": zero_pages, "ok": False}
            )
            raise PipelineError(f"page {page.r} differential not forced to vanish", report)
        page = turn_page(page, [])
    report.certificates.append(
        {"kind": "zero-differentials", "pages": zero_pages, "ok": True}
    )

    spec = DifferentialSpec(
        r_forced,
        source,
        must_die,
        provenance="sigma-must-die, unique candidate by bidegree enumeration",
    )
    einf = turn_page(page, [spec])

    collapse = certify_collapse(einf)
    report.certificates.append(
        dict(collapse.to_json_dict(), kind="collapse", ok=collapse.full)
    )
    if not collapse.full:
        raise PipelineError(f"no collapse on page {einf.r}", report)

    # independent path: straight DGA homology of the same differential
    deriv = extend_derivation(pres, {"m1": must_die}, r_forced)
    H = homology(pres, deriv, N)
    bound = min(H.cert_bound, einf.cert_bound)
    h_totals = _totals(H.dims_by_bidegree())
    einf_totals = _totals(einf.dims_by_bidegree())
    cross = all(
        h_totals.get(d, 0) == einf_totals.get(d, 0) for d in range(bound + 1)
    )
    report.certificates.append(
        {"kind": "dga-cross-check", "bound": bound, "ok": cross}
    )
    if not cross:
        raise PipelineError("page engine and DGA homology disagree", report)

    candidate = omega_candidate(p, N)
    iso = verify_presentation_iso(
        H, candidate, omega_reps(pres, p), omega_relations(candidate, p), N
    )
    report.certificates.append(
        {
            "kind": "presentation-iso",
            "bound": iso.bound,
            "skipped_relations": len(iso.skipped_relations),
            "ok": iso.ok,
        }
    )
    if not iso.ok:
        raise PipelineError("E-infinity is not the expected presentation", report)

    abutment = assemble_abutment(
        einf, candidate, omega_reps(pres, p), abutment_relations(p)
    )
    report.certificates.append(
        dict(abutment.to_json_dict(), kind="abutment", ok=abutment.ok)
    )
    if not abutment.ok:
        raise PipelineError("unresolved multiplicative extensions", report)

    report.result = presentation_dict(candidate)
    report.cert_bound = bound
    return candidate, report


_shared_json = lru_cache(maxsize=256)(json.loads)


def _share_content(step: StepReport) -> StepReport:
    """step with its result and each certificate replaced by a shared copy.

    Equal content, as JSON with sorted keys, becomes one read-only object
    (the last 256 contents are kept), so reports of one box share all their
    results and certificates, and reports of every box share step 1's; the
    report's JSON is unchanged.  This exists only because the benchmark
    (perfbench/run.py) holds every report of a run until its loop ends, and
    an unshared p = 5 report holds about 58 KB.  Delete it once that
    benchmark checks each report as its op ends.
    """
    step.result = _shared_json(json.dumps(step.result, sort_keys=True))
    step.certificates = [
        _shared_json(json.dumps(c, sort_keys=True)) for c in step.certificates
    ]
    return step


def reproduce_thh_ku(p: int, N: int = 100) -> PipelineReport:
    """Run all three steps and collect their reports.

    Step 3 needs the largest box, so its bound is checked before step 1.
    """
    _require_prime(p)
    _require_step3_box(p, N)
    steps = [step1_tor(p)[1], step2_v0(p, N)[1], step3_v1(p, N)[1]]
    return PipelineReport(p, N, [_share_content(s) for s in steps])
