"""Mod p and mod (p, v_1) THH of connective complex K-theory, as a pipeline.

Three steps, each a first-quadrant spectral sequence computation over F_p
whose E2 is built from the step before and the fact registry:

1. Tor over Z_p[u] of (F_p, Z_p), recognized as an exterior algebra on a
   degree-3 class, which step 1 returns renamed sigma-u (su, weight 0).
2. The relative run: E2 = E(su) (x) E(l1) (x) P(m1), step 1's result times
   Bokstedt's, collapses and abuts to E(su, l1) (x) P(m1) without extensions.
3. The absolute run: E2 = P_{p-1}(u) (x) E(su, l1) (x) P(m1), V(1)_* ku times
   step 2's result.  The vanishing of u^{p-2} su in the abutment forces the
   unique differential d_{2p-3}(m1) = u^{p-2} su (specseq.forced_run makes
   that argument); one page turn later everything collapses, the result is
   identified with Omega (x) E(l1), and every multiplicative extension is
   excluded by a strict lift or a weight obstruction.

Homotopy-theoretic inputs enter only through the fact registry below, which
states every E2 generator and weight once and words each fact from its data;
each step's report records exactly which facts it consumed, so a reported
result is re-runnable from the registry.  Omega is one table of generators
and cycle representatives, and every certificate goes through `_certify`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import lru_cache

from . import algebra as alg
from .algebra import Presentation, RelationSpec, ext, monomial_element, poly, trunc
from .dga import extend_derivation, homology, verify_presentation_iso
from .homalg import BaseRing, koszul_tor, recognize_free_presentation
from .linfp import check_index, check_prime
from .specseq import assemble_abutment, certify_collapse, forced_run, init_page


class PipelineError(RuntimeError):
    """A certificate failed; the partial report is attached."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class InputFact:
    """A cited statement and, as data, what a step reads from it: generators,
    a name -> Galois weight dict, or None for a fact that is only cited.
    The statement of a fact with data is a function of the data, so the
    printed `content` always reads what the steps read."""

    identifier: str
    statement: object
    citation: str
    data: object = None

    @property
    def content(self) -> str:
        return self.statement(self.data) if callable(self.statement) else self.statement


_FACTOR = {alg.EXTERIOR: "E", alg.POLYNOMIAL: "P", alg.TRUNCATED: "P_"}


def _algebra_text(gens) -> str:
    """The free algebra on gens: E(x), P(x) or P_h(x) factors joined by (x)."""
    return " (x) ".join(f"{_FACTOR[g.kind]}{g.height or ''}({g.name})" for g in gens)


def _weights_text(weights: dict) -> str:
    """One clause per weight, highest first: "u and su have weight 1; ..."."""
    groups = {}
    for name, w in sorted(weights.items(), key=lambda item: -item[1]):
        groups.setdefault(w, []).append(name)
    return "; ".join(
        f"{' and '.join(names)} {'has' if len(names) == 1 else 'have'} weight {w}"
        + (", being pulled back from the Adams summand" if w == 0 else "")
        for w, names in groups.items()
    )


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
                lambda gens: f"V(1)_* ku = {_algebra_text(gens)}, truncated polynomial "
                "on the mod (p, v1) Bott class",
                "Ausoni, Topological Hochschild homology of connective complex "
                "K-theory, Amer. J. Math. 127 (2005)",
                (trunc("u", p - 1, (0, 2)),),
            ),
            InputFact(
                "bokstedt-thh-zp",
                lambda gens: f"THH_*(Z_p; F_p) = {_algebra_text(gens)} with "
                + ", ".join(f"|{g.name}| = {g.total_degree}" for g in gens),
                "Bokstedt's periodicity computation of THH of the integers",
                (ext("l1", (2 * p - 1, 0)), poly("m1", (2 * p, 0))),
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
                lambda weights: f"Z/(p-1) Galois weights: {_weights_text(weights)}",
                "Ausoni's delta-action method; the Adams summand comparison",
                {"u": 1, "su": 1, "l1": 0, "m1": 0},
            ),
        ]
    }


@dataclass
class StepReport:
    name: str
    result: dict
    consumed_facts: list
    cert_bound: int | None
    certificates: list = field(default_factory=list, init=False)

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
        return all(c["ok"] for s in self.steps for c in s.certificates)

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
                "weight": g.weight,
            }
            for g in pres.generators
        ],
    }


def _require_box(p: int, N: int, gens) -> int:
    """N as an int; ValueError unless it is an integer of at least the
    largest total degree of gens plus 2."""
    N = check_index(N, "max degree")
    top = max(g.total_degree for g in gens)
    if N < top + 2:
        raise ValueError(
            f"max degree {N} too small for p = {p}: the abutment generators "
            f"reach total degree {top}, need at least {top + 2}"
        )
    return N


def _certify(report: StepReport, cert: dict, message: str):
    """Record cert in report; PipelineError(message, report) unless cert["ok"]."""
    report.certificates.append(cert)
    if not cert["ok"]:
        raise PipelineError(message, report)


# ------------------------------------------------------------------ step 1

TOR_BOX = 40  # internal degrees of step 1's Tor table, and its certified bound


def step1_tor(p: int):
    """Tor_{Z_p[u]}(F_p, Z_p): an exterior class in total degree 3.

    Returns the recognized presentation, its generator renamed su (bidegree
    (3, 0) in the total-degree convention, weight 0), and its step report.
    """
    p = check_prime(p, alg.LEAST_PRIME)
    table = koszul_tor(BaseRing("zp", p), "fp", "zp", TOR_BOX)
    rec = recognize_free_presentation(table.total_series(TOR_BOX), p)
    report = StepReport("tor-of-smash", {}, ["ku-homotopy"], TOR_BOX)
    cert = {
        "kind": "tor-recognition",
        "table": {f"{n},{m}": v for (n, m), v in table.nonzero()},
        "recognized": rec.note if rec.presentation else "not free",
        "forced": rec.forced,
        "ok": rec.presentation is not None and rec.forced,
    }
    _certify(report, cert, "Tor table was not recognized as forced-free")
    gens = rec.presentation.generators
    if [g.total_degree for g in gens] != [3]:
        raise PipelineError("Tor table is not an exterior algebra on degree 3", report)
    pres = replace(rec.presentation, generators=(replace(gens[0], name="su"),))
    report.result = presentation_dict(pres)
    return pres, report


# ------------------------------------------------------------------ step 2

def relative_e2(tor_pres: Presentation, N: int) -> Presentation:
    """E2 of the relative run: step 1's generators in the rows at weight 0 (this
    run reads no weights), then "bokstedt-thh-zp" in the columns."""
    rows = [replace(g, bidegree=(0, g.total_degree), weight=0) for g in tor_pres.generators]
    columns = input_facts(tor_pres.p)["bokstedt-thh-zp"].data
    return Presentation(tor_pres.p, (*rows, *columns), N)


def step2_v0(tor_pres: Presentation, N: int):
    """The relative run: full E2 collapse, free-commutative abutment.

    Its result is the E2 with every generator moved to (total degree, 0).
    """
    p = tor_pres.p
    pres = relative_e2(tor_pres, 0)
    N = _require_box(p, N, pres.generators)
    pres = replace(pres, max_degree=N)
    page = init_page(pres)
    collapse = certify_collapse(page)
    moved = [replace(g, bidegree=(g.total_degree, 0)) for g in pres.generators]
    result = Presentation(p, moved, N)
    report = StepReport(
        "relative-run",
        presentation_dict(result),
        ["ku-homotopy", "bokstedt-thh-zp"],
        page.survival_bound,
    )
    _certify(report, collapse.to_json_dict(), "relative run does not collapse on the front page")
    lifts = {g.name: monomial_element(pres, {g.name: 1}) for g in pres.generators}
    abutment = assemble_abutment(page, pres, lifts, [])
    message = "relative abutment is not free graded-commutative"
    _certify(report, abutment.to_json_dict(), message)
    if not abutment.free_commutative:
        raise PipelineError(message, report)
    return result, report


# ------------------------------------------------------------------ step 3

def absolute_e2(rel_pres: Presentation, N: int) -> Presentation:
    """E2 of the absolute run: "v1-ku" in the rows, then step 2's result,
    each generator with its weight from "delta-weights"."""
    facts = input_facts(rel_pres.p)
    weight = facts["delta-weights"].data
    gens = facts["v1-ku"].data + rel_pres.generators
    return Presentation(rel_pres.p, [replace(g, weight=weight[g.name]) for g in gens], N)


def weight_table(p: int) -> dict:
    """Galois weights of the abutment generators, in Z/(p-1), typed in apart
    from "delta-weights" so that a wrong entry there fails the lift checks."""
    p = check_prime(p, alg.LEAST_PRIME)
    table = {"u": 1, "l1": 0, "mu2": 0}
    for i in range(p):
        table[f"a{i}"] = 1
    for i in range(1, p):
        table[f"b{i}"] = 1
    return table


def _omega(p: int) -> list:
    """Omega as (generator, cycle representative exponents) pairs: u, l1,
    mu2 = m1^p, a_i = su m1^i for 0 <= i < p, b_i = u m1^i for 0 < i < p.

    Kinds encode the monomial-bound relations: u is truncated at p-1 and the
    a_i and l1 are exterior; verify_presentation_iso checks each kind bound
    once, as a relation, listed in abutment_relations or not.
    """
    return [
        (trunc("u", p - 1, (0, 2)), {"u": 1}),
        (ext("l1", (2 * p - 1, 0)), {"l1": 1}),
        (poly("mu2", (2 * p * p, 0)), {"m1": p}),
        *((ext(f"a{i}", (2 * p * i + 3, 0)), {"su": 1, "m1": i}) for i in range(p)),
        *((poly(f"b{i}", (2 * p * i, 2)), {"u": 1, "m1": i}) for i in range(1, p)),
    ]


def omega_candidate(p: int, N: int) -> Presentation:
    """Generators of the abutment, u, l1, mu2, a_0..a_{p-1}, b_1..b_{p-1},
    with their weights from weight_table."""
    w = weight_table(p)
    return Presentation(p, [replace(g, weight=w[g.name]) for g, _ in _omega(p)], N)


def omega_reps(pres: Presentation, p: int) -> dict:
    """Cycle representatives in pres of the generators of omega_candidate(p, N)."""
    return {g.name: monomial_element(pres, exponents) for g, exponents in _omega(p)}


def abutment_relations(p: int) -> list:
    """rel1..rel8 as abutment statements, with b_0 = u throughout.

    The one place the relations are written: step 3 hands this one list to
    verify_presentation_iso and to assemble_abutment.
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

    def family(first: int, step: int = 2 * p) -> int:
        """1 if d is first plus a nonnegative multiple of step, else 0."""
        return int(d >= first and (d - first) % step == 0)

    return (
        family(0, 2 * p * p)
        + sum(family(2 * i) for i in range(1, p - 1))
        + sum(family(2 * i + 3) for i in range(p - 2))
        + family(2 * p * p - 1, 2 * p * p)
    )


def full_basis_count(p: int, d: int) -> int:
    """Dimension of the abutment in degree d: the four families times E(l1)."""
    return basis_formula_count(p, d) + basis_formula_count(p, d - (2 * p - 1))


def step3_v1(rel_pres: Presentation, N: int):
    """The absolute run: forced differential, collapse, identification, lifts."""
    p = rel_pres.p
    N = _require_box(p, N, (g for g, _ in _omega(p)))
    pres = absolute_e2(rel_pres, N)
    facts = [
        "v1-ku",
        "bokstedt-thh-zp",
        "ku-homotopy",
        "delta-weights",
        "sigma-must-die",
        "u-permanent",
    ]
    report = StepReport("absolute-run", {}, facts, None)

    u = monomial_element(pres, {"u": 1})
    must_die = monomial_element(pres, {"u": p - 2, "su": 1})
    einf, certs = forced_run(init_page(pres), must_die, permanent=[u])
    (forced, message), *rest = certs
    _certify(report, dict(forced, fact="sigma-must-die", exclusions=["u-permanent"]), message)
    if forced["candidates"] != [(2 * p - 3, "m1")]:
        raise PipelineError("unexpected forced differential candidate", report)
    for cert, message in rest:
        _certify(report, cert, message)

    # independent path: straight DGA homology of the same differential
    deriv = extend_derivation(pres, {"m1": must_die}, 2 * p - 3)
    H = homology(pres, deriv, N)
    bound = min(H.cert_bound, einf.cert_bound)
    cross = all(H.dim_total(d) == einf.dim_total(d) for d in range(bound + 1))
    _certify(
        report,
        {"kind": "dga-cross-check", "bound": bound, "ok": cross},
        "page engine and DGA homology disagree",
    )

    candidate, reps = omega_candidate(p, N), omega_reps(pres, p)
    relations = abutment_relations(p)
    iso = verify_presentation_iso(H, candidate, reps, relations)
    _certify(report, iso.to_json_dict(), "E-infinity is not the expected presentation")
    abutment = assemble_abutment(einf, candidate, reps, relations)
    _certify(report, abutment.to_json_dict(), "unresolved multiplicative extensions")

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


def reproduce_thh_ku(p: int, N: int) -> PipelineReport:
    """Run all three steps and collect their reports.

    Step 3 needs the largest box, so its bound is checked before step 1.
    """
    p = check_prime(p, alg.LEAST_PRIME)
    N = _require_box(p, N, (g for g, _ in _omega(p)))
    tor_pres, tor_report = step1_tor(p)
    rel_pres, rel_report = step2_v0(tor_pres, N)
    steps = [tor_report, rel_report, step3_v1(rel_pres, N)[1]]
    return PipelineReport(p, N, [_share_content(s) for s in steps])
