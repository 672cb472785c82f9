import dataclasses
import gc
import hashlib
import sys
import types
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradss import algebra as alg
from gradss import cli, dga, specseq, thhku
from gradss.algebra import RelationSpec, ext, monomial_element, poly, trunc
from gradss.dga import homology, verify_presentation_iso
from gradss.dsl import parse
from gradss.specseq import assemble_abutment, init_page, turn_page
from gradss.thhku import (
    PipelineError,
    abutment_relations,
    basis_formula_count,
    full_basis_count,
    input_facts,
    omega_candidate,
    omega_reps,
    reproduce_thh_ku,
    step1_tor,
    step2_v0,
    step3_v1,
    weight_table,
)

from helpers import (
    absolute_e2,
    brunku2_spec,
    check_plain_int_answer_or_value_error,
    intro_dga,
    relative_e2,
)

DATA = Path(thhku.__file__).parent / "data"


def step3(p, N):
    """Step 3 on step 2's result, as reproduce_thh_ku runs it."""
    return step3_v1(step2_v0(step1_tor(p)[0], N)[0], N)


def test_step1_exterior_class_p5():
    pres, report = step1_tor(5)
    (g,) = pres.generators
    assert g.kind == "exterior" and g.total_degree == 3
    assert report.certificates[0]["table"] == {"0,0": 1, "1,2": 1}
    # the recognized class, renamed: weights are stated only in "delta-weights"
    assert (g.name, g.bidegree, g.weight) == ("su", (3, 0), 0)
    assert report.result["generators"][0]["weight"] == 0


def test_step1_is_p_independent():
    pres5, _ = step1_tor(5)
    pres7, _ = step1_tor(7)
    assert [g.total_degree for g in pres5.generators] == [
        g.total_degree for g in pres7.generators
    ]


@pytest.mark.parametrize("call", [reproduce_thh_ku, step1_tor, weight_table])
@pytest.mark.parametrize("p", [4, 3, 2147483659])
def test_a_bad_prime_is_a_value_error(call, p):
    # linfp.check_prime is the one refuser: a bad prime is bad input, not a
    # failed certificate
    args = (p, 103) if call is reproduce_thh_ku else (p,)
    with pytest.raises(ValueError, match=rf"^p = {p}: need a prime in \[5, 2147483647\]$"):
        call(*args)


def test_step2_result_degrees():
    for p in (5, 7):
        result, report = step2_v0(step1_tor(p)[0], 60)
        assert [g.total_degree for g in result.generators] == [3, 2 * p - 1, 2 * p]
        kinds = [g.kind for g in result.generators]
        assert kinds == ["exterior", "exterior", "polynomial"]
        assert all(c["ok"] for c in report.certificates)


def test_step2_collapse_witness_degree():
    # the page is empty in total degree 2p - 2
    for p in (5, 7):
        pres = relative_e2(p, 60)
        assert alg.dimension_series(pres, 2 * p - 2)[2 * p - 2] == 0


def test_step3_generator_degrees_p5():
    result, report = step3(5, 70)
    by_name = {g.name: g.total_degree for g in result.generators}
    assert by_name["u"] == 2
    assert by_name["mu2"] == 50
    assert [by_name[f"a{i}"] for i in range(5)] == [3, 13, 23, 33, 43]
    assert [by_name[f"b{i}"] for i in range(1, 5)] == [12, 22, 32, 42]
    assert by_name["l1"] == 9
    assert all(c["ok"] for c in report.certificates)


def test_step3_dimension_at_degree_twelve():
    # exactly b1 and l1 a0
    _, report = step3(5, 70)
    pres, d = intro_dga(5, 70)
    H = homology(pres, d, 70)
    assert H.dim_total(12) == 2
    assert full_basis_count(5, 12) == 2


def test_step3_weight_obstruction_listing():
    _, report = step3(5, 70)
    abutment = [c for c in report.certificates if c["kind"] == "abutment"][0]
    rel8 = [r for r in abutment["relations"] if r["label"] == "rel8[1,2]"]
    assert rel8 and rel8[0]["kind"] == "weight-obstruction"
    # obstruction classes u^2 b_{i+j} and l1 u^2 a_{i+j-1} both carry weight 3
    assert "weight 3" in rel8[0]["details"]


def test_step3_justification_kinds():
    _, report = step3(5, 90)
    abutment = [c for c in report.certificates if c["kind"] == "abutment"][0]
    kinds = {r["label"]: r["kind"] for r in abutment["relations"]}
    assert kinds["rel1"] == "strict-lift"
    for label, kind in kinds.items():
        family = label.split("[")[0]
        if family in ("rel1", "rel2", "rel3", "rel4", "rel6"):
            assert kind == "strict-lift", label
        else:
            assert kind == "weight-obstruction", label


def test_weight_table():
    table = weight_table(5)
    assert table["u"] == 1 and table["l1"] == 0 and table["mu2"] == 0
    assert table["a2"] == 1 and table["b3"] == 1
    # weight of a2 b3 is 2, weight of l1 u^2 b2 is 3
    assert (table["a2"] + table["b3"]) % 4 == 2
    assert (table["l1"] + 2 * table["u"] + table["b2"]) % 4 == 3


def test_basis_formula_small_degrees():
    # degrees 0..12 for p = 5: 1, u, u^2, u^3, su, u su, u^2 su, b1, a1-free...
    expected = {0: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 0, 9: 0, 10: 0, 11: 0, 12: 1}
    for d, v in expected.items():
        assert basis_formula_count(5, d) == v, d
    # a negative degree holds nothing, also at a multiple of |mu2| = 50
    assert basis_formula_count(5, -50) == full_basis_count(5, -50) == 0


def test_input_facts_cover_pipeline():
    facts = input_facts(5)
    _, r3 = step3(5, 70)
    for fid in r3.consumed_facts:
        assert fid in facts


@pytest.mark.parametrize("p", [5, 7, 11])
def test_facts_with_data_are_worded_from_it(p):
    facts = input_facts(p)
    assert facts["v1-ku"].content == (
        f"V(1)_* ku = P_{p - 1}(u), truncated polynomial on the mod (p, v1) Bott class"
    )
    assert facts["bokstedt-thh-zp"].content == (
        f"THH_*(Z_p; F_p) = E(l1) (x) P(m1) with |l1| = {2 * p - 1}, |m1| = {2 * p}"
    )
    assert facts["delta-weights"].content == (
        "Z/(p-1) Galois weights: u and su have weight 1; l1 and m1 have weight 0, "
        "being pulled back from the Adams summand"
    )


@pytest.mark.parametrize("p", [5, 7, 11])
def test_omega_reps_lift_every_candidate_generator(p):
    N = 2 * p * p + 2
    candidate = omega_candidate(p, N)
    pres = absolute_e2(p, N)
    reps = omega_reps(pres, p)
    assert list(reps) == [g.name for g in candidate.generators]
    for g in candidate.generators:
        assert sum(alg.bidegree_of(pres, reps[g.name])) == g.total_degree, g.name


def test_a_failing_zero_differential_page_ends_the_report(monkeypatch):
    # at p = 5 pages 2..6 are shown to vanish before d_7; page 4 is made to fail
    original = specseq.certify_zero_differentials

    def failing_on_page_4(page, permanent=()):
        cert = original(page, permanent)
        if page.r == 4:
            return dataclasses.replace(cert, obstructions=[("m1", (0, 4))])
        return cert

    monkeypatch.setattr(specseq, "certify_zero_differentials", failing_on_page_4)
    with pytest.raises(PipelineError, match="page 4 differential not forced to vanish") as err:
        step3(5, 60)
    certs = err.value.report.certificates
    assert [c["kind"] for c in certs] == ["forced-differential", "zero-differentials"]
    assert certs[-1]["ok"] is False
    assert [(z["page"], z["ok"]) for z in certs[-1]["pages"]] == [
        (2, True), (3, True), (4, False)
    ]
    # only the failed page names its obstructions
    assert [z.get("obstructions") for z in certs[-1]["pages"]] == [None, None, [("m1", (0, 4))]]


def test_skipped_relations_count_every_relation_past_the_bound():
    # the listed relations and the kind powers none of them states (l1^2
    # here), each once; past N - 1 each is skipped and counted, and from the
    # least full box 4p^2 - 4p + 8 = 88 none is
    p = 5
    candidate = omega_candidate(p, 10)
    rels = [r.element(candidate) for r in abutment_relations(p)]
    unit = candidate.unit_monomial
    for i, cap in enumerate(candidate.caps):
        power = alg.Element({unit[:i] + (cap,) + unit[i + 1 :]: 1}) if cap else None
        if power and power not in rels:
            rels.append(power)
    assert len(rels) == len(abutment_relations(p)) + 1
    degrees = [sum(alg.bidegree_of(candidate, rel)) for rel in rels]
    for N in range(52, 111):
        step3 = reproduce_thh_ku(p, N).steps[2]
        (iso,) = [c for c in step3.certificates if c["kind"] == "presentation-iso"]
        assert iso["skipped_relations"] == sum(d > N - 1 for d in degrees), N
        assert N < 88 or iso["skipped_relations"] == 0, N


def test_abutment_relation_count():
    rels = abutment_relations(5)
    labels = [r.label for r in rels]
    assert len(labels) == len(set(labels))
    families = {}
    for lbl in labels:
        families[lbl.split("[")[0]] = families.get(lbl.split("[")[0], 0) + 1
    assert families["rel1"] == 1
    assert families["rel2"] == 4   # i = 0..p-2
    assert families["rel3"] == 4
    assert families["rel4"] + families["rel6"] == 10  # pairs 1 <= i <= j <= 4
    assert families["rel5"] + families["rel7"] == 20  # i in 0..4, j in 1..4
    assert families["rel8"] == 15  # pairs 0 <= i <= j <= 4


def test_reproduce_pipeline_json_roundtrip():
    report = reproduce_thh_ku(5, 60)
    assert report.ok
    text = report.to_json()
    import json

    data = json.loads(text)
    assert data["prime"] == 5
    assert [s["name"] for s in data["steps"]] == [
        "tor-of-smash",
        "relative-run",
        "absolute-run",
    ]


def test_reproduce_runs_step2_once(monkeypatch):
    # step 3 builds its E2 from the result step 2 returned, not from a rebuild
    calls, results, step3_calls = [], [], []

    def counted(*args):
        calls.append(args)
        out = step2_v0(*args)
        results.append(out[0])
        return out

    def recorded(*args):
        step3_calls.append(args)
        return step3_v1(*args)

    monkeypatch.setattr(thhku, "step2_v0", counted)
    monkeypatch.setattr(thhku, "step3_v1", recorded)
    assert reproduce_thh_ku(5, 60).ok
    ((tor_pres, N),) = calls
    assert N == 60 and tor_pres == step1_tor(5)[0]
    ((rel_pres, N),) = step3_calls
    assert N == 60 and rel_pres is results[0]


def test_reproduce_runs_step1_once(monkeypatch):
    # step 2 builds its rows from the presentation step 1 returned
    calls = []

    def counted(*args):
        calls.append(args)
        return step1_tor(*args)

    monkeypatch.setattr(thhku, "step1_tor", counted)
    assert reproduce_thh_ku(5, 60).ok
    assert calls == [(5,)]


def test_step3_expands_each_monomial_once_and_reads_each_cell_once(monkeypatch):
    # d is expanded once per (derivation, monomial); collapse reads no cell twice
    rel_pres = step2_v0(step1_tor(5)[0], 103)[0]
    expanded = Counter()
    derivations = []  # held, so that no two derivations share an id

    def counted_expansion(d, mono, _d_monomial=dga.d_monomial):
        derivations.append(d)
        expanded[id(d), mono] += 1
        return _d_monomial(d, mono)

    reads = Counter()
    collapsing = []

    def counted_read(name, method):
        def read(page, bd):
            if collapsing:
                reads[name, id(page), bd] += 1
            return method(page, bd)
        return read

    def counted_collapse(page, _certify=specseq.certify_collapse):
        collapsing.append(page)
        try:
            return _certify(page)
        finally:
            collapsing.pop()

    monkeypatch.setattr(dga, "d_monomial", counted_expansion)
    monkeypatch.setattr(specseq.Page, "dim", counted_read("dim", specseq.Page.dim))
    monkeypatch.setattr(specseq.Page, "reps", counted_read("reps", specseq.Page.reps))
    monkeypatch.setattr(specseq, "certify_collapse", counted_collapse)
    _, report = step3_v1(rel_pres, 103)
    assert report.certificates[-1]["ok"]
    assert expanded and max(expanded.values()) == 1
    assert max(reads.values(), default=1) == 1


def _count_calls(monkeypatch, *targets):
    """Count the calls of each (module, name) from now on, by name."""
    calls = Counter()
    for module, name in targets:
        def call(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, call)
    return calls


def test_reproduce_builds_each_derivation_and_lift_once(monkeypatch):
    # the page turn and the DGA homology share one derivation, and the
    # presentation certificate and the abutment share one lift map, so the
    # run expands d 19 times and multiplies monomials 210 times; with a
    # second lift map it multiplies them 272 times, and sharing neither
    # expands d 38 times
    calls = _count_calls(monkeypatch, (dga, "d_monomial"), (alg, "multiply_monomials"))
    assert reproduce_thh_ku(5, 103).ok
    assert calls["d_monomial"] <= 19
    assert calls["multiply_monomials"] <= 217


def test_a_second_lift_map_breaks_the_sharing_bound(monkeypatch):
    # the bound above is not vacuous: a run that builds the lift map anew
    # for the abutment goes past it
    fresh = alg.monomial_map

    def unshared(source, target, images):
        for key in [k for k in source._built if k[0] == "monomial_map"]:
            del source._built[key]
        return fresh(source, target, images)

    monkeypatch.setattr(alg, "monomial_map", unshared)
    calls = _count_calls(monkeypatch, (alg, "multiply_monomials"))
    assert reproduce_thh_ku(5, 103).ok
    assert calls["multiply_monomials"] > 217


def images_evaluated_inside(monkeypatch, name):
    """(target, bidegree) of every monomial an algebra map evaluates while
    thhku's `name` runs in reproduce_thh_ku(5, 103), which must pass."""
    seen = []
    fresh, inside = alg.monomial_map, []
    wrapped = getattr(thhku, name)

    def recording(source, target, images):
        f = fresh(source, target, images)

        def g(mono):
            if inside:
                seen.append((target, alg.bidegree(source, mono)))
            return f(mono)
        return g

    def traced(*args):
        inside.append(True)
        try:
            return wrapped(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(alg, "monomial_map", recording)
    monkeypatch.setattr(thhku, name, traced)
    assert reproduce_thh_ku(5, 103).ok
    return seen


def test_verify_iso_evaluates_no_image_where_the_dga_has_no_monomial(monkeypatch):
    # at (5, 103) 20 of the given relations and the kind power l1^2 lie in
    # bidegrees where the DGA holds no monomial; their images are 0 and are
    # never evaluated, and the certificate still passes
    seen = images_evaluated_inside(monkeypatch, "verify_presentation_iso")
    assert seen and all(bd in alg.monomial_table(target) for target, bd in seen)
    cand, table = omega_candidate(5, 103), alg.monomial_table(absolute_e2(5, 103))
    rbds = [alg.bidegree_of(cand, r.element(cand)) for r in abutment_relations(5)]
    assert sum(bd not in table for bd in rbds if sum(bd) <= 102) == 20
    assert (18, 0) not in table  # l1^2


def test_abutment_evaluates_no_image_where_e2_has_no_monomial(monkeypatch):
    # the same 20 relations are settled at E-infinity without evaluating
    # their images, which are 0; only relation terms are evaluated
    seen = images_evaluated_inside(monkeypatch, "assemble_abutment")
    assert seen and all(bd in alg.monomial_table(target) for target, bd in seen)
    cand = omega_candidate(5, 103)
    rbds = {alg.bidegree_of(cand, r.element(cand)) for r in abutment_relations(5)}
    evaluated = {bd for _, bd in seen}
    assert evaluated <= rbds and len(evaluated) < len(rbds)


GOLDEN_REPORT = Path(__file__).parent / "data" / "reproduce_thh_ku_p5_N103.json"


def test_reproduce_report_bytes_match_golden():
    """The report at the p = 5 acceptance box is pinned byte for byte.

    Regenerate the file only for an intended change of the report:
    reproduce_thh_ku(5, 103).to_json() written to GOLDEN_REPORT.
    """
    assert reproduce_thh_ku(5, 103).to_json().encode() == GOLDEN_REPORT.read_bytes()


def test_reproduce_report_bytes_match_golden_p7():
    """The p = 7 box that first holds every relation, pinned the same way."""
    golden = GOLDEN_REPORT.with_name("reproduce_thh_ku_p7_N176.json")
    assert reproduce_thh_ku(7, 176).to_json().encode() == golden.read_bytes()


def test_reproduce_reports_match_the_digest_grid():
    """The report JSON of every box of a grid is pinned by its sha256: p = 5
    at N = 52..130, p = 7 at N = 100, 120, 150, 176 and 199, (11, 448) and
    (13, 632).  Regenerate the file only for an intended change of the
    report, one `p N sha256` line per box."""
    grid = GOLDEN_REPORT.with_name("reproduce_digests.txt").read_text().splitlines()
    assert len(grid) == 86
    changed = []
    for line in grid:
        p, N, digest = line.split()
        report = reproduce_thh_ku(int(p), int(N)).to_json().encode()
        if hashlib.sha256(report).hexdigest() != digest:
            changed.append((p, N))
    assert changed == []


@pytest.mark.parametrize("p, N", [(5, 103), (7, 176)])
def test_every_certificate_states_a_bool_ok(p, N):
    report = reproduce_thh_ku(p, N)
    for step in report.steps:
        assert step.certificates
        assert all(type(c["ok"]) is bool for c in step.certificates), step.name


@pytest.mark.parametrize("p, N", [(11, 448), (13, 632)])
def test_reproduce_certifies_large_primes(p, N):
    # the smallest boxes that hold every relation at p = 11 and 13
    report = reproduce_thh_ku(p, N)
    assert report.ok
    step3 = report.steps[-1]
    certs = {c["kind"]: c for c in step3.certificates}
    assert certs["presentation-iso"]["skipped_relations"] == 0
    abutment = certs["abutment"]
    assert abutment["unresolved"] == [] and abutment["beyond_truncation"] == []
    totals = {}
    for key, dim in abutment["einf_dims"].items():
        n, m = map(int, key.split(","))
        totals[n + m] = totals.get(n + m, 0) + dim
    for d in range(step3.cert_bound + 1):
        assert totals.get(d, 0) == full_basis_count(p, d), d


def held_bytes(roots) -> int:
    """sys.getsizeof summed over the objects reachable from roots, each once.

    Types, modules and functions are not followed.  An object graph walk
    rather than tracemalloc, which slows the pipeline about sevenfold.
    """
    seen, stack, total = set(), list(roots), 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def test_held_reports_share_their_repeated_parts():
    # Reports of one box repeat their results and certificates; a caller
    # holding many keeps one copy of each (58 KB per report when every
    # report carried its own), and a further report of a box already held
    # costs little more than its own step objects (about 0.8 KB).
    boxes = range(100, 108)
    held = [reproduce_thh_ku(5, boxes[i % len(boxes)]) for i in range(80)]
    first = held_bytes(held[:40])
    assert first / 40 < 25 * 1024
    assert (held_bytes(held) - first) / 40 < 2 * 1024


def test_equal_reports_share_every_result_and_certificate():
    # the held-report sharing above rests on this: equal finished steps are
    # one object each, and sharing changes no byte of the report
    first, second = reproduce_thh_ku(5, 103), reproduce_thh_ku(5, 103)
    assert first.to_json() == second.to_json()
    for a, b in zip(first.steps, second.steps, strict=True):
        assert a.result is b.result
        assert len(a.certificates) == len(b.certificates)
        assert all(x is y for x, y in zip(a.certificates, b.certificates))


def test_step3_result_is_freed_with_its_report():
    # no cache keyed by the candidate presentation outlives the caller's
    # reference, nor the lift map kept on it; no other test builds the box
    # N = 98, so this candidate is the first of its box any cache could keep
    ref = weakref.ref(step3(5, 98)[0])
    gc.collect()
    assert ref() is None


GOLDEN_OMEGA = Path(__file__).parent / "data" / "omega_relations_p5_p7_p11.txt"


def render_relation(p, candidate, el):
    """One line per relation: the prime, then its terms as `coeff name^exp ...`."""
    names = [g.name for g in candidate.generators]
    terms = []
    for mono, c in sorted(el.coeffs.items()):
        factors = " ".join(f"{n}^{e}" for n, e in zip(names, mono) if e)
        terms.append(f"{c} {factors}")
    return f"{p}: " + " + ".join(terms)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_candidate_relations_match_golden(p):
    """The relations verify_presentation_iso checks on the candidate, relation
    by relation, as written when rel2-rel8 were still stated a second time in
    thhku; regenerate only for an intended change of the relations."""
    candidate = omega_candidate(p, 10)
    specs = abutment_relations(p)

    def states_a_kind(spec):
        """Whether spec is g^cap = 0 for a capped generator g."""
        if spec.rhs or len(spec.lhs) != 1:
            return False
        ((name, e),) = spec.lhs
        return e == candidate.caps[candidate.index(name)]

    got = [r.element(candidate) for r in specs if not states_a_kind(r)]
    want = [
        line
        for line in GOLDEN_OMEGA.read_text().splitlines()
        if line.startswith(f"{p}: ")
    ]
    assert [render_relation(p, candidate, el) for el in got] == want
    # abutment_relations minus rel1 and the p relations rel8[i,i] = a_i^2
    kind_bounds = {"rel1"} | {f"rel8[{i},{i}]" for i in range(p)}
    assert kind_bounds == {rel.label for rel in specs if states_a_kind(rel)}
    assert len(got) == len(specs) - len(kind_bounds)
    assert got[0] == monomial_element(candidate, {"u": p - 2, "a0": 1})


def step3_inputs(p, N):
    """H, E-infinity, the candidate and its lifts, as step 3 builds them."""
    pres, d = intro_dga(p, N)
    page = init_page(pres)
    while page.r < 2 * p - 3:
        page = turn_page(page, [])
    einf = turn_page(page, [brunku2_spec(pres, p)])
    return homology(pres, d, N), einf, omega_candidate(p, N), omega_reps(pres, p)


def test_a_mutated_relation_fails_both_certificates():
    # b1^2 = 2 u b2 instead of u b2: both certificates name it by its label
    p, N = 5, 60
    H, einf, cand, reps = step3_inputs(p, N)
    rels = abutment_relations(p)
    assert verify_presentation_iso(H, cand, reps, rels).ok
    assert assemble_abutment(einf, cand, reps, rels).ok
    ((c, mono),) = rels[[r.label for r in rels].index("rel4[1,1]")].rhs
    assert c == 1
    rels = [
        dataclasses.replace(r, rhs=((2, mono),)) if r.label == "rel4[1,1]" else r
        for r in rels
    ]
    iso = verify_presentation_iso(H, cand, reps, rels)
    assert [label for label, _, _ in iso.relation_failures] == ["rel4[1,1]"]
    abutment = assemble_abutment(einf, cand, reps, rels)
    assert abutment.unresolved == [("rel4[1,1]", "fails-at-E-infinity")]


def test_an_inhomogeneous_relation_is_refused_by_both_certificates():
    p, N = 5, 60
    H, einf, cand, reps = step3_inputs(p, N)
    # b1 sits at (10, 2) and u b1 at (10, 4); the label names the refusal
    mixed = RelationSpec("rel-mixed", (("b1", 1),), ((1, (("u", 1), ("b1", 1))),))
    rels = abutment_relations(p) + [mixed]
    with pytest.raises(ValueError, match="rel-mixed: terms of different bidegrees"):
        verify_presentation_iso(H, cand, reps, rels)
    with pytest.raises(ValueError, match="rel-mixed: terms of different bidegrees"):
        assemble_abutment(einf, cand, reps, rels)


def test_a_non_integer_prime_or_box_is_refused():
    with pytest.raises(ValueError, match="p = 5.0"):
        reproduce_thh_ku(5.0, 103)
    with pytest.raises(ValueError, match="p = True"):
        reproduce_thh_ku(True, 103)
    with pytest.raises(ValueError, match="max degree 103.5 is not an integer"):
        reproduce_thh_ku(5, 103.5)
    with pytest.raises(ValueError, match="max degree 103.0 is not an integer"):
        step3_v1(step2_v0(step1_tor(5)[0], 103)[0], 103.0)
    with pytest.raises(ValueError, match="max degree 60.5 is not an integer"):
        step2_v0(step1_tor(5)[0], 60.5)
    with pytest.raises(ValueError, match="reach total degree 10, need at least 12"):
        step2_v0(step1_tor(5)[0], 11)


def test_numpy_integer_prime_and_box_give_the_plain_report():
    report = reproduce_thh_ku(np.int64(5), np.int64(103))
    assert type(report.prime) is int and type(report.max_degree) is int
    assert report.to_json().encode() == GOLDEN_REPORT.read_bytes()


BOXES = st.one_of(
    st.integers(100, 107),
    st.integers(40, 51),
    st.integers(-(2**80), -(2**63)),
    st.integers(100, 107).map(np.int64),
    st.integers(100, 107).map(np.int32),
    st.integers(100, 107).map(float),
    st.floats(100, 107),
    st.booleans(),
)


@settings(max_examples=20, deadline=None)
@given(BOXES)
def test_a_box_gives_the_plain_report_or_value_error(N):
    # boxes below 52 are too small at p = 5 and refused like their plain ints
    check_plain_int_answer_or_value_error(
        lambda box: reproduce_thh_ku(5, box), N, lambda report: report.to_json()
    )


class RecordingFacts(dict):
    """A registry that records the identifier of every fact looked up in it."""

    def __init__(self, facts, reads):
        super().__init__(facts)
        self.reads = reads

    def __getitem__(self, fid):
        self.reads.add(fid)
        return super().__getitem__(fid)


def test_each_step_reads_only_the_facts_it_consumed(monkeypatch):
    reads = set()
    original = thhku.input_facts
    monkeypatch.setattr(thhku, "input_facts", lambda p: RecordingFacts(original(p), reads))

    def run(step, *args):
        reads.clear()
        result, report = step(*args)
        assert reads <= set(report.consumed_facts), report.name
        return result, set(reads)

    tor_pres, read1 = run(step1_tor, 5)
    rel_pres, read2 = run(step2_v0, tor_pres, 103)
    _, read3 = run(step3_v1, rel_pres, 103)
    assert (read1, read2, read3) == (set(), {"bokstedt-thh-zp"}, {"v1-ku", "delta-weights"})
    reads.clear()
    assert reproduce_thh_ku(5, 103).ok
    assert reads == {fid for fid, fact in original(5).items() if fact.data is not None}


@pytest.mark.parametrize("p", [5, 7])
def test_pipeline_e2_pages_equal_the_shipped_files_and_the_references(p):
    tor_pres = step1_tor(p)[0]
    rel_e2 = thhku.relative_e2(tor_pres, 100)
    assert rel_e2 == parse((DATA / f"brunku1_p{p}.ss").read_text()).presentation
    assert rel_e2 == relative_e2(p, 100)
    rel_pres = step2_v0(tor_pres, 100)[0]
    assert [g.bidegree for g in rel_pres.generators] == [(3, 0), (2 * p - 1, 0), (2 * p, 0)]
    assert all(g.weight == 0 for g in rel_pres.generators)
    abs_e2 = thhku.absolute_e2(rel_pres, 100)
    assert abs_e2 == parse((DATA / f"brunku2_p{p}.ss").read_text()).presentation
    assert abs_e2 == absolute_e2(p, 100)


# (fact, mutated data, failure message, the fact's content at p = 5)
REGISTRY_MUTATIONS = {
    "m1 at degree 2p + 2": (
        "bokstedt-thh-zp",
        lambda p: (ext("l1", (2 * p - 1, 0)), poly("m1", (2 * p + 2, 0))),
        "relative abutment is not free graded-commutative",
        "THH_*(Z_p; F_p) = E(l1) (x) P(m1) with |l1| = 9, |m1| = 12",
    ),
    "su at weight 0": (
        "delta-weights",
        lambda p: {"u": 1, "su": 0, "l1": 0, "m1": 0},
        "lift of a0 has weight 0, declared 1",
        "Z/(p-1) Galois weights: u has weight 1; su and l1 and m1 have weight 0, "
        "being pulled back from the Adams summand",
    ),
    "u truncated at height p": (
        "v1-ku",
        lambda p: (trunc("u", p, (0, 2)),),
        "no collapse on page 8",
        "V(1)_* ku = P_5(u), truncated polynomial on the mod (p, v1) Bott class",
    ),
}


@pytest.mark.parametrize("mutation", sorted(REGISTRY_MUTATIONS))
def test_a_mutated_registry_fails_with_exit_1(mutation, monkeypatch, capsys):
    fid, data, message, content = REGISTRY_MUTATIONS[mutation]
    original = thhku.input_facts

    def mutated(p):
        facts = original(p)
        facts[fid] = dataclasses.replace(facts[fid], data=data(p))
        return facts

    monkeypatch.setattr(thhku, "input_facts", mutated)
    assert thhku.input_facts(5)[fid].content == content
    with pytest.raises((PipelineError, specseq.PageError), match=message):
        reproduce_thh_ku(5, 103)
    argv = ["reproduce", "thh-ku", "--prime", "5", "--max-degree", "103"]
    assert cli.run_command(argv) == 1
    assert f"certificate failure: {message}" in capsys.readouterr().err
