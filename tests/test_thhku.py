import gc
import sys
import types
import weakref
from collections import Counter
from pathlib import Path

import pytest

from gradss import algebra as alg
from gradss import dga, specseq, thhku
from gradss.algebra import monomial_element
from gradss.dga import homology
from gradss.thhku import (
    PipelineError,
    abutment_relations,
    basis_formula_count,
    full_basis_count,
    input_facts,
    omega_candidate,
    omega_relations,
    reproduce_thh_ku,
    step1_tor,
    step2_v0,
    step3_v1,
    weight_table,
)

from helpers import intro_dga


def test_step1_exterior_class_p5():
    pres, report = step1_tor(5)
    (g,) = pres.generators
    assert g.kind == "exterior" and g.total_degree == 3
    assert report.certificates[0]["table"] == {"0,0": 1, "1,2": 1}


def test_step1_is_p_independent():
    pres5, _ = step1_tor(5)
    pres7, _ = step1_tor(7)
    assert [g.total_degree for g in pres5.generators] == [
        g.total_degree for g in pres7.generators
    ]


def test_step1_rejects_composite():
    with pytest.raises(PipelineError):
        step1_tor(4)


def test_step2_result_degrees():
    for p in (5, 7):
        result, report = step2_v0(p, 60)
        assert [g.total_degree for g in result.generators] == [3, 2 * p - 1, 2 * p]
        kinds = [g.kind for g in result.generators]
        assert kinds == ["exterior", "exterior", "polynomial"]
        assert all(c["ok"] for c in report.certificates)


def test_step2_collapse_witness_degree():
    # the page is empty in total degree 2p - 2
    from gradss.thhku import relative_e2

    for p in (5, 7):
        pres = relative_e2(p, 60)
        assert alg.dimension_series(pres, 2 * p - 2)[2 * p - 2] == 0


def test_step3_generator_degrees_p5():
    result, report = step3_v1(5, 70)
    by_name = {g.name: g.total_degree for g in result.generators}
    assert by_name["u"] == 2
    assert by_name["mu2"] == 50
    assert [by_name[f"a{i}"] for i in range(5)] == [3, 13, 23, 33, 43]
    assert [by_name[f"b{i}"] for i in range(1, 5)] == [12, 22, 32, 42]
    assert by_name["l1"] == 9
    assert all(c["ok"] for c in report.certificates)


def test_step3_dimension_at_degree_twelve():
    # exactly b1 and l1 a0
    _, report = step3_v1(5, 70)
    pres, d = intro_dga(5, 70)
    H = homology(pres, d, 70)
    assert H.dim_total(12) == 2
    assert full_basis_count(5, 12) == 2


def test_step3_weight_obstruction_listing():
    _, report = step3_v1(5, 70)
    abutment = [c for c in report.certificates if c["kind"] == "abutment"][0]
    rel8 = [r for r in abutment["relations"] if r["label"] == "rel8[1,2]"]
    assert rel8 and rel8[0]["kind"] == "weight-obstruction"
    # obstruction classes u^2 b_{i+j} and l1 u^2 a_{i+j-1} both carry weight 3
    assert "weight 3" in rel8[0]["details"]


def test_step3_justification_kinds():
    _, report = step3_v1(5, 90)
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


def test_input_facts_cover_pipeline():
    facts = input_facts(5)
    _, r3 = step3_v1(5, 70)
    for fid in r3.consumed_facts:
        assert fid in facts


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
    # step 3 builds its own E2 page; the relative run is not one of its inputs
    calls = []

    def counted(*args):
        calls.append(args)
        return step2_v0(*args)

    monkeypatch.setattr(thhku, "step2_v0", counted)
    assert reproduce_thh_ku(5, 60).ok
    assert calls == [(5, 60)]


def test_step3_expands_each_monomial_once_and_reads_each_cell_once(monkeypatch):
    # d is expanded once per (derivation, monomial); collapse reads no cell twice
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

    def counted_collapse(page, _certify=thhku.certify_collapse):
        collapsing.append(page)
        try:
            return _certify(page)
        finally:
            collapsing.pop()

    monkeypatch.setattr(dga, "d_monomial", counted_expansion)
    monkeypatch.setattr(specseq.Page, "dim", counted_read("dim", specseq.Page.dim))
    monkeypatch.setattr(specseq.Page, "cell", counted_read("cell", specseq.Page.cell))
    monkeypatch.setattr(thhku, "certify_collapse", counted_collapse)
    _, report = step3_v1(5, 103)
    assert report.certificates[-1]["ok"]
    assert expanded and max(expanded.values()) == 1
    assert max(reads.values(), default=1) == 1


def test_reproduce_builds_each_derivation_and_lift_once(monkeypatch):
    # the page turn and the DGA homology share one derivation, and the
    # presentation certificate and the abutment share one lift map; sharing
    # neither, the run expands d 38 times and multiplies 337 times
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(dga, "d_monomial", counted("d_monomial", dga.d_monomial))
    monkeypatch.setattr(alg, "multiply", counted("multiply", alg.multiply))
    assert reproduce_thh_ku(5, 103).ok
    assert calls["d_monomial"] <= 19
    assert calls["multiply"] <= 217


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
    ref = weakref.ref(step3_v1(5, 98)[0])
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
def test_omega_relations_match_golden(p):
    """omega_relations, relation by relation, as written when rel2-rel8 were
    still stated a second time in thhku; regenerate only for an intended
    change of the relations."""
    candidate = omega_candidate(p, 10)
    got = omega_relations(candidate, p)
    want = [
        line
        for line in GOLDEN_OMEGA.read_text().splitlines()
        if line.startswith(f"{p}: ")
    ]
    assert [render_relation(p, candidate, el) for el in got] == want
    # abutment_relations minus rel1 and the p relations rel8[i,i] = a_i^2
    specs = abutment_relations(p)
    kind_bounds = {"rel1"} | {f"rel8[{i},{i}]" for i in range(p)}
    assert kind_bounds <= {rel.label for rel in specs}
    assert len(got) == len(specs) - len(kind_bounds)
    assert got[0] == monomial_element(candidate, {"u": p - 2, "a0": 1})
