"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact and the timing budgets are asserted.
"""

import json
import os
import random
import subprocess
import sys
import time
from importlib.resources import files

from gradss import algebra as alg
from gradss.algebra import Presentation, ext, monomial_element, poly, trunc
from gradss.dga import extend_derivation, homology
from gradss.filtered import (
    compare_with_total_homology,
    exact_couple_run,
    random_filtered_complex,
)
from gradss.homalg import BaseRing, hochschild_homology, koszul_tor
from gradss.specseq import certify_collapse, forced_run, init_page, turn_page
from gradss.thhku import (
    abutment_relations,
    basis_formula_count,
    full_basis_count,
    step1_tor,
    step2_v0,
    step3_v1,
)

from helpers import absolute_e2, brunku2_spec, intro_dga, relative_e2
from oracles import check_leibniz, dense_hochschild

STEP3_BOX = {5: 103, 7: 176}  # covers every relation plus the collapse margin


def _report(name, ok):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_acceptance_tor_reproduction():
    t0 = time.perf_counter()
    table = koszul_tor(BaseRing("zp", 5), "fp", "zp", 40)
    elapsed = time.perf_counter() - t0
    ok = table.nonzero() == [((0, 0), 1), ((1, 2), 1)] and elapsed < 1.0
    _report("tor-reproduction", ok)


def test_acceptance_step2_reproduction():
    ok = True
    for p in (5, 7):
        t0 = time.perf_counter()
        result, report = step2_v0(step1_tor(p)[0], 102)
        elapsed = time.perf_counter() - t0
        collapse = [c for c in report.certificates if c["kind"] == "collapse"][0]
        ok &= collapse["ok"] and not collapse["refusals"]
        ok &= [g.total_degree for g in result.generators] == [3, 2 * p - 1, 2 * p]
        ok &= [g.kind for g in result.generators] == [
            "exterior",
            "exterior",
            "polynomial",
        ]
        # dimension series of the front page vs the free presentation
        e2 = init_page(relative_e2(p, 102))
        series = alg.dimension_series(result, 100)
        ok &= all(e2.dim_total(d) == series[d] for d in range(101))
        ok &= elapsed < 5.0
    _report("step2-reproduction", ok)


def _run_absolute(p, N):
    """The forced run on step 3's E2, checked against the typed turn of
    d_{2p-3}(m1) = u^{p-2} su; its forced-differential certificate and E-infinity."""
    pres = absolute_e2(p, N)
    u = monomial_element(pres, {"u": 1})
    must_die = monomial_element(pres, {"u": p - 2, "su": 1})
    einf, certs = forced_run(init_page(pres), must_die, permanent=[u])
    page = init_page(pres)
    while page.r < 2 * p - 3:
        page = turn_page(page, [])
    typed = turn_page(page, [brunku2_spec(pres, p)])
    assert einf.dims_by_bidegree() == typed.dims_by_bidegree()
    return certs[0][0], einf


def test_acceptance_step3_reproduction():
    ok = True
    for p in (5, 7):
        N = STEP3_BOX[p]
        t0 = time.perf_counter()
        forced, einf = _run_absolute(p, N)
        ok &= forced["ok"] and forced["candidates"] == [(2 * p - 3, "m1")]
        ok &= einf.r == 2 * p - 2
        ok &= certify_collapse(einf).full

        result, report = step3_v1(step2_v0(step1_tor(p)[0], N)[0], N)
        elapsed = time.perf_counter() - t0
        iso = [c for c in report.certificates if c["kind"] == "presentation-iso"][0]
        ok &= iso["ok"] and iso["bound"] >= 100 and iso["skipped_relations"] == 0
        abutment = [c for c in report.certificates if c["kind"] == "abutment"][0]
        ok &= abutment["ok"]
        ok &= abutment["unresolved"] == [] and abutment["beyond_truncation"] == []
        kinds = {r_["label"]: r_["kind"] for r_ in abutment["relations"]}
        labels = [rel.label for rel in abutment_relations(p)]
        ok &= sorted(kinds) == sorted(labels)
        for label, kind in kinds.items():
            family = label.split("[")[0]
            if family in ("rel1", "rel2", "rel3", "rel4", "rel6"):
                ok &= kind == "strict-lift"
            else:
                ok &= kind == "weight-obstruction"
        ok &= elapsed < 60.0
    _report("step3-reproduction", ok)


def test_acceptance_dga_cross_check():
    ok = True
    for p in (5, 7):
        N = STEP3_BOX[p]
        pres, d = intro_dga(p, N)
        H = homology(pres, d, N)
        _, einf = _run_absolute(p, N)
        ok &= all(H.dim_total(deg) == einf.dim_total(deg) for deg in range(101))
    _report("dga-cross-check", ok)


def test_acceptance_basis_formula():
    ok = True
    for p in (5, 7):
        # the four families describe the l1-free homology
        pres = Presentation(
            p,
            (
                trunc("u", p - 1, (0, 2)),
                ext("su", (3, 0)),
                poly("m1", (2 * p, 0)),
            ),
            103,
        )
        d = extend_derivation(
            pres, {"m1": monomial_element(pres, {"u": p - 2, "su": 1})}, 2 * p - 3
        )
        H = homology(pres, d, 103)
        ok &= all(
            H.dim_total(deg) == basis_formula_count(p, deg) for deg in range(101)
        )
        # and the full answer is those families tensored with E(l1)
        full_pres, full_d = intro_dga(p, 103)
        Hf = homology(full_pres, full_d, 103)
        ok &= all(
            Hf.dim_total(deg) == full_basis_count(p, deg) for deg in range(101)
        )
    _report("basis-formula", ok)


def test_acceptance_convergence_oracle():
    t0 = time.perf_counter()
    bad = 0
    for case in range(200):
        rng = random.Random(77000 + case)
        fc = random_filtered_complex(
            rng, p=5, max_steps=5, max_degree=4, max_total_dim=40
        )
        run = exact_couple_run(fc)
        comparison = compare_with_total_homology(fc, run)
        if not all(okc for (_, _, okc) in comparison.values()):
            bad += 1
    elapsed = time.perf_counter() - t0
    _report("convergence-oracle", bad == 0 and elapsed < 30.0)


def test_acceptance_leibniz_suite():
    ok = True
    # both shipped runs, every page from the front to the collapse
    for p in (5, 7):
        pres = absolute_e2(p, 100)
        spec = brunku2_spec(pres, p)
        page = init_page(pres)
        while True:
            specs = [spec] if page.r == 2 * p - 3 else []
            ok &= check_leibniz(page, specs) == []
            if page.r >= 2 * p - 2:
                break
            page = turn_page(page, specs)
    # and 50 seeded random filtered-DGA instances
    from helpers import random_dga_instance

    rng = random.Random(424242)
    for _ in range(50):
        pres, specs = random_dga_instance(rng)
        page = init_page(pres)
        r0 = specs[0].page
        while page.r < r0:
            ok &= check_leibniz(page, []) == []
            page = turn_page(page, [])
        ok &= check_leibniz(page, specs) == []
        page = turn_page(page, specs)
        ok &= check_leibniz(page, []) == []
    _report("leibniz-suite", ok)


def test_acceptance_hochschild_oracle():
    t0 = time.perf_counter()
    pres = Presentation(5, (trunc("u", 4, (0, 2)),), 16)
    dims = hochschild_homology(pres, 2, 12)
    oracle = dense_hochschild(5, 4, 2, s_max=2, t_max=12)
    elapsed = time.perf_counter() - t0
    _report("hochschild-oracle", dims == oracle and elapsed < 30.0)


def test_acceptance_determinism(tmp_path):
    src = str(files("gradss") / "data" / "brunku2_p5.ss")
    # the subprocesses import the gradss this test imported, installed or not
    path = os.path.dirname(os.path.dirname(alg.__file__))
    outputs = []
    env = dict(os.environ, PYTHONPATH=path)
    for tag in "abc":
        chart = tmp_path / f"chart-{tag}.tsv"
        report = tmp_path / f"report-{tag}.json"
        r1 = subprocess.run(
            [sys.executable, "-m", "gradss.cli", "run", src, "--out", str(chart)],
            env=env,
            capture_output=True,
        )
        r2 = subprocess.run(
            [
                sys.executable,
                "-m",
                "gradss.cli",
                "reproduce",
                "thh-ku",
                "--prime",
                "5",
                "--max-degree",
                "60",
                "--report",
                str(report),
            ],
            env=env,
            capture_output=True,
        )
        assert r1.returncode == 0 and r2.returncode == 0, (r1.stderr, r2.stderr)
        outputs.append((chart.read_bytes(), report.read_bytes()))
        json.loads(report.read_text())  # well-formed
    _report(
        "determinism",
        outputs[0] == outputs[1] == outputs[2],
    )
