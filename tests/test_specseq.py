import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradss import algebra as alg
from gradss.algebra import (
    Presentation,
    RelationSpec,
    element,
    ext,
    monomial_element,
    poly,
    trunc,
)
from gradss import dga, filtered, linfp, specseq
from gradss.dga import coords, element_from_coords, extend_derivation, homology
from gradss.filtered import (
    FilteredComplex,
    compare_with_total_homology,
    exact_couple_run,
    random_filtered_complex,
    realize_filtered_dga,
)
from gradss.linfp import Subquotient, SubquotientError
from gradss.specseq import (
    DifferentialSpec,
    Page,
    PageError,
    assemble_abutment,
    certify_collapse,
    certify_zero_differentials,
    forced_run,
    infer_forced_differentials,
    init_page,
    turn_page,
)

from gradss.thhku import omega_candidate, omega_reps

from helpers import (
    absolute_e2,
    brunku2_spec,
    dga_instance,
    dga_shapes,
    filtered_dga,
    intro_dga,
    random_dga_instance,
    random_derivations,
    random_images,
    relative_e2,
)
import oracles
from oracles import (
    check_leibniz,
    naive_exact_couple_run,
    reference_certify_collapse,
    reference_turn_page,
    reduce_on_page,
)


def run_brunku2(p=5, N=60):
    pres = absolute_e2(p, N)
    page = init_page(pres)
    spec = brunku2_spec(pres, p)
    while page.r < 2 * p - 3:
        page = turn_page(page, [])
    turned = turn_page(page, [spec])
    return pres, page, spec, turned


# ---------------------------------------------------------------- init_page

def test_init_page_brunku1_lambda_position():
    pres = relative_e2(5, 60)
    page = init_page(pres)
    assert [alg.element_str(pres, r) for r in page.reps((9, 0))] == ["l1"]


def test_init_page_brunku2_u_position():
    pres = absolute_e2(5, 60)
    page = init_page(pres)
    assert [alg.element_str(pres, r) for r in page.reps((0, 2))] == ["u"]


def test_init_page_empty_presentation():
    pres = Presentation(5, (), 10)
    page = init_page(pres)
    assert page.dims_by_bidegree() == {(0, 0): 1}


# ---------------------------------------------------------------- turn_page

def test_turn_page_kills_source_and_target():
    pres, before, spec, after = run_brunku2()
    assert before.dim((3, 6)) == 1  # u^3 su
    assert before.dim((10, 0)) == 1  # m1
    assert after.dim((3, 6)) == 0
    assert after.dim((10, 0)) == 0


def test_turn_page_kills_leibniz_image():
    # d(m1^2) = 2 u^3 su m1 wipes out bidegree (13, 6)
    pres, before, spec, after = run_brunku2()
    assert before.dim((13, 6)) == 1
    assert after.dim((13, 6)) == 0
    assert after.dim((20, 0)) == 0  # m1^2 is not a cycle either


def test_turn_page_zero_specs_identical():
    pres = absolute_e2(5, 60)
    page = init_page(pres)
    nxt = turn_page(page, [])
    assert nxt.r == 3
    assert nxt.dims_by_bidegree() == page.dims_by_bidegree()
    assert nxt.cert_bound == page.cert_bound


def test_turn_page_rejects_wrong_page_spec():
    pres = absolute_e2(5, 60)
    page = init_page(pres)
    with pytest.raises(PageError):
        turn_page(page, [brunku2_spec(pres, 5)])  # page 7 spec on page 2


def test_turn_page_rejects_non_generator_source():
    pres = absolute_e2(5, 60)
    page = init_page(pres)
    bad = DifferentialSpec(
        2, monomial_element(pres, {"u": 2}), monomial_element(pres, {"u": 1})
    )
    with pytest.raises(PageError):
        turn_page(page, [bad])


def test_pages_and_homology_build_no_element_until_a_rep_is_read(monkeypatch):
    # brunku2 at p = 5: E2, its turns up to d_7(m1) = u^3 su, and the DGA
    # homology of the same differential store subquotients only
    built = []

    def counted(fn):
        def wrapped(*args):
            built.append(fn.__name__)
            return fn(*args)
        return wrapped

    for module in (dga, specseq):
        monkeypatch.setattr(module, "element_from_coords", counted(module.element_from_coords))
        monkeypatch.setattr(module, "Element", counted(module.Element))
    pres, _, spec, after = run_brunku2(5, 60)
    H = homology(pres, extend_derivation(pres, {"m1": spec.image}, spec.page), 60)
    assert after.dims_by_bidegree() == H.dims_by_bidegree() and not built
    for classes in (after, H):
        assert [alg.element_str(pres, x) for x in classes.reps((0, 2))] == ["u"]
    assert built == ["Element", "Element"]


def test_turned_page_matches_direct_homology():
    p = 5
    pres, d = intro_dga(p, 60)
    H = homology(pres, d, 60)
    _, _, _, after = run_brunku2(p, 60)
    for bd in after.subquotients:
        if sum(bd) <= after.cert_bound:
            assert after.dim(bd) == H.dim(bd), bd


# ---------------------------------------------------------------- collapse

def test_certify_collapse_brunku1_full():
    pres = relative_e2(5, 40)
    page = init_page(pres)
    cert = certify_collapse(page)
    assert cert.full
    reasons = dict(cert.certified[(9, 0)])
    assert reasons[0] == "target-vanishes"  # total degree 8 is empty
    reasons_su = dict(cert.certified[(0, 3)])
    assert reasons_su[0] == "column-bound"  # lies in column zero


def test_certify_collapse_refusal():
    pres = Presentation(5, (ext("x", (5, 0)), poly("y", (0, 4))), 20)
    page = init_page(pres)
    cert = certify_collapse(page)
    assert not cert.full
    assert any(r[:2] == (5, 0) and r[3] == 5 and r[4] == (0, 4) for r in cert.refusals)


def test_certify_collapse_after_turn():
    p = 5
    _, _, _, after = run_brunku2(p, 60)
    cert = certify_collapse(after)
    assert after.r == 2 * p - 2
    assert cert.full


def turned(turn, page, specs):
    """The cells of the turned page as element strings, or the refusal."""
    try:
        nxt = turn(page, specs)
    except PageError as err:
        return str(err)
    pres = page.pres
    return nxt.r, nxt.cert_bound, [
        (bd, [alg.element_str(pres, x) for x in nxt.reps(bd)],
         [alg.element_str(pres, element_from_coords(pres, bd, v)) for v in sub.boundaries])
        for bd, sub in sorted(nxt.subquotients.items())
    ]


@settings(max_examples=60, deadline=None)
@given(random_derivations(), st.integers(1, 2), st.data())
def test_turn_page_matches_element_level_reference(d, later, data):
    # d's turn, then a random later one on the page it leaves, with every
    # surviving generator's image as a spec: the same page or the same refusal
    pres = d.base
    page = init_page(pres)
    while page.r < d.page:
        page = turn_page(page, [])
    images = d.images if page.r == d.page else data.draw(random_images(pres, page.r))
    for _ in range(2):
        specs = [
            DifferentialSpec(page.r, monomial_element(pres, {name: 1}), img)
            for name, img in images.items()
            if page.is_surviving(monomial_element(pres, {name: 1}))
        ]
        want = turned(reference_turn_page, page, specs)
        assert turned(turn_page, page, specs) == want
        if isinstance(want, str):
            break
        page = turn_page(page, specs)
        for _ in range(later - 1):
            page = turn_page(page, [])
        images = data.draw(random_images(pres, page.r))


def test_second_live_turn_keeps_the_old_boundaries_as_cycles():
    # d_3(a) = x kills x and x^2; on page 4, d_4(b) = x^2 lands on a boundary,
    # so it is zero and page 5 equals page 4, but the cells of x^2 and of b
    # are rebuilt with their old boundaries
    pres = Presentation(
        5, (poly("x", (0, 2)), ext("y", (0, 1)), ext("a", (3, 0)), ext("b", (4, 1))), 8
    )
    page = init_page(pres)
    while page.r < 3:
        page = turn_page(page, [])
    page = turn_page(page, [
        DifferentialSpec(3, monomial_element(pres, {"a": 1}), monomial_element(pres, {"x": 1}))
    ])
    spec = DifferentialSpec(
        4, monomial_element(pres, {"b": 1}), monomial_element(pres, {"x": 2})
    )
    assert page.subquotients[0, 4].boundaries and not page.reps((0, 4))
    nxt = turn_page(page, [spec])
    assert nxt.dims_by_bidegree() == page.dims_by_bidegree()
    assert turned(turn_page, page, [spec]) == turned(reference_turn_page, page, [spec])


def collapse_lists(cert):
    return cert.from_page, list(cert.certified.items()), cert.uncertified, cert.refusals


@settings(max_examples=60, deadline=None)
@given(random_derivations(), st.integers(0, 2))
def test_certify_collapse_matches_per_class_scan(d, extra_turns):
    # E2, zero turns up to d's page, d's own turn when it is sound, then more
    pres = d.base
    pages = [init_page(pres)]
    while pages[-1].r < d.page:
        pages.append(turn_page(pages[-1], []))
    if pages[-1].r == d.page and d.images:
        specs = [
            DifferentialSpec(d.page, monomial_element(pres, {name: 1}), img)
            for name, img in d.images.items()
        ]
        try:
            pages.append(turn_page(pages[-1], specs))
        except PageError:
            pass
    for _ in range(extra_turns):
        pages.append(turn_page(pages[-1], []))
    for page in pages:
        got = collapse_lists(certify_collapse(page))
        assert got == collapse_lists(reference_certify_collapse(page))


def test_certify_zero_differentials_uses_permanent_fact():
    # on page 3, d(su) could only hit u; the permanence of u excludes it
    pres = absolute_e2(5, 60)
    page = turn_page(init_page(pres), [])
    u = monomial_element(pres, {"u": 1})
    cert = certify_zero_differentials(page, permanent=[u])
    assert cert.ok
    assert cert.reasons["su"] == "target-permanent"
    without = certify_zero_differentials(page, permanent=[])
    assert not without.ok
    assert ("su", (0, 2)) in without.obstructions


# ---------------------------------------------------------------- inference

def test_infer_forced_differential_unique_candidate():
    pres = absolute_e2(5, 60)
    page = init_page(pres)
    u = monomial_element(pres, {"u": 1})
    must_die = monomial_element(pres, {"u": 3, "su": 1})
    cands = infer_forced_differentials(page, must_die, permanent=[u])
    assert len(cands) == 1
    r, source = cands[0]
    assert r == 7
    assert alg.element_str(pres, source) == "m1"


def test_infer_on_permanent_class_is_empty():
    pres = absolute_e2(5, 60)
    page = init_page(pres)
    u = monomial_element(pres, {"u": 1})
    assert infer_forced_differentials(page, u, permanent=[u]) == []


def test_infer_unit_class_has_no_source():
    pres = absolute_e2(5, 60)
    page = init_page(pres)
    one = element(pres, {pres.unit_monomial: 1})
    assert infer_forced_differentials(page, one) == []


def test_forced_run_with_the_differential_on_its_starting_page():
    # P(x) (x) E(y), y must die: d_2 x = y is forced on page 2 itself
    pres = Presentation(5, (poly("x", (2, 0)), ext("y", (0, 1))), 24)
    y = monomial_element(pres, {"y": 1})
    einf, certs = forced_run(init_page(pres), y, permanent=[])
    (forced, _), (zero, _), (collapse, _) = certs
    assert forced["candidates"] == [(2, "x")] and forced["ok"]
    assert zero == {"kind": "zero-differentials", "pages": [], "ok": True}
    assert collapse["kind"] == "collapse" and collapse["ok"]
    assert einf.r == 3 and not einf.is_surviving(y)


def test_forced_run_without_the_permanent_class_stops_at_page_3():
    # without u permanent, d_3(su) could hit u: the candidate stays d_7(m1),
    # but the zero-differentials certificate fails and ends the list
    pres = absolute_e2(5, 60)
    must_die = monomial_element(pres, {"u": 3, "su": 1})
    einf, certs = forced_run(init_page(pres), must_die, permanent=[])
    assert einf is None
    (forced, _), (zero, message) = certs
    assert forced["candidates"] == [(7, "m1")] and forced["ok"]
    assert [(z["page"], z["ok"]) for z in zero["pages"]] == [(2, True), (3, False)]
    assert not zero["ok"] and message == "page 3 differential not forced to vanish"


# ---------------------------------------------------------------- abutment

def test_abutment_free_commutative_shortcut():
    pres = relative_e2(5, 40)
    page = init_page(pres)
    candidate = Presentation(
        5, (ext("su", (0, 3)), ext("l1", (9, 0)), poly("m1", (10, 0))), 40
    )
    lifts = {g.name: monomial_element(pres, {g.name: 1}) for g in pres.generators}
    report = assemble_abutment(page, candidate, lifts, [])
    assert report.free_commutative
    assert report.ok


def test_abutment_weight_obstruction_for_mixed_relation():
    # a1 b1 = u a2: lower-filtration degree-25 classes all have weight 3
    p = 5
    pres, _, _, einf = run_brunku2(p, 60)

    candidate = omega_candidate(p, 60)
    lifts = omega_reps(pres, p)
    rel = RelationSpec(
        "rel5[1,1]",
        (("a1", 1), ("b1", 1)),
        ((1, (("u", 1), ("a2", 1))),),
    )
    report = assemble_abutment(einf, candidate, lifts, [rel])
    [(label, kind, details)] = report.relations
    assert (label, kind) == ("rel5[1,1]", "weight-obstruction")
    assert "weight 3" in details and "weight 2" in details


def test_abutment_strict_lift_for_truncation_relation():
    p = 5
    pres, _, _, einf = run_brunku2(p, 60)

    candidate = omega_candidate(p, 60)
    lifts = omega_reps(pres, p)
    rel = RelationSpec("rel1", (("u", p - 1),), ())
    report = assemble_abutment(einf, candidate, lifts, [rel])
    assert report.relations == [("rel1", "strict-lift", "no lower-filtration classes")]
    assert report.ok


# ---------------------------------------------------------------- leibniz

def test_leibniz_on_nontrivial_page():
    p = 5
    pres, before, spec, after = run_brunku2(p, 40)
    assert check_leibniz(before, [spec]) == []
    assert check_leibniz(after, []) == []


def test_leibniz_on_random_instances():
    rng = random.Random(20250808)
    for _ in range(10):
        pres, specs = random_dga_instance(rng)
        page = init_page(pres)
        r0 = specs[0].page
        while page.r < r0:
            assert check_leibniz(page, []) == []
            page = turn_page(page, [])
        assert check_leibniz(page, specs) == []
        page = turn_page(page, specs)
        assert check_leibniz(page, []) == []


# ---------------------------------------------------------------- oracle

def test_exact_couple_trivial_filtration():
    # F_0 = everything: E^1 = E-infinity = total homology, column 0
    p = 5
    dims = {0: 2, 1: 2}
    boundary = {1: np.array([[1, 0], [0, 0]])}
    levels = {0: [0, 0], 1: [0, 0]}
    fc = FilteredComplex(p, dims, boundary, levels)
    run = exact_couple_run(fc)
    assert run.stable_page == 1
    assert run.einf == {(0, 0): 1, (0, 1): 1}
    h = fc.total_homology()
    assert h == {0: 1, 1: 1}


def test_exact_couple_two_step_identity_dies():
    fc = FilteredComplex(
        5, {0: 1, 1: 1}, {1: np.array([[1]])}, {0: [0], 1: [1]}
    )
    run = exact_couple_run(fc)
    assert run.page_dims(1) == {(0, 0): 1, (1, 0): 1}
    assert run.einf == {}


def test_exact_couple_random_three_step_convergence():
    rng = random.Random(11)
    for _ in range(25):
        fc = random_filtered_complex(rng, max_steps=3)
        run = exact_couple_run(fc)
        comparison = compare_with_total_homology(fc, run)
        assert all(ok for (_, _, ok) in comparison.values()), comparison


def test_compare_detects_perturbation():
    fc = FilteredComplex(
        5, {0: 1, 1: 1}, {1: np.array([[0]])}, {0: [0], 1: [1]}
    )
    run = exact_couple_run(fc)
    assert all(ok for (_, _, ok) in compare_with_total_homology(fc, run).values())
    run.einf[(1, 0)] = 7  # negative control
    comparison = compare_with_total_homology(fc, run)
    assert not comparison[1][2]


def test_compare_zero_complex_vacuous():
    fc = FilteredComplex(5, {}, {}, {})
    run = exact_couple_run(fc)
    assert compare_with_total_homology(fc, run) == {}


def test_filtered_complex_rejects_non_complex():
    with pytest.raises(ValueError):
        FilteredComplex(
            5,
            {0: 1, 1: 1, 2: 1},
            {1: np.array([[1]]), 2: np.array([[1]])},
            {0: [0], 1: [0], 2: [0]},
        )


def test_filtered_complex_rejects_filtration_violation():
    with pytest.raises(ValueError):
        FilteredComplex(
            5, {0: 1, 1: 1}, {1: np.array([[1]])}, {0: [1], 1: [0]}
        )


# one refusal per FilteredComplex check: (dims, boundary, levels, message)
FILTERED_COMPLEX_REFUSALS = {
    "level count": ({0: 2}, {}, {0: [0]}, "degree 0: 1 levels for dimension 2"),
    "negative level": ({0: 1}, {}, {0: [-1]}, "degree 0: negative filtration level"),
    "unsorted levels": ({0: 2}, {}, {0: [1, 0]}, "degree 0: basis not filtration-adapted"),
    "boundary shape": (
        {0: 2, 1: 2}, {1: np.zeros((1, 2), dtype=np.int64)}, {0: [0, 0], 1: [0, 0]},
        "degree 1: boundary shape (1, 2) is wrong",
    ),
    # (0, 1) and (1, 0) both raise the level; column-major order names (1, 0)
    "raised filtration": (
        {0: 2, 1: 2}, {1: np.array([[0, 1], [1, 0]])}, {0: [1, 1], 1: [0, 0]},
        "degree 1: boundary raises filtration at (1, 0)",
    ),
    "d squared": (
        {0: 1, 1: 1, 2: 1}, {1: np.array([[1]]), 2: np.array([[1]])},
        {0: [0], 1: [0], 2: [0]}, "not a complex: d^2 != 0 out of degree 2",
    ),
}


@pytest.mark.parametrize("case", sorted(FILTERED_COMPLEX_REFUSALS))
def test_filtered_complex_refusal_messages(case):
    dims, boundary, levels, message = FILTERED_COMPLEX_REFUSALS[case]
    with pytest.raises(ValueError) as info:
        FilteredComplex(5, dims, boundary, levels)
    assert str(info.value) == message


# ------------------------------------------------- engine vs oracle

@settings(max_examples=40, deadline=None)
@given(dga_shapes())
def test_engine_pages_match_exact_couple_on_filtered_dga(shape):
    pres, specs = dga_instance(*shape)
    r0 = specs[0].page
    fc = filtered_dga(pres, specs)
    run = exact_couple_run(fc, r_max=r0 + 2)
    page = init_page(pres)
    while True:
        bound = page.cert_bound
        engine_dims = {
            bd: v for bd, v in page.dims_by_bidegree().items() if sum(bd) <= bound
        }
        oracle_dims = {
            bd: v for bd, v in run.page_dims(page.r).items() if v and sum(bd) <= bound
        }
        assert engine_dims == oracle_dims, (page.r, engine_dims, oracle_dims)
        if page.r > r0:
            break
        page = turn_page(page, specs if page.r == r0 else [])
    # every differential has length r0, so E^{r0+1} is already E-infinity
    einf = {bd: v for bd, v in run.einf.items() if sum(bd) <= page.cert_bound}
    assert engine_dims == einf
    comparison = compare_with_total_homology(fc, run)
    assert all(ok for (_, _, ok) in comparison.values()), comparison


def _bounded(dims, bound):
    return {bd: v for bd, v in dims.items() if v and sum(bd) <= bound}


@pytest.mark.parametrize("p, N", [(5, 103), (7, 176)])
def test_flagship_pages_match_exact_couple(p, N):
    # step 3: the absolute run with d(m1) = u^{p-2} su on page 2p - 3
    pres = absolute_e2(p, N)
    must_die = monomial_element(pres, {"u": p - 2, "su": 1})
    r0 = 2 * p - 3
    fc = realize_filtered_dga(pres, extend_derivation(pres, {"m1": must_die}, r0), N)
    run = exact_couple_run(fc)
    spec = DifferentialSpec(r0, monomial_element(pres, {"m1": 1}), must_die)
    page = init_page(pres)
    while True:
        engine = _bounded(page.dims_by_bidegree(), page.cert_bound)
        assert engine == _bounded(run.page_dims(page.r), page.cert_bound), page.r
        if page.r == 2 * p - 2:
            break
        page = turn_page(page, [spec] if page.r == r0 else [])
    assert engine == _bounded(run.einf, page.cert_bound)
    comparison = compare_with_total_homology(fc, run)
    assert all(ok for (_, _, ok) in comparison.values()), comparison

    # step 2: the relative run, whose E2 collapses (zero derivation)
    pres = relative_e2(p, N)
    fc = realize_filtered_dga(pres, extend_derivation(pres, {}, 2), N)
    run = exact_couple_run(fc, r_max=2)
    page = init_page(pres)
    assert _bounded(page.dims_by_bidegree(), page.cert_bound) == _bounded(
        run.page_dims(2), page.cert_bound
    )


def flagship_einfs(p, N):
    """Step 3's DGA, realized as a filtered complex and run through the exact
    couple to its certified stop, and the engine's forced run: their
    E-infinity dimensions through the engine's survival bound."""
    pres = absolute_e2(p, N)
    must_die = monomial_element(pres, {"u": p - 2, "su": 1})
    einf, _ = forced_run(init_page(pres), must_die, [monomial_element(pres, {"u": 1})])
    fc = realize_filtered_dga(pres, extend_derivation(pres, {"m1": must_die}, 2 * p - 3), N)
    run = exact_couple_run(fc)
    bound = einf.survival_bound
    return _bounded(run.einf, bound), _bounded(einf.dims_by_bidegree(), bound)


@pytest.mark.parametrize("p, N", [(5, 103), (7, 176)])
def test_flagship_exact_couple_einf_matches_forced_run(p, N):
    oracle, engine = flagship_einfs(p, N)
    assert oracle == engine


@pytest.mark.parametrize("drop", [0, 5, -1])
def test_exact_couple_stays_off_the_support(drop, monkeypatch):
    # the engine turns pages on d's support, the oracle reads every block of
    # d: with one support bidegree dropped the two must disagree, so the
    # oracle cannot be sharing the engine's list
    support = dga.Derivation.support.func

    def short(d):
        bds = support(d)
        del bds[drop]
        return bds

    monkeypatch.setattr(dga.Derivation, "support", property(short))
    oracle, engine = flagship_einfs(5, 103)
    assert oracle != engine


# ------------------------------------- memoized oracle vs the unmemoized loop

def assert_same_run(got, want):
    """Pages, E-infinity and every d_r matrix equal byte for byte."""
    assert got.stable_page == want.stable_page
    assert got.pages == want.pages
    assert got.einf == want.einf
    assert [r for r, _ in got.differentials] == [r for r, _ in want.differentials]
    for (r, mats), (_, ref) in zip(got.differentials, want.differentials):
        assert mats.keys() == ref.keys(), r
        for cell, a in mats.items():
            b = ref[cell]
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5, 7]))
def test_exact_couple_matches_unmemoized_loop(seed, p):
    fc = random_filtered_complex(random.Random(seed), p=p)
    assert_same_run(exact_couple_run(fc), naive_exact_couple_run(fc))


@settings(max_examples=5, deadline=None)
@given(dga_shapes(max_k=3))
def test_exact_couple_matches_unmemoized_loop_on_filtered_dga(shape):
    pres, specs = dga_instance(*shape)
    fc = filtered_dga(pres, specs)
    r_max = specs[0].page + 2
    assert_same_run(exact_couple_run(fc, r_max), naive_exact_couple_run(fc, r_max))


def _drop_last_vector(run, monkeypatch, key):
    """Damage the cycle space with key (d, fn, cut) as `run` builds it:
    exact_couple_run loses the last vector of its kernel of (d, cut), the
    reference loop the last vector of that one space."""
    d, fn, cut = key
    if run is exact_couple_run:
        original = filtered._kernel

        def damaged(fc, *at):
            z = original(fc, *at)
            return z[:-1] if at == (d, cut) else z

        monkeypatch.setattr(filtered, "_kernel", damaged)
    else:
        original = oracles.cycle_space

        def damaged(fc, at):
            z = original(fc, at)
            return z[:-1] if at == key else z

        monkeypatch.setattr(oracles, "cycle_space", damaged)


@pytest.mark.parametrize("run", [exact_couple_run, naive_exact_couple_run])
def test_exact_couple_keeps_subquotient_check(run, monkeypatch):
    # negative control: F_0 C_0 = <a, a'>, C_1 = <b> at level 0, db = a'.
    # Dropping a' from Z^1(0, 0) leaves the boundary a' outside the cycles.
    fc = FilteredComplex(
        5, {0: 2, 1: 1}, {1: np.array([[0], [1]])}, {0: [0, 0], 1: [0]}
    )
    assert run(fc).einf == {(0, 0): 1}
    _drop_last_vector(run, monkeypatch, (0, 2, 0))
    with pytest.raises(SubquotientError):
        run(fc)


@pytest.mark.parametrize("run", [exact_couple_run, naive_exact_couple_run])
def test_exact_couple_certifies_a_space_used_only_at_empty_cells(run, monkeypatch):
    # negative control: C_0 = <a0, a1> at levels 0, 1; C_1 = <b1, b2> at
    # level 0 with db = 0; C_2 = <c> at level 0 with dc = b2.  Z^1(1, 1) has
    # key (1, 2, 1) and n = 1 is not a level of degree 1, so E^1(1, 0) = 0:
    # without its certificate the dropped b2 is seen only at that empty cell.
    fc = FilteredComplex(
        5,
        {0: 2, 1: 2, 2: 1},
        {1: np.zeros((2, 2), dtype=np.int64), 2: np.array([[0], [1]])},
        {0: [0, 1], 1: [0, 0], 2: [0]},
    )
    assert run(fc).einf == {(0, 0): 1, (1, -1): 1, (0, 1): 1}
    _drop_last_vector(run, monkeypatch, (1, 2, 1))
    with pytest.raises(SubquotientError):
        run(fc)


def _unit(dim, i):
    v = np.zeros(dim, dtype=np.int64)
    v[i] = 1
    return v


def _moved_right(z):
    """z with the last nonzero entry of its last vector that has room moved
    one column right, out of the F_n whose cycle space that vector was taken
    for; None when every vector ends at the last column."""
    for i in reversed(range(len(z))):
        last = int(np.nonzero(z[i])[0][-1])
        if last + 1 < len(z[i]):
            w = z[i].copy()
            w[last], w[last + 1] = 0, z[i][last]
            return z[:i] + [w] + z[i + 1:]
    return None


# damages to the kernel of bmat(d)[cut:, :] at (d, cut); each keeps the
# vector count or drops one vector; None: not applicable
SPACE_DAMAGES = {
    "drop": lambda fc, at, z: z[:-1],
    "zero": lambda fc, at, z: z[:-1] + [0 * z[-1]],
    "copy": lambda fc, at, z: z[:-1] + [z[0]] if len(z) > 1 else None,
    "outside F_n": lambda fc, at, z: _moved_right(z),
    "not a cycle": lambda fc, at, z: next(
        (
            z[:-1] + [_unit(len(z[-1]), j)]
            for j in range(len(z[-1]))
            if np.any(fc.bmat(at[0])[at[1]:, j])
        ),
        None,
    ),
}


@pytest.mark.parametrize("damage", sorted(SPACE_DAMAGES))
def test_exact_couple_refuses_every_damaged_cycle_space(damage, monkeypatch):
    # seeded sweep: one damaged nonempty kernel at a time must raise
    original = filtered._kernel
    hit = 0
    for seed in range(12):
        fc = random_filtered_complex(random.Random(seed), p=(2, 3, 5, 7)[seed % 4])
        built = {}

        def recorded(fc, *at):
            z = original(fc, *at)
            if z:
                built[at] = z
            return z

        monkeypatch.setattr(filtered, "_kernel", recorded)
        exact_couple_run(fc)
        for at, z in built.items():
            bad = SPACE_DAMAGES[damage](fc, at, z)
            if bad is None:
                continue
            hit += 1

            def damaged(fc, *cell, at=at, bad=bad):
                return bad if cell == at else original(fc, *cell)

            monkeypatch.setattr(filtered, "_kernel", damaged)
            with pytest.raises(SubquotientError):
                exact_couple_run(fc)
    assert hit >= 20


def test_exact_couple_builds_each_cycle_space_once(monkeypatch):
    # one kernel per (d, cut): every cycle space is a prefix of one of them
    pres, specs = dga_instance(7, 4, 2, 4, True, 30)
    fc = filtered_dga(pres, specs)
    original = filtered._kernel
    built = []

    def counted(fc, *at):
        built.append(at)
        return original(fc, *at)

    monkeypatch.setattr(filtered, "_kernel", counted)
    exact_couple_run(fc, r_max=specs[0].page + 2)
    assert built and len(built) == len(set(built))


def test_turn_page_rejects_d_squared_violation():
    pres = Presentation(
        5,
        (poly("a", (9, 1)), poly("b", (6, 0)), ext("c", (0, 3)), ext("e", (3, 2))),
        24,
    )
    page = turn_page(init_page(pres), [])
    specs = [
        DifferentialSpec(
            3,
            monomial_element(pres, {"a": 1}),
            monomial_element(pres, {"b": 1, "c": 1}),
        ),
        DifferentialSpec(
            3, monomial_element(pres, {"b": 1}), monomial_element(pres, {"e": 1})
        ),
    ]
    with pytest.raises(PageError, match="d\\^2"):
        turn_page(page, specs)


def test_turn_page_rejects_a_boundary_whose_image_survives():
    # d_2(x) = y sends the boundary x z to y z, a class no boundary kills
    pres = Presentation(5, (poly("x", (2, 0)), ext("y", (0, 1)), ext("z", (1, 0))), 6)
    page = init_page(pres)
    xz = coords(pres, (3, 0), monomial_element(pres, {"x": 1, "z": 1}))
    page.subquotients[(3, 0)] = Subquotient(5, len(xz), [xz], [xz])
    spec = DifferentialSpec(
        2, monomial_element(pres, {"x": 1}), monomial_element(pres, {"y": 1})
    )
    refusal = r"^differential does not preserve boundaries at \(3, 0\)$"
    with pytest.raises(PageError, match=refusal):
        turn_page(page, [spec])


def test_turn_page_rejects_a_boundary_whose_image_is_no_class():
    # as above, with nothing stored at (1, 1): the image y z of the boundary
    # x z is not even a class there, so it is no boundary either
    pres = Presentation(5, (poly("x", (2, 0)), ext("y", (0, 1)), ext("z", (1, 0))), 6)
    page = init_page(pres)
    xz = coords(pres, (3, 0), monomial_element(pres, {"x": 1, "z": 1}))
    page.subquotients[(3, 0)] = Subquotient(5, len(xz), [xz], [xz])
    page.subquotients[(1, 1)] = Subquotient(5, 1, [], [])
    spec = DifferentialSpec(
        2, monomial_element(pres, {"x": 1}), monomial_element(pres, {"y": 1})
    )
    refusal = r"^differential does not preserve boundaries at \(3, 0\)$"
    with pytest.raises(PageError, match=refusal):
        turn_page(page, [spec])


def test_page_takes_coordinates_in_its_stored_subquotients(monkeypatch):
    # bidegree (1, 0) holds b, a in lex order: E2 takes coordinates in them without
    # row reduction; a page built from other subquotients takes them in those
    pres = Presentation(5, (ext("a", (1, 0)), ext("b", (1, 0))), 2)
    a, b = (monomial_element(pres, {g: 1}) for g in "ab")

    def refused(m, p):
        raise AssertionError("row reduction on an E2 cell")

    with monkeypatch.context() as patch:
        patch.setattr(linfp, "_rref_inplace", refused)
        assert init_page(pres).class_coords(a).tolist() == [0, 1]
    va, vb = (coords(pres, (1, 0), x) for x in (a, b))
    page = Page(pres, 2, 2, {(1, 0): Subquotient(5, 2, [va + vb, vb], [])})
    assert page.class_coords(a).tolist() == [1, 4]
    page = Page(pres, 2, 2, {(1, 0): Subquotient(5, 2, [vb, va], [vb])})
    assert not reduce_on_page(page, b)
    assert page.class_coords(a).tolist() == [1]
    assert page.vector_coords((1, 0), va).tolist() == [1]
    assert page.vector_coords((2, 0), va) is None


def test_turn_page_rejects_an_image_that_is_no_class():
    # x dies on page 2 (d_2 x = y), so d_3(t) = x lands outside page 3
    pres = Presentation(5, (poly("x", (2, 2)), ext("y", (0, 3)), ext("t", (5, 0))), 12)
    d2 = DifferentialSpec(
        2, monomial_element(pres, {"x": 1}), monomial_element(pres, {"y": 1})
    )
    page = turn_page(init_page(pres), [d2])
    assert page.dim((2, 2)) == 0
    d3 = DifferentialSpec(
        3, monomial_element(pres, {"t": 1}), monomial_element(pres, {"x": 1})
    )
    refusal = r"^differential image of a class at \(5, 0\) leaves the page$"
    with pytest.raises(PageError, match=refusal):
        turn_page(page, [d3])


def test_abutment_without_weight_fact_leaves_relation_unresolved():
    # dropping the weight grading must surface rel5 as unresolved, never
    # silently accepted: the lower-filtration class now has an equal weight
    p = 5
    pres = Presentation(
        p,
        (
            trunc("u", p - 1, (0, 2)),
            ext("su", (3, 0)),
            ext("l1", (2 * p - 1, 0)),
            poly("m1", (2 * p, 0)),
        ),
        60,
    )
    page = init_page(pres)
    spec = DifferentialSpec(
        2 * p - 3,
        monomial_element(pres, {"m1": 1}),
        monomial_element(pres, {"u": p - 2, "su": 1}),
    )
    while page.r < 2 * p - 3:
        page = turn_page(page, [])
    einf = turn_page(page, [spec])

    # zero-weight candidate: same generators, no Galois grading
    gens = [trunc("u", p - 1, (0, 2)), ext("l1", (2 * p - 1, 0)), poly("mu2", (50, 0))]
    for i in range(p):
        gens.append(ext(f"a{i}", (10 * i + 3, 0)))
    for i in range(1, p):
        gens.append(poly(f"b{i}", (10 * i, 2)))
    candidate = Presentation(p, tuple(gens), 60)
    rel = RelationSpec(
        "rel5[1,1]", (("a1", 1), ("b1", 1)), ((1, (("u", 1), ("a2", 1))),)
    )
    report = assemble_abutment(einf, candidate, omega_reps(pres, p), [rel])
    assert not report.ok
    assert report.unresolved and report.unresolved[0][0] == "rel5[1,1]"


def test_abutment_rejects_inconsistent_weight_data():
    # claiming weights the lifts do not carry must be an error, not evidence
    p = 5
    pres = Presentation(
        p,
        (
            trunc("u", p - 1, (0, 2)),
            ext("su", (3, 0)),
            ext("l1", (2 * p - 1, 0)),
            poly("m1", (2 * p, 0)),
        ),
        60,
    )
    page = init_page(pres)
    spec = DifferentialSpec(
        2 * p - 3,
        monomial_element(pres, {"m1": 1}),
        monomial_element(pres, {"u": p - 2, "su": 1}),
    )
    while page.r < 2 * p - 3:
        page = turn_page(page, [])
    einf = turn_page(page, [spec])

    weighted = omega_candidate(p, 60)  # declares weight 1 on u, a_i, b_i
    with pytest.raises(PageError, match="weight"):
        assemble_abutment(einf, weighted, omega_reps(pres, p), [])


def test_exact_couple_boundary_sign_convention():
    # the induced differential carries (-1)^{degree}: for the identity
    # complex in degrees 1 -> 0 the page-1 matrix is -1, i.e. 4 mod 5
    import numpy as np
    from gradss.filtered import FilteredComplex, exact_couple_run

    fc = FilteredComplex(5, {0: 1, 1: 1}, {1: np.array([[1]])}, {0: [0], 1: [1]})
    run = exact_couple_run(fc)
    (r1, dmats) = run.differentials[0]
    assert r1 == 1
    assert dmats[(1, 0)].tolist() == [[4]]
