import dataclasses
import re
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gradss import algebra as alg
from gradss import dga, linfp, thhku
from gradss.dsl import parse
from gradss.specseq import spec_images
from gradss.algebra import (
    Presentation,
    RelationSpec,
    element,
    ext,
    monomial_element,
    poly,
    trunc,
)
from gradss.thhku import abutment_relations, omega_candidate, omega_reps
from helpers import intro_dga, random_derivations, subquotient_inputs
from oracles import (
    add,
    quotient_dims,
    reference_check_d_squared,
    reference_d_monomial,
    reference_homology,
    reference_map_element,
    scale,
)
from gradss.dga import (
    DifferentialError,
    check_d_squared,
    coords,
    d_element,
    d_matrix,
    d_monomial,
    extend_derivation,
    homology,
    verify_presentation_iso,
)


def test_leibniz_square_of_m1():
    pres, d = intro_dga()
    m1sq = monomial_element(pres, {"m1": 2})
    expected = monomial_element(pres, {"u": 3, "su": 1, "m1": 1}, 2)
    assert d_element(d, m1sq) == expected


def test_derivation_vanishing_on_killed_generators():
    pres, d = intro_dga()
    assert not d_element(d, monomial_element(pres, {"u": 2, "su": 1}))


def test_single_leibniz_step_sign():
    # d(l1 m1) = -l1 u^3 su, i.e. +u^3 su l1 in canonical order
    pres, d = intro_dga()
    got = d_element(d, monomial_element(pres, {"l1": 1, "m1": 1}))
    assert got == monomial_element(pres, {"u": 3, "su": 1, "l1": 1}, 1)


def test_wrong_bidegree_image_rejected():
    pres, _ = intro_dga()
    with pytest.raises(DifferentialError):
        extend_derivation(pres, {"m1": monomial_element(pres, {"u": 1})}, 7)


@given(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), st.integers(1, 40))
def test_d_source_inverts_d_target(bd, r):
    target = dga.d_target(bd, r)
    assert dga.d_source(target, r) == bd
    assert sum(target) == sum(bd) - 1


def test_equal_images_share_one_derivation_and_one_map():
    # equal (page, images) on one presentation: one Derivation, so its
    # d-matrices are built once; equal (target, images): one monomial map
    p, N = 5, 60
    pres, d = intro_dga(p, N)
    again = extend_derivation(pres, {"m1": monomial_element(pres, {"u": p - 2, "su": 1})}, d.page)
    assert again is d
    cand = omega_candidate(p, N)
    f = alg.monomial_map(cand, pres, omega_reps(pres, p))
    assert alg.monomial_map(cand, pres, omega_reps(pres, p)) is f
    assert extend_derivation(pres, {}, d.page) is not d
    assert alg.monomial_map(cand, pres, omega_reps(pres, p) | {"u": alg.ZERO}) is not f


def test_equal_but_distinct_presentation_builds_its_own_derivation_and_map():
    p, N = 5, 60
    (pres, d), (twin, d_twin) = intro_dga(p, N), intro_dga(p, N)
    assert twin == pres and twin is not pres
    assert d_twin is not d and d_twin.base is twin
    for bd in alg.monomial_table(pres):
        assert np.array_equal(d_matrix(d_twin, bd), d_matrix(d, bd))
    cand = omega_candidate(p, N)
    f = alg.monomial_map(cand, pres, omega_reps(pres, p))
    g = alg.monomial_map(omega_candidate(p, N), pres, omega_reps(pres, p))
    assert g is not f
    assert all(g(m) == f(m) for ms in alg.monomial_table(cand).values() for m in ms[:3])


def test_wrong_shift_raises_after_a_memo_hit():
    # the same generator on the same page, or the same image on another page
    pres, d = intro_dga()
    img = d.images["m1"]
    assert extend_derivation(pres, {"m1": img}, d.page) is d
    with pytest.raises(DifferentialError):
        extend_derivation(pres, {"m1": monomial_element(pres, {"u": 1})}, d.page)
    with pytest.raises(DifferentialError):
        extend_derivation(pres, {"m1": img}, d.page + 1)
    with pytest.raises(DifferentialError):
        extend_derivation(pres, {"m1": img, "l1": monomial_element(pres, {"u": 1})}, d.page)
    assert extend_derivation(pres, {"m1": img}, d.page) is d


def test_homology_refuses_d_squared_nonzero_one_degree_above():
    # d^2(g3) = g0 g2 != 0 in degree 11: the boundary d(g3) = g1 g2 into
    # degree 10 is no cycle, so homology through degree 10 is refused too
    pres = Presentation(
        5, (poly("g0", (0, 4)), ext("g1", (1, 4)), ext("g2", (2, 3)), ext("g3", (4, 7))), 11
    )
    d = extend_derivation(pres, {
        "g1": monomial_element(pres, {"g0": 1}),
        "g3": monomial_element(pres, {"g1": 1, "g2": 1}),
    }, 1)
    for n_max in (10, 11):
        with pytest.raises(DifferentialError, match=r"^d\^2 != 0 on g3: g0 g2$"):
            homology(pres, d, n_max)


def test_d_squared_shipped_dga_clean():
    pres, d = intro_dga(5, 60)
    assert check_d_squared(d, 60) == []


def test_d_squared_zero_derivation():
    pres, _ = intro_dga()
    zero = extend_derivation(pres, {}, 2)
    assert check_d_squared(zero, 60) == []


def test_d_squared_violation_detected():
    # d(a) = b c, d(b) = e, others zero: d(d(a)) = e c != 0 on page 3
    pres = Presentation(
        5,
        (
            poly("a", (9, 1)),
            poly("b", (6, 0)),
            ext("c", (0, 3)),
            ext("e", (3, 2)),
        ),
        24,
    )
    d = extend_derivation(
        pres,
        {
            "a": monomial_element(pres, {"b": 1, "c": 1}),
            "b": monomial_element(pres, {"e": 1}),
        },
        3,
    )
    bad = check_d_squared(d, 24)
    assert bad
    monos = {alg.monomial_str(pres, m) for m, _ in bad}
    assert "a" in monos


def abce_derivation():
    """d(a) = b c, d(b) = e on page 3: d(d(a)) = e c != 0."""
    pres = Presentation(
        5,
        (poly("a", (9, 1)), poly("b", (6, 0)), ext("c", (0, 3)), ext("e", (3, 2))),
        24,
    )
    images = {
        "a": monomial_element(pres, {"b": 1, "c": 1}),
        "b": monomial_element(pres, {"e": 1}),
    }
    return extend_derivation(pres, images, 3)


@settings(max_examples=60, deadline=None)
@given(random_derivations())
@example(abce_derivation())
@example(intro_dga(5, 40)[1])
def test_d_squared_matches_element_level_reference(d):
    for bound in (d.base.max_degree, d.base.max_degree - 2):
        assert check_d_squared(d, bound) == reference_check_d_squared(d, bound)


def brute_support(d):
    """The bidegrees whose d_matrix is nonzero, each matrix built on a fresh
    twin of d that shares none of its memos."""
    twin = dga.Derivation(d.base, d.page, d.images)
    return [bd for bd in sorted(alg.monomial_table(d.base)) if d_matrix(twin, bd).any()]


def shadowed_derivation():
    """d(x) = y, with z beside x in bidegree (2, 0) and first there in lex
    order, so the acting monomial is not the first of its bidegree."""
    pres = Presentation(5, (poly("x", (2, 0)), poly("z", (2, 0)), ext("y", (0, 1))), 8)
    return extend_derivation(pres, {"x": monomial_element(pres, {"y": 1})}, 2)


@settings(max_examples=60, deadline=None)
@given(random_derivations())
@example(abce_derivation())
@example(shadowed_derivation())
def test_support_is_where_d_matrix_is_nonzero(d):
    assert d.support == brute_support(d)


def brunku2_p7(N):
    """The shipped brunku2 p = 7 file, parsed with its box set to N."""
    text = (files("gradss") / "data" / "brunku2_p7.ss").read_text()
    parsed = parse(re.sub(r"(?m)^maxdeg \d+$", f"maxdeg {N}", text))
    return extend_derivation(parsed.presentation, spec_images(
        parsed.presentation, parsed.differentials), parsed.differentials[0].page)


@pytest.mark.parametrize("build, acting, cells", [
    (lambda: intro_dga(5, 103)[1], 16, 159),
    (lambda: brunku2_p7(300), 36, 505),
])
def test_flagship_support_matches_brute_force(build, acting, cells):
    d = build()
    assert d.support == brute_support(d)
    assert (len(d.support), len(alg.monomial_table(d.base))) == (acting, cells)


def test_step3_builds_matrices_only_where_d_can_act(monkeypatch):
    # a matrix only where a monomial holds an acting generator and the target
    # holds monomials: 19 of 159 bidegrees at the acceptance box
    p, N = 5, 103
    seen = []

    def recorded(pres, d, n_max):
        seen.append(d)
        return homology(pres, d, n_max)

    monkeypatch.setattr(thhku, "homology", recorded)
    tor, _ = thhku.step1_tor(p)
    rel, _ = thhku.step2_v0(tor, N)
    thhku.step3_v1(rel, N)
    (d,) = seen
    acting = [i for i, g in enumerate(d.base.generators) if g.name in d.images]
    table = alg.monomial_table(d.base)
    can_act = {
        bd for bd, monos in table.items()
        if d.target(bd) in table and any(mono[i] for mono in monos for i in acting)
    }
    assert set(d.matrices) == can_act
    assert (len(can_act), len(table)) == (19, 159)


@settings(max_examples=60, deadline=None)
@given(random_derivations())
@example(abce_derivation())
def test_d_matrix_columns_are_leibniz_expansions(d):
    pres = d.base
    table = alg.monomial_table(pres)
    for bd, monos in table.items():
        mat = d_matrix(d, bd)
        target = d.target(bd)
        assert mat.shape == (len(table.get(target, [])), len(monos))
        for j, mono in enumerate(monos):
            img = d_monomial(d, mono)
            if mat.shape[0]:
                assert np.array_equal(mat[:, j], coords(pres, target, img))
            else:
                assert not img


@settings(max_examples=60, deadline=None)
@given(random_derivations())
@example(abce_derivation())
@example(intro_dga(5, 60)[1])
def test_d_monomial_matches_element_arithmetic(d):
    for monos in alg.monomial_table(d.base).values():
        for mono in monos:
            assert d_monomial(d, mono) == reference_d_monomial(d, mono), mono


def test_d_monomial_drops_an_exponent_divisible_by_p():
    # d(m1^5) = 5 m1^4 u^3 su = 0 at p = 5; d(m1^6) = 6 m1^5 u^3 su
    pres, d = intro_dga(5, 60)
    m1_5, m1_6 = pres.monomial({"m1": 5}), pres.monomial({"m1": 6})
    assert d_monomial(d, m1_5) == reference_d_monomial(d, m1_5) == alg.ZERO
    want = monomial_element(pres, {"u": 3, "su": 1, "m1": 5})
    assert d_monomial(d, m1_6) == reference_d_monomial(d, m1_6) == want


def test_d_monomial_sums_a_multi_term_image_over_every_factor():
    # d(a) = x + 2y and d(b) = 3x on page 2: d(ab) = (x + 2y) b - a (3x),
    # and a x = x a carries no sign since x is even
    pres = Presentation(
        5, (poly("x", (0, 2)), poly("y", (0, 2)), ext("a", (2, 1)), ext("b", (2, 1))), 12
    )
    images = {
        "a": element(pres, {pres.monomial({"x": 1}): 1, pres.monomial({"y": 1}): 2}),
        "b": monomial_element(pres, {"x": 1}, 3),
    }
    d = extend_derivation(pres, images, 2)
    ab = pres.monomial({"a": 1, "b": 1})
    want = element(pres, {
        pres.monomial({"x": 1, "b": 1}): 1,
        pres.monomial({"y": 1, "b": 1}): 2,
        pres.monomial({"x": 1, "a": 1}): -3,
    })
    assert d_monomial(d, ab) == reference_d_monomial(d, ab) == want
    x2ab = pres.monomial({"x": 2, "a": 1, "b": 1})
    assert d_monomial(d, x2ab) == reference_d_monomial(d, x2ab)
    assert len(d_monomial(d, x2ab).coeffs) == 3


def test_d_monomial_of_a_factor_reaching_its_cap_vanishes():
    # u^4 = 0 in P_4(u) and su^2 = 0: d(u m1) = u^4 su and d(su m1) = su^2 u^3
    # reach a cap against the prefix, d(u m1^2) = 2 u^4 su m1 too
    pres, d = intro_dga(5, 60)
    for exps in ({"u": 1, "m1": 1}, {"su": 1, "m1": 1}, {"u": 1, "m1": 2}):
        mono = pres.monomial(exps)
        assert d_monomial(d, mono) == reference_d_monomial(d, mono) == alg.ZERO, exps
    # d(a c) = b c c: the image reaches c's cap against the suffix
    d = abce_derivation()
    ac = d.base.monomial({"a": 1, "c": 1})
    assert d_monomial(d, ac) == reference_d_monomial(d, ac) == alg.ZERO


def test_d_monomial_refuses_a_monomial_past_the_box():
    # m1^7 lies at total degree 70 > 60; m1^5 past a box of 40 still has
    # d = 0, since its one term carries 5 = 0 mod p
    pres, d = intro_dga(5, 60)
    for call in (d_monomial, reference_d_monomial):
        with pytest.raises(alg.BeyondTruncation):
            call(d, pres.monomial({"m1": 7}))
    pres, d = intro_dga(5, 40)
    m1_5 = pres.monomial({"m1": 5})
    assert d_monomial(d, m1_5) == reference_d_monomial(d, m1_5) == alg.ZERO


def test_homology_degree_ten_vanishes():
    pres, d = intro_dga()
    H = homology(pres, d, 40)
    assert H.dim_total(10) == 0


def test_homology_degree_fifty_contains_m1_power():
    pres, d = intro_dga(5, 60)
    H = homology(pres, d, 56)
    m1_5 = coords(pres, (50, 0), monomial_element(pres, {"m1": 5}))
    assert np.any(H.vector_coords((50, 0), m1_5))
    assert H.dim((50, 0)) >= 1


def test_homology_zero_derivation_matches_series():
    pres, _ = intro_dga(5, 30)
    zero = extend_derivation(pres, {}, 2)
    H = homology(pres, zero, 29)
    series = alg.dimension_series(pres, 29)
    for dg in range(30):
        assert H.dim_total(dg) == series[dg]


def test_homology_propagates_d_squared_violation():
    pres = Presentation(
        5,
        (
            poly("a", (9, 1)),
            poly("b", (6, 0)),
            ext("c", (0, 3)),
            ext("e", (3, 2)),
        ),
        24,
    )
    d = extend_derivation(
        pres,
        {
            "a": monomial_element(pres, {"b": 1, "c": 1}),
            "b": monomial_element(pres, {"e": 1}),
        },
        3,
    )
    with pytest.raises(DifferentialError):
        homology(pres, d, 24)


def _rows(vectors):
    return [v.tolist() for v in vectors]


@settings(max_examples=60, deadline=None)
@given(random_derivations(), st.data())
def test_homology_matches_the_every_bidegree_reference(d, data):
    pres = d.base
    n_max = data.draw(st.integers(0, pres.max_degree))
    try:
        want, want_reps = reference_homology(pres, d, n_max)
    except DifferentialError as err:
        with pytest.raises(DifferentialError, match=f"^{re.escape(str(err))}$"):
            homology(pres, d, n_max)
        return
    got = homology(pres, d, n_max)
    assert {bd: got.reps(bd) for bd in got.subquotients} == want_reps
    assert got.subquotients.keys() == want.subquotients.keys()
    coeffs = st.integers(-pres.p, 2 * pres.p)
    for bd, sub in want.subquotients.items():
        mine = got.subquotients[bd]
        assert _rows(mine.reps) == _rows(sub.reps)
        assert _rows(mine.boundaries) == _rows(sub.boundaries)
        # a random cycle: reps and boundaries combined, then an arbitrary vector
        gens = sub.reps + sub.boundaries
        cs = data.draw(st.lists(coeffs, min_size=len(gens), max_size=len(gens)))
        cycle = sum((c * v for c, v in zip(cs, gens)), np.zeros(sub.dim, dtype=np.int64))
        arbitrary = np.array(
            data.draw(st.lists(coeffs, min_size=sub.dim, max_size=sub.dim)), dtype=np.int64
        )
        for v in (cycle, arbitrary):
            expected = want.vector_coords(bd, v)
            if expected is None:
                assert got.vector_coords(bd, v) is None
            else:
                assert got.vector_coords(bd, v).tolist() == expected.tolist()
    # nothing is stored past n_max: no vector there is a class
    past = (0, n_max + 1)
    assert got.vector_coords(past, np.zeros(0, dtype=np.int64)) is None


def test_homology_refusal_message_matches_the_reference():
    d = abce_derivation()
    with pytest.raises(DifferentialError) as want:
        reference_homology(d.base, d, 24)
    with pytest.raises(DifferentialError, match=f"^{re.escape(str(want.value))}$"):
        homology(d.base, d, 24)


def test_row_reduction_only_where_d_acts(monkeypatch):
    # the flagship step-3 DGA at (5, 103): d enters or leaves 32 of 159 bidegrees
    p, N = 5, 103
    pres, d = intro_dga(p, N)
    table = alg.monomial_table(pres)

    def acts(bd):
        source = (bd[0] + d.page, bd[1] - d.page + 1)
        return d_matrix(d, bd).any() or (source in table and d_matrix(d, source).any())

    touched = sum(1 for bd in table if sum(bd) <= N and acts(bd))
    assert touched == 32
    shapes = []
    rref = linfp._rref_inplace

    def counted(a, modulus):
        shapes.append(a.shape)
        return rref(a, modulus)

    monkeypatch.setattr(linfp, "_rref_inplace", counted)
    H = homology(pres, d, N)
    # a kernel and a two-rref Subquotient at most, where d acts
    assert len(shapes) <= 3 * touched
    shapes.clear()
    cand = omega_candidate(p, N)
    iso = verify_presentation_iso(H, cand, omega_reps(pres, p), abutment_relations(p))
    assert iso.ok
    # one square rank per nonzero homology bidegree, and one coordinate
    # solver per bidegree where d acts
    ranked = sum(1 for bd in H.dims_by_bidegree() if sum(bd) <= iso.bound)
    assert len(shapes) <= ranked + touched
    # a lone class is ranked without a reduction
    assert (1, 1) not in shapes


def test_verify_iso_target_candidate_passes():
    p, N = 5, 60
    pres, d = intro_dga(p, N)
    H = homology(pres, d, N)
    cand = omega_candidate(p, N)
    report = verify_presentation_iso(H, cand, omega_reps(pres, p), abutment_relations(p))
    assert report.ok, report
    assert report.bound == N - 1


def test_verify_iso_bogus_relation_fails():
    # adding u^{p-2} a_{p-1} = 0 is wrong: that class survives
    p, N = 5, 60
    pres, d = intro_dga(p, N)
    H = homology(pres, d, N)
    cand = omega_candidate(p, N)
    bogus = RelationSpec("bogus", (("u", p - 2), (f"a{p - 1}", 1)))
    rels = abutment_relations(p) + [bogus]
    report = verify_presentation_iso(H, cand, omega_reps(pres, p), rels)
    assert not report.ok
    assert report.relation_failures == [("bogus", (43, 6), "image u^3 su m1^4 survives")]
    assert report.dimension_mismatches


def with_cell(H, bd, sub):
    """H with its cell at bd replaced by sub."""
    return dataclasses.replace(H, subquotients=H.subquotients | {bd: sub})


def test_verify_iso_refuses_an_image_that_is_no_class():
    # a homology that stores nothing at (0, 4), a bidegree only the product
    # u^2 reaches: the standard monomial u^2 maps to no class there
    p, N = 5, 60
    pres, d = intro_dga(p, N)
    broken = with_cell(homology(pres, d, N), (0, 4), linfp.Subquotient(p, 1, [], []))
    with pytest.raises(ValueError, match="^element does not represent a homology class$"):
        verify_presentation_iso(broken, omega_candidate(p, N), omega_reps(pres, p),
                                abutment_relations(p))


def test_verify_iso_lists_a_generator_whose_rep_is_no_cycle():
    # nothing stored at u's bidegree: its rep u is no class plus boundaries
    p, N = 5, 60
    pres, d = intro_dga(p, N)
    broken = with_cell(homology(pres, d, N), (0, 2), linfp.Subquotient(p, 1, [], []))
    report = verify_presentation_iso(broken, omega_candidate(p, N), omega_reps(pres, p),
                                     abutment_relations(p))
    assert report.generator_failures == ["u: representative is not a cycle"]
    assert not report.ok


def test_verify_iso_lists_a_generator_past_the_homology_as_outside_the_box():
    # H holds cells through total degree 5 only, so y at (0, 6) lies past it
    p, N = 5, 8
    pres = Presentation(p, (poly("x", (0, 2)),), N)
    H = homology(pres, extend_derivation(pres, {}, 2), 5)
    cand = Presentation(p, (poly("x", (0, 2)), poly("y", (0, 6))), N)
    reps = {"x": monomial_element(pres, {"x": 1}), "y": monomial_element(pres, {"x": 3})}
    report = verify_presentation_iso(H, cand, reps, [])
    assert report.generator_failures == ["y: generator lives outside the box"]


def test_verify_iso_lists_a_relation_whose_image_is_no_class():
    # x^2 = 0 is false in the free algebra on x; with nothing stored at
    # (0, 4) its image x^2 is no class either, and it is listed all the same
    p, N = 5, 8
    pres = Presentation(p, (poly("x", (0, 2)),), N)
    H = homology(pres, extend_derivation(pres, {}, 2), N)
    reps = {"x": monomial_element(pres, {"x": 1})}
    rel = RelationSpec("x2", (("x", 2),))
    failure = [("x2", (0, 4), "image x^2 survives")]
    assert verify_presentation_iso(H, pres, reps, [rel]).relation_failures == failure
    broken = with_cell(H, (0, 4), linfp.Subquotient(p, 1, [], []))
    assert verify_presentation_iso(broken, pres, reps, [rel]).relation_failures == failure


@settings(max_examples=150, deadline=None)
@given(subquotient_inputs(), st.data())
def test_is_boundary_matches_a_rank_reference(inputs, data):
    # v is zero modulo the boundaries exactly when it adds nothing to their
    # rank: boundary combinations, cycles, arbitrary vectors (often no
    # class), a whole cell and a zero-length vector
    p, dim, cycles, boundaries, vectors = inputs
    page = dga.Page(None, 2, 0, {  # is_boundary reads the cells alone
        (0, 0): linfp.Subquotient(p, dim, cycles, boundaries),
        (1, 0): linfp.Subquotient.whole(p, dim),
    })
    cs = data.draw(st.lists(st.integers(0, p - 1), min_size=len(boundaries),
                            max_size=len(boundaries)))
    zero = np.zeros(dim, dtype=np.int64)
    spanned = sum((c * b for c, b in zip(cs, boundaries)), zero) % p
    for bd, bvecs in (((0, 0), boundaries), ((1, 0), [])):
        rank_b = linfp.rank(p, bvecs + [zero])
        for v in [spanned, zero, *vectors]:
            assert page.is_boundary(bd, v) == (linfp.rank(p, bvecs + [v]) == rank_b)
    assert page.is_boundary((2, 0), np.zeros(0, dtype=np.int64))


@st.composite
def mapped_elements(draw):
    """(source, target, images, bd, el): images fix an algebra map from a
    random source presentation into a random target, which half the time
    also holds the source's generators, each generator sent to a random
    combination, often zero, of the target's monomials of its bidegree (zero
    where there are none), and el a random element of the source at bd
    inside the target's box, which may hold no monomial of the target; half
    the time bd is the largest cell.  Half the time both hold two more odd
    generators x < y at (1, 0), sx and sy sent across tx and ty (sx to a
    combination holding ty, sy to one holding tx), and bd is (2, 0) with sx
    sy in el, so its image carries the Koszul sign of ty tx = -tx ty."""
    p = draw(st.sampled_from([5, 7]))

    def generators(prefix):
        gens = []
        for i in range(draw(st.integers(1, 4))):
            n = draw(st.integers(0, 2))
            m = draw(st.integers(0 if n else 1, 2))
            if (n + m) % 2:
                gens.append(ext(f"{prefix}{i}", (n, m)))
            elif draw(st.booleans()):
                gens.append(trunc(f"{prefix}{i}", draw(st.integers(2, 4)), (n, m)))
            else:
                gens.append(poly(f"{prefix}{i}", (n, m)))
        return tuple(gens)

    crossed = draw(st.booleans())

    def pair(prefix):
        return (ext(f"{prefix}x", (1, 0)), ext(f"{prefix}y", (1, 0))) if crossed else ()

    source = Presentation(p, generators("s") + pair("s"), 12)
    shared = source.generators if draw(st.booleans()) else ()
    target = Presentation(p, generators("t") + shared + pair("t"), 12)
    coeffs = st.integers(-p, 2 * p)
    nonzero = st.integers(1, p - 1)
    images = {}
    for g in source.generators:
        monos = alg.monomial_table(target).get(g.bidegree, [])
        cs = draw(st.lists(coeffs, min_size=len(monos), max_size=len(monos)))
        images[g.name] = element(target, dict(zip(monos, cs)))
    if crossed:
        for name, other in (("sx", "ty"), ("sy", "tx")):
            cross = {target.monomial({other: 1}): draw(nonzero)}
            images[name] = element(target, images[name].coeffs | cross)
    table = alg.monomial_table(source)
    cells = sorted(table, key=lambda b: (-len(table[b]), b))
    bd = (2, 0) if crossed else draw(st.just(cells[0]) | st.sampled_from(cells))
    cs = draw(st.lists(coeffs, min_size=len(table[bd]), max_size=len(table[bd])))
    el = dict(zip(table[bd], cs))
    if crossed:
        el[source.monomial({"sx": 1, "sy": 1})] = draw(nonzero)
    return source, target, images, bd, element(source, el)


@settings(max_examples=200, deadline=None)
@given(mapped_elements())
def test_image_coords_match_the_element_arithmetic_reference(case):
    source, target, images, bd, el = case
    got = dga.image_coords(target, bd, alg.monomial_map(source, target, images), el)
    assert got.dtype == np.int64
    want = reference_map_element(source, target, images, el)
    assert got.tolist() == coords(target, bd, want).tolist()


def test_verify_iso_identity_candidate():
    pres, _ = intro_dga(5, 30)
    zero = extend_derivation(pres, {}, 2)
    H = homology(pres, zero, 29)
    reps = {g.name: monomial_element(pres, {g.name: 1}) for g in pres.generators}
    report = verify_presentation_iso(H, pres, reps, [])
    assert report.ok, report


def test_verify_iso_lists_a_whole_cell_whose_one_standard_monomial_maps_to_zero():
    # x is truncated at height 2 in the DGA but polynomial in the candidate,
    # so the standard monomials x^2 and x^3 map to 0 in whole H cells, each
    # spanned by one class (y and x y): rank 0 of 1, though the counts agree
    p, N = 5, 8
    pres = Presentation(p, (trunc("x", 2, (0, 2)), poly("y", (0, 4))), N)
    H = homology(pres, extend_derivation(pres, {}, 2), N)
    cand = Presentation(p, (poly("x", (0, 2)),), N)
    report = verify_presentation_iso(H, cand, {"x": monomial_element(pres, {"x": 1})}, [])
    assert H.subquotients[0, 4].is_whole and H.subquotients[0, 6].is_whole
    assert report.surjectivity_failures == [((0, 4), 0, 1), ((0, 6), 0, 1)]
    assert report.dimension_mismatches == [] and not report.ok


def test_euler_characteristic_conservation():
    pres, d = intro_dga(5, 42)
    N = 42
    H = homology(pres, d, N)
    table = alg.monomial_table(pres)
    # rank of d out of each total degree
    from gradss.linfp import RowSpan

    def rank_out(total):
        spans = {}
        for (n, m), monos in table.items():
            if n + m != total:
                continue
            for mono in monos:
                img = d_monomial(d, mono)
                if not img:
                    continue
                bd = alg.bidegree_of(pres, img)
                if bd not in spans:
                    spans[bd] = RowSpan(pres.p, len(alg.basis_in_bidegree(pres, bd)))
                spans[bd].add(dga.coords(pres, bd, img))
        return sum(s.rank() for s in spans.values())

    series = alg.dimension_series(pres, N)
    for total in range(0, H.cert_bound + 1):
        expected = series[total] - rank_out(total) - rank_out(total + 1)
        assert H.dim_total(total) == expected, total


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_leibniz_independent_of_split(data):
    pres, d = intro_dga(5, 40)
    table = alg.monomial_table(pres)
    monos = sorted(m for ms in table.values() for m in ms)
    mono = data.draw(st.sampled_from(monos))
    split = [data.draw(st.integers(0, e)) for e in mono]
    m1 = tuple(split)
    m2 = tuple(e - s for e, s in zip(mono, split))
    x = element(pres, {m1: 1})
    y = element(pres, {m2: 1})
    lhs = d_element(d, alg.multiply(pres, x, y))
    dx = alg.multiply(pres, d_element(d, x), y)
    sign = (-1) ** alg.total_degree(pres, m1)
    dy = scale(pres, sign, alg.multiply(pres, x, d_element(d, y)))
    assert lhs == add(pres, dx, dy)


def test_homology_of_tensor_with_zero_factor():
    # H(A x B, id x d) = A x H(B, d) degreewise, A = E(y)
    p, N = 5, 30
    b_pres = Presentation(
        p,
        (trunc("u", 4, (0, 2)), ext("su", (3, 0)), poly("m1", (10, 0))),
        N,
    )
    db = extend_derivation(
        b_pres, {"m1": monomial_element(b_pres, {"u": 3, "su": 1})}, 7
    )
    Hb = homology(b_pres, db, N)

    ab_pres = Presentation(
        p,
        (
            ext("y", (1, 0)),
            trunc("u", 4, (0, 2)),
            ext("su", (3, 0)),
            poly("m1", (10, 0)),
        ),
        N,
    )
    dab = extend_derivation(
        ab_pres, {"m1": monomial_element(ab_pres, {"u": 3, "su": 1})}, 7
    )
    Hab = homology(ab_pres, dab, N)
    for total in range(Hab.cert_bound + 1):
        expected = Hb.dim_total(total)
        if total >= 1:
            expected += Hb.dim_total(total - 1)  # times E(y), |y| = 1
        assert Hab.dim_total(total) == expected, total


def test_verify_iso_dropped_relation_only_mismatches_dimensions():
    # without u^{p-2} a_0 = 0 the candidate quotient is too big, but every
    # remaining check still passes
    p, N = 5, 60
    pres, d = intro_dga(p, N)
    H = homology(pres, d, N)
    cand = omega_candidate(p, N)
    rels = abutment_relations(p)
    (dropped,) = [r for r in rels if r.label == "rel2[0]"]
    assert dropped.element(cand) == monomial_element(cand, {"u": p - 2, "a0": 1})
    rest = [r for r in rels if r is not dropped]
    report = verify_presentation_iso(H, cand, omega_reps(pres, p), rest)
    assert report.dimension_mismatches
    assert not (
        report.generator_failures
        or report.relation_failures
        or report.surjectivity_failures
    )
    assert all(got > want for _, got, want in report.dimension_mismatches)


def test_verify_iso_missing_generator_fails_surjectivity():
    p, N = 5, 60
    pres, d = intro_dga(p, N)
    H = homology(pres, d, N)
    full = omega_candidate(p, N)
    cand = Presentation(p, tuple(g for g in full.generators if g.name != "l1"), N)
    report = verify_presentation_iso(H, cand, omega_reps(pres, p), abutment_relations(p))
    l1 = full.gen("l1").bidegree
    assert (l1, 0, 1) in report.surjectivity_failures
    assert not (report.generator_failures or report.relation_failures)


def omega_setup(p, N):
    """H, the candidate, its relation specs other than kind bounds, and reps."""
    pres, d = intro_dga(p, N)
    H = homology(pres, d, N)
    cand = omega_candidate(p, N)

    def states_a_kind(spec):
        """Whether spec is g^cap = 0 for a capped generator g, a relation
        verify_presentation_iso adds by itself."""
        if spec.rhs or len(spec.lhs) != 1:
            return False
        ((name, e),) = spec.lhs
        return e == cand.caps[cand.index(name)]

    specs = [r for r in abutment_relations(p) if not states_a_kind(r)]
    return H, cand, specs, omega_reps(pres, p)


def iso_bidegrees(H, cand):
    """The bidegrees verify_presentation_iso checks, in its order."""
    bds = set(alg.monomial_table(cand)) | set(H.dims_by_bidegree())
    return sorted(bd for bd in bds if sum(bd) <= H.cert_bound)


def reference_first_mismatch(H, cand, rels, memo):
    """First (bd, quotient dim, dim H) where the ranked ideal disagrees with H."""
    for bd, dim in quotient_dims(cand, rels, iso_bidegrees(H, cand), memo):
        if dim != H.dim(bd):
            return (bd, dim, H.dim(bd))
    return None


@pytest.mark.parametrize("p, N", [(5, 60), (7, 120)])
def test_single_relation_drops_agree_with_ranked_ideal(p, N):
    # Past the first mismatch the lists may differ: without a relation the
    # set need not be a Groebner basis, and |S| then over-counts.
    H, cand, specs, reps = omega_setup(p, N)
    rels = [r.element(cand) for r in specs]
    memo = {}
    full = reference_first_mismatch(H, cand, rels, memo)
    assert full is None
    for k, rel in enumerate(rels):
        rest = rels[:k] + rels[k + 1 :]
        report = verify_presentation_iso(H, cand, reps, specs[:k] + specs[k + 1 :])
        if sum(alg.bidegree_of(cand, rel)) > H.cert_bound:
            want = full  # a skipped relation leaves the ideal in the box alone
        else:
            want = reference_first_mismatch(H, cand, rest, memo)
        assert report.ok == (want is None), k
        assert report.dimension_mismatches[:1] == ([want] if want else []), k
        assert not report.surjectivity_failures, k


@pytest.mark.parametrize("p, N", [(5, 60), (7, 120)])
def test_standard_counts_equal_ranked_quotient_dims(p, N):
    H, cand, specs, reps = omega_setup(p, N)
    assert verify_presentation_iso(H, cand, reps, specs).ok
    rels = [r.element(cand) for r in specs]
    live = [r for r in rels if sum(alg.bidegree_of(cand, r)) <= H.cert_bound]
    standard = alg.standard_monomials(cand, [min(r.coeffs) for r in live], H.cert_bound)
    ranked = quotient_dims(cand, rels, iso_bidegrees(H, cand))
    assert {bd: dim for bd, dim in ranked if dim} == {
        bd: len(monos) for bd, monos in standard.items()
    }


def test_verify_iso_never_enumerates_the_candidate(monkeypatch):
    H, cand, rels, reps = omega_setup(5, 60)
    seen = []
    table = alg.monomial_table

    def recorded(pres):
        seen.append(pres)
        return table(pres)

    monkeypatch.setattr(alg, "monomial_table", recorded)
    assert verify_presentation_iso(H, cand, reps, rels).ok
    assert seen and cand not in seen


def test_verify_iso_refuses_a_surviving_kind_bound_power():
    # u truncated one step early: u^{p-2} is a nonzero class in H, and its
    # kind is a relation like any other
    p, N = 5, 60
    H, full, rels, reps = omega_setup(p, N)
    short_u = trunc("u", p - 2, (0, 2), weight=1)
    cand = Presentation(p, (short_u,) + full.generators[1:], N)
    report = verify_presentation_iso(H, cand, reps, [])
    assert report.relation_failures == [(f"u^{p - 2}", (0, 6), f"image u^{p - 2} survives")]
    assert not report.ok
    # a listed u^{p-2} = 0 stands for the bound: checked once, under its label
    listed = RelationSpec("short-u", (("u", p - 2),))
    report = verify_presentation_iso(H, cand, reps, [listed])
    assert report.relation_failures == [("short-u", (0, 6), f"image u^{p - 2} survives")]


def test_verify_iso_checks_each_kind_power_once():
    # at (5, 60) the bound is 59, so a3^2 (degree 66) and a4^2 (86) are
    # skipped: under their rel8 labels when listed, as kind powers when not,
    # and once either way
    p, N = 5, 60
    H, cand, specs, reps = omega_setup(p, N)
    unlisted = verify_presentation_iso(H, cand, reps, specs)
    listed = verify_presentation_iso(H, cand, reps, abutment_relations(p))
    assert unlisted.ok and listed.ok
    assert {"a3^2", "a4^2"} <= {label for label, _ in unlisted.skipped_relations}
    rename = {"a3^2": "rel8[3,3]", "a4^2": "rel8[4,4]"}
    assert sorted(listed.skipped_relations) == sorted(
        (rename.get(label, label), bd) for label, bd in unlisted.skipped_relations
    )
