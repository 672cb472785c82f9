import pytest
from hypothesis import given, settings, strategies as st

from gradss import algebra as alg
from gradss.algebra import (
    BeyondTruncation,
    Presentation,
    basis_in_bidegree,
    dimension_series,
    element,
    ext,
    monomial_element,
    monomial_str,
    multiply,
    poly,
    trunc,
    weight_of,
)
from oracles import scale


def brunku1(p=5, N=60):
    # E(su) x E(l1) x P(m1): su in row 3, l1 and m1 in columns 2p-1 and 2p
    return Presentation(
        p,
        (ext("su", (0, 3)), ext("l1", (2 * p - 1, 0)), poly("m1", (2 * p, 0))),
        N,
    )


def brunku2(p=5, N=60):
    return Presentation(
        p,
        (
            trunc("u", p - 1, (0, 2), weight=1),
            ext("su", (3, 0), weight=1),
            ext("l1", (2 * p - 1, 0)),
            poly("m1", (2 * p, 0)),
        ),
        N,
    )


def test_basis_sigma_u_in_column_zero():
    pres = brunku1()
    monos = basis_in_bidegree(pres, (0, 3))
    assert [monomial_str(pres, m) for m in monos] == ["su"]


def test_truncated_power_bidegree_empty():
    pres = Presentation(5, (trunc("u", 4, (0, 2)),), 20)
    assert basis_in_bidegree(pres, (0, 8)) == []  # u^4 = 0


def test_unit_monomial_in_degree_zero():
    pres = brunku2()
    monos = basis_in_bidegree(pres, (0, 0))
    assert monos == [pres.unit_monomial]


def test_exterior_square_vanishes():
    pres = brunku2()
    su = monomial_element(pres, {"su": 1})
    assert not multiply(pres, su, su)


def test_truncation_relation():
    pres = brunku2()
    u3 = monomial_element(pres, {"u": 3})
    u = monomial_element(pres, {"u": 1})
    assert not multiply(pres, u3, u)  # u^4 = 0 for p = 5


def test_koszul_sign_on_odd_swap():
    pres = brunku1()
    l1 = monomial_element(pres, {"l1": 1})
    su = monomial_element(pres, {"su": 1})
    lhs = multiply(pres, l1, su)
    rhs = multiply(pres, su, l1)
    assert lhs == scale(pres, -1, rhs)
    assert rhs == monomial_element(pres, {"su": 1, "l1": 1})


def test_weight_examples():
    pres = brunku2()
    assert weight_of(pres, pres.monomial({"u": 2})) == 2
    assert weight_of(pres, pres.unit_monomial) == 0
    # l1 u^2 b2 with b2 = u m1^2 standing in the E2 algebra: l1 u^3 m1^2
    mono = pres.monomial({"l1": 1, "u": 3, "m1": 2})
    assert weight_of(pres, mono) == 3


def test_dimension_series_exterior_tensor_poly():
    pres = Presentation(5, (ext("l1", (9, 0)), poly("m1", (10, 0))), 12)
    assert dimension_series(pres, 10) == [1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1]


def test_dimension_series_truncated():
    pres = Presentation(5, (trunc("u", 4, (0, 2)),), 10)
    assert dimension_series(pres, 8) == [1, 0, 1, 0, 1, 0, 1, 0, 0]


def test_dimension_series_empty_presentation():
    pres = Presentation(5, (), 6)
    assert dimension_series(pres, 4) == [1, 0, 0, 0, 0]


def test_multiply_beyond_truncation_raises():
    pres = Presentation(5, (poly("m1", (10, 0)),), 25)
    m2 = monomial_element(pres, {"m1": 2})
    with pytest.raises(BeyondTruncation):
        multiply(pres, m2, m2)


def test_monomial_map_keeps_the_koszul_sign_of_reordered_images():
    # a -> y and b -> x put the odd images out of generator order, so
    # f(a b) = y x = -x y, and the sign survives the later factor c -> z
    p = 5
    source = Presentation(p, (ext("a", (0, 1)), ext("b", (1, 0)), poly("c", (1, 1))), 6)
    target = Presentation(p, (ext("x", (1, 0)), ext("y", (0, 1)), poly("z", (1, 1))), 6)
    images = {name: monomial_element(target, {gen: 1}) for name, gen in zip("abc", "yxz")}
    f = alg.monomial_map(source, target, images)
    assert f((1, 1, 0)) == {(1, 1, 0): p - 1}
    assert f((1, 1, 2)) == {(1, 1, 2): p - 1}
    assert f((1, 0, 2)) == {(0, 1, 2): 1}


def test_monomial_map_beyond_truncation_raises():
    # m1 -> m1 into a box of degree 25: m1^2 maps in, m1^3 would land at 30
    source = Presentation(5, (poly("m1", (10, 0)),), 40)
    target = Presentation(5, (poly("m1", (10, 0)),), 25)
    f = alg.monomial_map(source, target, {"m1": monomial_element(target, {"m1": 1})})
    assert f((2,)) == {(2,): 1}
    with pytest.raises(BeyondTruncation):
        f((3,))


def test_exterior_even_degree_rejected():
    with pytest.raises(ValueError):
        ext("x", (2, 0))


def test_small_primes_rejected():
    with pytest.raises(ValueError):
        Presentation(3, (), 10)


def random_presentations(max_gens=3, N=24):
    kinds = st.sampled_from(["poly", "ext", "trunc"])

    def build(draws):
        gens = []
        for i, (kind, d_half, w, h) in enumerate(draws):
            name = f"g{i}"
            if kind == "ext":
                gens.append(ext(name, (2 * d_half + 1, 0), weight=w))
            elif kind == "trunc":
                gens.append(trunc(name, h, (2 * d_half, 2), weight=w))
            else:
                gens.append(poly(name, (2 * d_half + 2, 0), weight=w))
        return Presentation(5, tuple(gens), N)

    gen_data = st.tuples(kinds, st.integers(0, 3), st.integers(0, 3), st.integers(2, 4))
    return st.lists(gen_data, min_size=1, max_size=max_gens).map(build)


def random_element(draw, pres, max_terms=3):
    table = alg.monomial_table(pres)
    monos = sorted(m for ms in table.values() for m in ms)
    picks = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=max_terms))
    bd = alg.bidegree(pres, picks[0])
    picks = [m for m in picks if alg.bidegree(pres, m) == bd]
    coeffs = draw(
        st.lists(st.integers(1, 4), min_size=len(picks), max_size=len(picks))
    )
    return element(pres, dict(zip(picks, coeffs)))


@settings(max_examples=40, deadline=None)
@given(random_presentations(), st.data())
def test_monomial_refuses_exactly_the_exponents_at_or_past_the_cap(pres, data):
    i = data.draw(st.integers(0, len(pres.generators) - 1))
    k = data.draw(st.integers(-2, 6))
    g = pres.generators[i]
    name, cap = g.name, {alg.EXTERIOR: 2, alg.TRUNCATED: g.height}.get(g.kind)
    assert pres.caps[i] == cap
    if k < 0 or (cap is not None and k >= cap):
        with pytest.raises(ValueError, match=f"exponent {k} out of range for {name}"):
            pres.monomial({name: k})
    else:
        assert pres.monomial({name: k})[i] == k


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_graded_commutativity(data):
    pres = data.draw(random_presentations())
    a = random_element(data.draw, pres)
    b = random_element(data.draw, pres)
    try:
        ab = multiply(pres, a, b)
        ba = multiply(pres, b, a)
    except BeyondTruncation:
        return
    da = alg.total_degree(pres, next(iter(a.coeffs))) if a else 0
    db = alg.total_degree(pres, next(iter(b.coeffs))) if b else 0
    sign = (-1) ** (da * db)
    assert ab == scale(pres, sign, ba)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_associativity_and_unit(data):
    pres = data.draw(random_presentations())
    one = element(pres, {pres.unit_monomial: 1})
    a = random_element(data.draw, pres)
    b = random_element(data.draw, pres)
    c = random_element(data.draw, pres)
    assert multiply(pres, one, a) == a
    assert multiply(pres, a, one) == a
    try:
        left = multiply(pres, multiply(pres, a, b), c)
        right = multiply(pres, a, multiply(pres, b, c))
    except BeyondTruncation:
        return
    assert left == right


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_basis_partitions_dimension_series(data):
    pres = data.draw(random_presentations())
    dims = dimension_series(pres, pres.max_degree)
    by_degree = [0] * (pres.max_degree + 1)
    for (n, m), monos in alg.monomial_table(pres).items():
        by_degree[n + m] += len(monos)
    assert by_degree == dims


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_weight_multiplicative(data):
    pres = data.draw(random_presentations())
    table = alg.monomial_table(pres)
    monos = sorted(m for ms in table.values() for m in ms)
    m1 = data.draw(st.sampled_from(monos))
    m2 = data.draw(st.sampled_from(monos))
    sign, prod = alg.multiply_monomials(pres, m1, m2)
    if sign == 0 or alg.total_degree(pres, prod) > pres.max_degree:
        return
    assert weight_of(pres, prod) == (
        weight_of(pres, m1) + weight_of(pres, m2)
    ) % (pres.p - 1)


def koszul_product(pres, a, b):
    """Reference a*b: bubble-sort the word a b into generator order, flipping
    the sign whenever two odd-degree letters pass each other."""
    word = [i for mono in (a, b) for i, e in enumerate(mono) for _ in range(e)]
    sign = 1
    for end in range(len(word) - 1, 0, -1):
        for k in range(end):
            if word[k] > word[k + 1]:
                word[k], word[k + 1] = word[k + 1], word[k]
                if pres.generators[word[k]].odd and pres.generators[word[k + 1]].odd:
                    sign = -sign
    expo = tuple(word.count(i) for i in range(len(a)))
    for e, g in zip(expo, pres.generators):
        if (g.kind == "exterior" and e > 1) or (g.kind == "truncated" and e >= g.height):
            return 0, None
    return sign, expo


def random_monomial(draw, pres):
    def top(g):
        return 1 if g.kind == "exterior" else g.height - 1 if g.height else 3

    return tuple(draw(st.integers(0, top(g))) for g in pres.generators)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_multiply_monomials_matches_koszul_reference(data):
    pres = data.draw(random_presentations(max_gens=6))
    a = random_monomial(data.draw, pres)
    b = random_monomial(data.draw, pres)
    assert alg.multiply_monomials(pres, a, b) == koszul_product(pres, a, b)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_monomial_map_is_left_to_right_product(data):
    # two odd generators x < y are sent across each other, x to a combination
    # holding y and y to one holding x, so f(x y) carries the Koszul sign of
    # y x = -x y
    drawn = data.draw(random_presentations())
    pair = (ext("x", (1, 0)), ext("y", (1, 0)))
    pres = Presentation(drawn.p, drawn.generators + pair, drawn.max_degree)
    images = {}
    for g in pres.generators:
        monos = basis_in_bidegree(pres, g.bidegree)
        coeffs = data.draw(st.lists(st.integers(0, 4), min_size=len(monos), max_size=len(monos)))
        images[g.name] = element(pres, dict(zip(monos, coeffs)))
    for name, other in (("x", "y"), ("y", "x")):
        cross = {pres.monomial({other: 1}): data.draw(st.integers(1, 4))}
        images[name] = element(pres, images[name].coeffs | cross)
    f = alg.monomial_map(pres, pres, images)
    table = alg.monomial_table(pres)
    monos = data.draw(st.permutations(sorted(m for ms in table.values() for m in ms)))
    for mono in monos:
        want = element(pres, {pres.unit_monomial: 1})
        for e, g in zip(mono, pres.generators):
            for _ in range(e):
                want = multiply(pres, want, images[g.name])
        assert f(mono) == want.coeffs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_standard_monomials_are_the_lead_free_monomials(data):
    # the order-ideal walk against filtering the whole table by divisibility
    pres = data.draw(random_presentations(max_gens=4))
    table = alg.monomial_table(pres)
    monos = sorted(m for ms in table.values() for m in ms)
    leads = data.draw(st.lists(st.sampled_from(monos), max_size=4))
    bound = data.draw(st.integers(0, pres.max_degree))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    want = {}
    for bd, ms in sorted(table.items()):
        if sum(bd) <= bound:
            kept = [m for m in ms if not any(divides(lead, m) for lead in leads)]
            if kept:
                want[bd] = kept
    assert alg.standard_monomials(pres, leads, bound) == want


def test_standard_monomials_ignore_leads_no_monomial_reaches():
    # u^4 and a^2 sit past their caps and c^6 past the bound; read as codes
    # in the walk's radices they would name a, b and a monomial past the box
    pres, bound = omega_like(), 20
    unreachable = [(4, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 6), (0, 0, 0, 40)]
    assert alg.standard_monomials(pres, unreachable, bound) == (
        alg.standard_monomials(pres, [], bound)
    )
    assert sum(map(len, alg.standard_monomials(pres, [], bound).values())) == sum(
        len(ms) for bd, ms in alg.monomial_table(pres).items() if sum(bd) <= bound
    )


def omega_like(p=5, N=60):
    """u truncated at p - 1, exterior a and b with |b| = |u a|, polynomial c."""
    gens = (trunc("u", p - 1, (0, 2)), ext("a", (3, 0)), ext("b", (3, 2)), poly("c", (4, 0)))
    return Presentation(p, gens, N)


def test_relation_spec_element_is_lhs_minus_rhs():
    pres = omega_like()
    rel = alg.RelationSpec("r", (("b", 1),), ((2, (("u", 1), ("a", 1))),))
    assert rel.element(pres) == element(pres, {(0, 0, 1, 0): 1, (1, 1, 0, 0): -2})
    # equal monomials add up mod p, and a term may cancel the lhs
    twice = alg.RelationSpec("r", (("b", 1),), ((2, (("b", 1),)), (2, (("b", 1),))))
    assert twice.element(pres) == element(pres, {(0, 0, 1, 0): 1 - 4})
    assert not alg.RelationSpec("r", (("b", 1),), ((1, (("b", 1),)),)).element(pres)
    # a repeated name adds up, and exponents may pass the kind bounds
    power = alg.RelationSpec("r", (("u", 2), ("u", 2), ("a", 2)))
    assert power.element(pres) == alg.Element({(4, 2, 0, 0): 1})


def test_relation_spec_refusals_name_the_label():
    pres = omega_like()
    mixed = alg.RelationSpec("rel-mixed", (("b", 1),), ((1, (("u", 1),)),))
    with pytest.raises(ValueError, match="rel-mixed"):
        mixed.element(pres)
    unknown = alg.RelationSpec("rel-unknown", (("x", 1),))
    with pytest.raises(ValueError, match="rel-unknown: unknown generator x"):
        unknown.element(pres)
