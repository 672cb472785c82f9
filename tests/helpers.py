"""Shared builders for tests of the absolute run and of random DGAs.

relative_e2 and absolute_e2 are the two E2 presentations typed in by hand, as
references independent of gradss.thhku, which builds them from its fact
registry.
"""

import operator

import numpy as np
import pytest
from hypothesis import strategies as st

from gradss import algebra as alg
from gradss.algebra import Presentation, element, ext, monomial_element, poly, trunc
from gradss.dga import extend_derivation
from gradss.filtered import realize_filtered_dga
from gradss.specseq import DifferentialSpec


def relative_e2(p, N):
    """E2 of the relative run: su in the rows, l1 and m1 in the columns."""
    return Presentation(
        p, (ext("su", (0, 3)), ext("l1", (2 * p - 1, 0)), poly("m1", (2 * p, 0))), N
    )


def absolute_e2(p, N):
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


def integer_like(x):
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_plain_int_answer_or_value_error(call, value, answer=lambda out: out):
    """call(value) raises ValueError unless value is an int or a numpy integer;
    if it is one, call(value) ends as call(plain int) does: the same answer,
    or the same exception type."""
    if not integer_like(value):
        with pytest.raises(ValueError):
            call(value)
        return

    def outcome(x):
        try:
            return answer(call(x))
        except Exception as err:  # the plain int's refusal, whatever it is
            return type(err)

    assert outcome(value) == outcome(operator.index(value))


def intro_dga(p=5, N=60):
    pres = absolute_e2(p, N)
    img = monomial_element(pres, {"u": p - 2, "su": 1})
    return pres, extend_derivation(pres, {"m1": img}, 2 * p - 3)


def brunku2_spec(pres, p):
    """The one nonzero differential: d_{2p-3}(m1) = u^{p-2} su."""
    return DifferentialSpec(
        2 * p - 3,
        monomial_element(pres, {"m1": 1}),
        monomial_element(pres, {"u": p - 2, "su": 1}),
    )


def random_dga_instance(rng, with_extra_factor=None):
    """Seeded small DGA in the shipped-run shape: d(m) = u^j s on page 2j + 1.

    Randomizes the prime, the truncation height and the degrees; optionally
    tensors on an extra exterior generator that the differential kills.
    """
    p = rng.choice([5, 7])
    h = rng.randint(2, 4)
    j = rng.randint(1, h - 1)
    k = rng.randint(j + 1, j + 3)
    if with_extra_factor is None:
        with_extra_factor = rng.random() < 0.5
    N = rng.randint(6 * k, 8 * k)
    return dga_instance(p, h, j, k, with_extra_factor, N)


def dga_instance(p, h, j, k, extra, N):
    """P_h(u) (x) E(s) (x) P(m), (x) E(y) if extra, with d(m) = u^j s on page
    2j + 1; needs 1 <= j < h and k > j.  Returns (presentation, [spec])."""
    r = 2 * j + 1
    sigma = 2 * k - r  # odd and positive since k > j
    gens = [trunc("u", h, (0, 2)), ext("s", (sigma, 0)), poly("m", (2 * k, 0))]
    if extra:
        gens.append(ext("y", (2 * k + 1, 0)))
    pres = Presentation(p, tuple(gens), N)
    image = monomial_element(pres, {"u": j, "s": 1})
    spec = DifferentialSpec(r, monomial_element(pres, {"m": 1}), image)
    return pres, [spec]


@st.composite
def dga_shapes(draw, max_k=None):
    """(p, h, j, k, extra, N) over the random_dga_instance ranges; max_k >= 2
    caps k, as the benchmark's oracle cards do at 3."""
    p = draw(st.sampled_from([5, 7]))
    h = draw(st.integers(2, 4))
    if max_k is None:
        max_k = h + 2
    j = draw(st.integers(1, min(h - 1, max_k - 1)))
    k = draw(st.integers(j + 1, min(j + 3, max_k)))
    extra = draw(st.booleans())
    N = draw(st.integers(6 * k, 8 * k))
    return p, h, j, k, extra, N


def filtered_dga(pres, specs):
    """The presentation's DGA (d from the one spec) as a FilteredComplex."""
    spec = specs[0]
    deriv = extend_derivation(pres, {spec.source_generator(pres): spec.image}, spec.page)
    return realize_filtered_dga(pres, deriv, pres.max_degree)


@st.composite
def random_derivations(draw, max_gens=4, min_page=1):
    """A small random presentation with a random page-r derivation on it,
    min_page <= r <= 3.

    Some generators sit one shift above a product of earlier ones, so their
    image has monomials to land on; each image is a random combination of the
    target's monomials, so d^2 = 0 often fails.  N covers every generator.
    """
    p = draw(st.sampled_from([5, 7]))
    r = draw(st.integers(min_page, 3))
    gens = []
    for i in range(draw(st.integers(1, max_gens))):
        picks = draw(st.lists(st.sampled_from(gens), unique=True, max_size=2)) if gens else []
        n = sum(g.bidegree[0] for g in picks) + r
        m = sum(g.bidegree[1] for g in picks) - r + 1
        if not picks or m < 0 or n + m > 12:
            n = draw(st.integers(0, 4))
            m = draw(st.integers(0 if n else 1, 4))
        if (n + m) % 2:
            gens.append(ext(f"g{i}", (n, m)))
        elif draw(st.booleans()):
            gens.append(poly(f"g{i}", (n, m)))
        else:
            gens.append(trunc(f"g{i}", draw(st.integers(2, 4)), (n, m)))
    top = max(g.total_degree for g in gens)
    pres = Presentation(p, tuple(gens), draw(st.integers(max(top, 8), 16)))
    return extend_derivation(pres, draw(random_images(pres, r)), r)


@st.composite
def random_images(draw, pres, r):
    """Generator images for a page-r derivation: random combinations of the
    monomials of each target bidegree."""
    table = alg.monomial_table(pres)
    images = {}
    for g in pres.generators:
        target = table.get((g.bidegree[0] - r, g.bidegree[1] + r - 1), [])
        coeffs = draw(st.lists(st.integers(0, pres.p - 1), min_size=len(target),
                               max_size=len(target)))
        images[g.name] = element(pres, dict(zip(target, coeffs)))
    return images


@st.composite
def subquotient_inputs(draw):
    """(p, dim, cycles, boundaries, vectors): boundaries are combinations of cycles."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dim = draw(st.integers(0, 6))
    coeffs = st.integers(0, p - 1)
    vec = st.lists(coeffs, min_size=dim, max_size=dim).map(lambda v: np.array(v, dtype=np.int64))
    cycles = draw(st.lists(vec, max_size=6))

    def combination():
        cs = draw(st.lists(coeffs, min_size=len(cycles), max_size=len(cycles)))
        return sum((c * z for c, z in zip(cs, cycles)), np.zeros(dim, dtype=np.int64)) % p

    boundaries = [combination() for _ in range(draw(st.integers(0, 4)))]
    # vectors to query: some inside span(cycles), some arbitrary
    vectors = [combination() for _ in range(3)] + draw(st.lists(vec, min_size=1, max_size=3))
    return p, dim, cycles, boundaries, vectors
