import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradss import linfp
from gradss.algebra import Presentation
from gradss.dsl import ParseError, parse
from gradss.linfp import (
    MAX_PRIME,
    FpMatrix,
    RowSpan,
    Subquotient,
    SubquotientError,
    homology_dims,
    is_prime,
    kernel_basis,
    matmul,
    rank,
    rref,
    solve,
    subquotient_basis,
)

# the first prime past the int64 bound
PAST_MAX_PRIME = 2147483659


def mat(p, rows):
    return FpMatrix.from_rows(p, rows)


def matrices(p, max_dim=6):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


def test_rref_empty_matrix():
    red, pivots = rref(FpMatrix.zeros(5, 0, 0))
    assert red.rows == 0 and red.cols == 0
    assert pivots == []


def test_rref_identity():
    m = FpMatrix.identity(5, 3)
    red, pivots = rref(m)
    assert red == m
    assert pivots == [0, 1, 2]


def test_rref_hand_reduction():
    # hand oracle: scale first row by 2^-1 = 3, clear the second
    red, pivots = rref(mat(5, [[2, 4], [1, 2]]))
    assert red.entries.tolist() == [[1, 2], [0, 0]]
    assert pivots == [0]


def test_kernel_zero_matrix():
    basis = kernel_basis(FpMatrix.zeros(5, 2, 3))
    assert [v.tolist() for v in basis] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_kernel_identity():
    assert kernel_basis(FpMatrix.identity(7, 4)) == []


def test_kernel_single_row_exhaustive():
    m = mat(5, [[1, 2]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert basis[0].tolist() == [3, 1]
    # exhaust all 25 vectors of F_5^2
    true_kernel = {
        (a, b)
        for a in range(5)
        for b in range(5)
        if (a + 2 * b) % 5 == 0
    }
    assert tuple(basis[0]) in true_kernel
    assert len(true_kernel) == 5  # a line: dim 1 matches


def test_solve_consistent_and_inconsistent():
    m = mat(5, [[1, 2], [0, 0]])
    x = solve(m, np.array([3, 0]))
    assert x is not None and (m.entries @ x % 5).tolist() == [3, 0]
    assert solve(m, np.array([0, 1])) is None


def e(i, n=3):
    v = np.zeros(n, dtype=np.int64)
    v[i] = 1
    return v


def test_subquotient_full_space_no_boundaries():
    reps = subquotient_basis(3, [e(0), e(1), e(2)], [], 5)
    assert len(reps) == 3


def test_subquotient_cycles_equal_boundaries():
    cycles = [e(0), e(1)]
    assert subquotient_basis(3, cycles, cycles, 5) == []


def test_subquotient_dimension_count():
    # cycles span e1, e2; boundaries span e1 + e2: quotient is 1-dimensional
    reps = subquotient_basis(3, [e(0), e(1)], [(e(0) + e(1)) % 5], 5)
    assert len(reps) == 1
    assert reps[0].tolist() == [1, 0, 0]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 5, 7, MAX_PRIME]), st.integers(0, 6), st.data())
def test_whole_subquotient_matches_the_general_one(p, dim, data):
    # the same answers, and the same refusal of a vector of the wrong length;
    # the whole space builds its unit-vector reps only when they are read
    whole = Subquotient.whole(p, dim)
    general = Subquotient(p, dim, np.eye(dim, dtype=np.int64), [])
    assert whole.boundaries == general.boundaries == []
    entries = st.integers(-3 * p, 3 * p)  # residues and entries outside [0, p)
    vectors = st.lists(entries, min_size=dim, max_size=dim)
    for v in data.draw(st.lists(vectors, min_size=1, max_size=4)):
        v = np.array(v, dtype=np.int64)
        assert whole.reduce(v).tolist() == general.reduce(v).tolist()
        assert whole.coords(v).tolist() == general.coords(v).tolist()
        assert whole.contains(v) and general.contains(v)
    wrong = np.ones(data.draw(st.integers(0, 8).filter(lambda n: n != dim)), dtype=np.int64)
    for sub in (whole, general):
        for method in (sub.reduce, sub.coords):
            with pytest.raises(ValueError):
                method(wrong)
    assert "reps" not in vars(whole)
    assert [r.tolist() for r in whole.reps] == [r.tolist() for r in general.reps]


def test_whole_subquotient_needs_no_row_reduction(monkeypatch):
    def refused(a, p):
        raise AssertionError("row reduction on the whole space")

    monkeypatch.setattr(linfp, "_rref_inplace", refused)
    whole = Subquotient.whole(MAX_PRIME, 3)
    v = np.array([MAX_PRIME + 2, -1, 4 * MAX_PRIME], dtype=np.int64)
    assert whole.reduce(v).tolist() == [2, MAX_PRIME - 1, 0]
    assert whole.coords(v).tolist() == [2, MAX_PRIME - 1, 0]
    assert whole.contains(v)


def test_subquotient_rejects_boundary_outside_cycles():
    with pytest.raises(SubquotientError):
        subquotient_basis(3, [e(0)], [e(1)], 5)


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError):
        FpMatrix.zeros(6, 1, 1)
    assert is_prime(7) and not is_prime(9)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7]), st.data())
def test_rank_nullity(p, data):
    rows = data.draw(matrices(p))
    m = mat(p, rows)
    assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7]), st.data())
def test_rref_idempotent(p, data):
    rows = data.draw(matrices(p))
    red, _ = rref(mat(p, rows))
    red2, _ = rref(red)
    assert red2 == red


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7]), st.data())
def test_kernel_annihilated(p, data):
    rows = data.draw(matrices(p))
    m = mat(p, rows)
    for v in kernel_basis(m):
        assert not np.any(m.entries @ v % p)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_subquotient_reps_independent_mod_boundaries(data):
    p = 5
    dim = data.draw(st.integers(2, 5))
    vecs = data.draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim),
            min_size=1,
            max_size=6,
        )
    )
    cycles = [np.array(v, dtype=np.int64) for v in vecs]
    # boundaries: combinations of the first few cycles, so containment holds
    bnd = [sum(c for c in cycles[:2]) % p] if len(cycles) >= 2 else []
    reps = subquotient_basis(dim, cycles, bnd, p)
    span = RowSpan(p, dim)
    for v in bnd:
        span.add(v)
    for r in reps:
        assert span.add(r), "representative dependent modulo boundaries"
    # count matches dim(cycles) - dim(boundaries)
    cyc = RowSpan(p, dim)
    for v in cycles:
        cyc.add(v)
    bspan = RowSpan(p, dim)
    for v in bnd:
        bspan.add(v)
    assert len(reps) == cyc.rank() - bspan.rank()


def test_prime_bound_edges():
    assert is_prime(MAX_PRIME) and is_prime(PAST_MAX_PRIME)
    assert not any(is_prime(n) for n in range(MAX_PRIME + 1, PAST_MAX_PRIME))


def test_prime_checked_once_per_modulus():
    is_prime.cache_clear()
    for _ in range(50):
        for p in (5, 7, MAX_PRIME):
            FpMatrix.zeros(p, 2, 2)
    info = is_prime.cache_info()
    assert (info.misses, info.hits) == (3, 147)
    # the memo changes no answer: refusals repeat on every call
    for _ in range(3):
        for bad in (PAST_MAX_PRIME, 6, MAX_PRIME - 2):
            with pytest.raises(ValueError):
                FpMatrix.zeros(bad, 1, 1)
    assert is_prime(PAST_MAX_PRIME)  # prime, refused only by the bound


def test_solve_exact_at_edge_prime():
    p = MAX_PRIME
    a = [[p - 1, p - 2], [p - 3, p - 5]]
    b = [p - 7, p - 11]
    x = solve(mat(p, a), np.array(b))
    assert x is not None
    x = [int(v) for v in x]
    for row, rhs in zip(a, b):
        assert (row[0] * x[0] + row[1] * x[1] - rhs) % p == 0


def test_matmul_exact_at_edge_prime():
    p = MAX_PRIME
    rng = np.random.default_rng(0)
    a = rng.integers(p - 1000, p, size=(3, 9), dtype=np.int64)
    b = rng.integers(p - 1000, p, size=(9, 2), dtype=np.int64)
    want = [
        [sum(int(a[i, k]) * int(b[k, j]) for k in range(9)) % p for j in range(2)]
        for i in range(3)
    ]
    assert matmul(a, b, p).tolist() == want
    assert matmul(a, b[:, 0], p).tolist() == [row[0] for row in want]


@pytest.mark.parametrize("p", [PAST_MAX_PRIME, 4294967311])
def test_modulus_past_bound_refused(p):
    with pytest.raises(ValueError):
        FpMatrix.zeros(p, 1, 1)
    with pytest.raises(ValueError):
        Presentation(p, (), 10)
    with pytest.raises(ParseError):
        parse(f"prime {p}\nmaxdeg 10\n")


def test_edge_prime_accepted_by_presentation_and_parser():
    assert Presentation(MAX_PRIME, (), 10).p == MAX_PRIME
    assert parse(f"prime {MAX_PRIME}\nmaxdeg 10\n").presentation.p == MAX_PRIME


def test_homology_dims_small_complex():
    # C_2 -> C_1 -> C_0 with d_1 = [[1, 0], [0, 0]], d_2 = [[0], [1]]
    mats = {1: np.array([[1, 0], [0, 0]]), 2: np.array([[0], [1]])}
    assert homology_dims(5, {0: 2, 1: 2, 2: 1}, mats) == {0: 1}
    # a missing differential is zero; an empty one still counts
    assert homology_dims(5, {1: 3, 4: 2}, {1: np.zeros((0, 3))}) == {1: 3, 4: 2}


def test_homology_dims_empty_matrix_checks_the_prime():
    with pytest.raises(ValueError, match="need a prime"):
        homology_dims(4, {0: 0}, {1: np.zeros((0, 0), dtype=np.int64)})


# ------------------------------------------------------------ Subquotient

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


def reference_coords(sub, v):
    """The rep part of one solution of [reps | boundaries] x = v, or None."""
    cols = sub.reps + sub.boundaries
    if cols:
        m = FpMatrix(sub.p, np.stack(cols, axis=1))
    else:
        m = FpMatrix.zeros(sub.p, sub.dim, 0)
    x = solve(m, v)
    return None if x is None else x[: len(sub.reps)]


@settings(max_examples=150, deadline=None)
@given(subquotient_inputs())
def test_subquotient_coords_match_solve(inputs):
    p, dim, cycles, boundaries, vectors = inputs
    sub = Subquotient(p, dim, cycles, boundaries)
    assert [r.tolist() for r in sub.reps] == [
        r.tolist() for r in subquotient_basis(dim, cycles, boundaries, p)
    ]
    for v in vectors:
        got, want = sub.coords(v), reference_coords(sub, v)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tolist() == want.tolist()
        assert sub.contains(v) == (got is not None)
    for rep in sub.reps:
        assert sub.contains(rep)


@settings(max_examples=150, deadline=None)
@given(subquotient_inputs(), st.randoms(use_true_random=False))
def test_subquotient_reduce_is_a_normal_form(inputs, rnd):
    p, dim, cycles, boundaries, vectors = inputs
    sub = Subquotient(p, dim, cycles, boundaries)
    shuffled = list(boundaries)
    rnd.shuffle(shuffled)
    other = Subquotient(p, dim, cycles, shuffled)
    bspan = RowSpan(p, dim)
    for b in boundaries:
        bspan.add(b)
    for v in vectors:
        normal = sub.reduce(v)
        assert normal.tolist() == other.reduce(v).tolist()
        assert bspan.contains((v - normal) % p)
        assert sub.reduce(normal).tolist() == normal.tolist()
    for b in boundaries:
        assert not np.any(sub.reduce(b))
    assert len(sub.boundaries) == bspan.rank()


@settings(max_examples=100, deadline=None)
@given(subquotient_inputs())
def test_subquotient_rejects_boundary_outside_cycle_span(inputs):
    p, dim, cycles, boundaries, vectors = inputs
    cspan = RowSpan(p, dim)
    for z in cycles:
        cspan.add(z)
    for v in vectors:
        if cspan.contains(v):
            Subquotient(p, dim, cycles, boundaries + [v])
        else:
            with pytest.raises(SubquotientError):
                Subquotient(p, dim, cycles, boundaries + [v])
