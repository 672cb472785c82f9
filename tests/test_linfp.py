import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gradss import linfp
from gradss.algebra import Presentation, ext, poly
from gradss.dga import homology
from gradss.dsl import ParseError, parse
from gradss.filtered import FilteredComplex, random_filtered_complex
from gradss.homalg import BaseRing, koszul_tor
from gradss.linfp import (
    MAX_PRIME,
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

from helpers import (
    check_plain_int_answer_or_value_error, integer_like, intro_dga, subquotient_inputs,
)

# the first prime past the int64 bound
PAST_MAX_PRIME = 2147483659


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
    red, pivots = rref(5, np.zeros((0, 0), dtype=np.int64))
    assert red.shape == (0, 0) and red.dtype == np.int64
    assert pivots == []


def test_rref_identity():
    m = np.eye(3, dtype=np.int64)
    red, pivots = rref(5, m)
    assert red.tolist() == m.tolist()
    assert pivots == [0, 1, 2]


def test_rref_hand_reduction():
    # hand oracle: scale first row by 2^-1 = 3, clear the second
    red, pivots = rref(5, [[2, 4], [1, 2]])
    assert red.tolist() == [[1, 2], [0, 0]]
    assert pivots == [0]


def test_kernel_zero_matrix():
    basis = kernel_basis(5, np.zeros((2, 3), dtype=np.int64))
    assert [v.tolist() for v in basis] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_kernel_identity():
    assert kernel_basis(7, np.eye(4, dtype=np.int64)) == []


def test_kernel_single_row_exhaustive():
    basis = kernel_basis(5, [[1, 2]])
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
    m = np.array([[1, 2], [0, 0]])
    x = solve(5, m, np.array([3, 0]))
    assert x is not None and (m @ x % 5).tolist() == [3, 0]
    assert solve(5, m, np.array([0, 1])) is None


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
        assert whole.coords(v).tolist() == general.coords(v).tolist() == (v % p).tolist()
    wrong = np.ones(data.draw(st.integers(0, 8).filter(lambda n: n != dim)), dtype=np.int64)
    for sub in (whole, general):
        with pytest.raises(ValueError):
            sub.coords(wrong)
    assert "reps" not in vars(whole)
    assert [r.tolist() for r in whole.reps] == [r.tolist() for r in general.reps]


def test_whole_subquotient_needs_no_row_reduction(monkeypatch):
    def refused(a, p):
        raise AssertionError("row reduction on the whole space")

    monkeypatch.setattr(linfp, "_rref_inplace", refused)
    whole = Subquotient.whole(MAX_PRIME, 3)
    v = np.array([MAX_PRIME + 2, -1, 4 * MAX_PRIME], dtype=np.int64)
    assert whole.coords(v).tolist() == [2, MAX_PRIME - 1, 0]


def test_subquotient_rejects_boundary_outside_cycles():
    with pytest.raises(SubquotientError):
        subquotient_basis(3, [e(0)], [e(1)], 5)


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError):
        rank(6, np.zeros((1, 1), dtype=np.int64))
    assert is_prime(7) and not is_prime(9)


def _entry_points(p):
    """Every linfp entry point that takes a modulus, on tiny inputs."""
    e1, e2 = np.eye(2, dtype=np.int64)
    return [
        lambda: rref(p, np.zeros((0, 0), dtype=np.int64)),
        lambda: rank(p, np.eye(2, dtype=np.int64)),
        lambda: kernel_basis(p, np.zeros((1, 2), dtype=np.int64)),
        lambda: solve(p, np.eye(2, dtype=np.int64), e1),
        lambda: homology_dims(p, {0: 0}, {1: np.zeros((0, 0), dtype=np.int64)}),
        lambda: subquotient_basis(2, [e1], [], p),
        # mod 9, (6, 3) = 3 * (2, 1): no field, so no unique coordinates
        lambda: Subquotient(p, 2, [e1, e2], []).coords([6, 3]),
        lambda: Subquotient(p, 2, [], []),
        lambda: Subquotient.whole(p, 2),
        lambda: RowSpan(p, 2).add(e1),
    ]


@pytest.mark.parametrize("p", [0, 1, 4, 9, PAST_MAX_PRIME])
def test_every_entry_point_refuses_a_bad_modulus(p):
    for call in _entry_points(p):
        with pytest.raises(ValueError, match="need a prime"):
            call()
    for call in _entry_points(5):
        call()


def test_entries_of_the_wrong_dimension_refused():
    with pytest.raises(ValueError, match="2-d"):
        rank(5, [1, 2, 3])
    with pytest.raises(ValueError, match="1-d"):
        solve(5, np.eye(2, dtype=np.int64), np.eye(2, dtype=np.int64))
    with pytest.raises(ValueError, match="1-d"):
        RowSpan(5, 2).add([[1, 0]])


@pytest.mark.parametrize("p", [0, 1, 4, 9, PAST_MAX_PRIME])
def test_filtered_complex_checks_the_prime_on_entry(p):
    with pytest.raises(ValueError, match="need a prime"):
        FilteredComplex(p, {0: 1, 1: 1}, {1: [[3]]}, {0: [0], 1: [1]})
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="need a prime"):
        random_filtered_complex(rng, p=p)
    assert rng.getstate() == state  # refused before the first draw


def test_filtered_complex_refuses_a_float_boundary():
    # 0.5 used to be stored as 0, leaving a boundary given as nonzero out
    with pytest.raises(ValueError, match="entries must be integers"):
        FilteredComplex(5, {0: 1, 1: 1}, {1: [[0.5]]}, {0: [0], 1: [0]})
    with pytest.raises(ValueError, match="entries must be integers"):
        FilteredComplex(5, {0: 1, 1: 1}, {1: np.ones((1, 1))}, {0: [0], 1: [0]})


def test_filtered_complex_leaves_the_callers_boundaries_alone():
    # the complex used to keep the caller's dict and write its residues into it
    mat = np.array([[7]])
    given = {1: mat, 2: [[0]]}
    fc = FilteredComplex(5, {0: 1, 1: 1, 2: 1}, given, {0: [0], 1: [0], 2: [0]})
    assert fc.boundary is not given and fc.boundary[1].tolist() == [[2]]
    assert list(given) == [1, 2] and given[1] is mat and given[2] == [[0]]
    assert mat.tolist() == [[7]]


def test_filtered_complex_reduces_a_big_int_boundary():
    # 2**70 used to raise OverflowError; it is 4 mod 5, so d is invertible
    fc = FilteredComplex(5, {0: 1, 1: 1}, {1: [[2**70]]}, {0: [0], 1: [0]})
    assert fc.boundary[1].tolist() == [[4]]
    assert fc.total_homology() == {}


def _entries(p):
    """Integers covering every residue mod p, negatives and multiples of p among them."""
    return st.one_of(
        st.integers(-3 * p, 3 * p),
        st.integers(-3, 3).map(lambda k: k * p),
        st.integers(0, p - 1),
    )


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([5, 7, MAX_PRIME]), st.integers(0, 12), st.integers(0, 12), st.data())
def test_entry_points_copy_and_reduce_their_input(p, rows, cols, data):
    # an input is never mutated, and any integers give the answers of their residues
    a = data.draw(arrays(np.int64, (rows, cols), elements=_entries(p)))
    b = data.draw(arrays(np.int64, rows, elements=_entries(p)))
    a_in, b_in = a.copy(), b.copy()
    res, b_res = a % p, b % p

    red, pivots = rref(p, a)
    red_res, pivots_res = rref(p, res)
    assert red.tolist() == red_res.tolist() and pivots == pivots_res
    assert rank(p, a) == rank(p, res) == len(pivots)
    assert [v.tolist() for v in kernel_basis(p, a)] == [v.tolist() for v in kernel_basis(p, res)]
    x, x_res = solve(p, a, b), solve(p, res, b_res)
    assert (x is None) == (x_res is None)
    if x is not None:
        assert x.tolist() == x_res.tolist()
    assert a.tolist() == a_in.tolist() and b.tolist() == b_in.tolist()
    assert res.tolist() == (a_in % p).tolist() and b_res.tolist() == (b_in % p).tolist()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7]), st.data())
def test_rank_nullity(p, data):
    m = np.array(data.draw(matrices(p)), dtype=np.int64)
    assert rank(p, m) + len(kernel_basis(p, m)) == m.shape[1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7]), st.data())
def test_rref_idempotent(p, data):
    red, _ = rref(p, data.draw(matrices(p)))
    red2, _ = rref(p, red)
    assert red2.tolist() == red.tolist()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7]), st.data())
def test_kernel_annihilated(p, data):
    m = np.array(data.draw(matrices(p)), dtype=np.int64)
    for v in kernel_basis(p, m):
        assert not np.any(m @ v % p)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([5, 7, MAX_PRIME]), st.integers(0, 14), st.integers(0, 14), st.data())
def test_list_and_numpy_loops_reduce_alike(p, rows, cols, data):
    # shapes from 0 x 0 to 196 entries, past the list loop's bound; both
    # loops pick the same pivots, so they agree entry for entry
    a = data.draw(arrays(np.int64, (rows, cols), elements=st.integers(0, p - 1)))
    by_lists = a.tolist()
    pivots = linfp._rref_rows(by_lists, p)
    by_numpy = a.copy()
    assert linfp._rref_numpy(by_numpy, p) == pivots
    assert by_numpy.tolist() == by_lists


def test_rref_loop_chosen_by_entry_count(monkeypatch):
    # up to the bound on Python ints, above it on numpy rows; the bound sits
    # where the two loops cost about the same, far from either end
    loops = []
    for name in ("_rref_rows", "_rref_numpy"):
        def logged(*args, _name=name, _loop=getattr(linfp, name)):
            loops.append(_name)
            return _loop(*args)
        monkeypatch.setattr(linfp, name, logged)
    bound = linfp._LIST_CELLS
    assert 64 <= bound <= 256
    shapes = [(1, 1), (8, 16), (1, bound), (1, bound + 1), (16, 16), (60, 200)]
    for rows, cols in shapes:
        _, pivots = rref(5, np.eye(rows, cols, dtype=np.int64))
        assert len(pivots) == min(rows, cols)
    assert loops == ["_rref_rows"] * 3 + ["_rref_numpy"] * 3
    # the one bound holds for every p, far past 2^15 and up to MAX_PRIME
    for p in (2**15 - 19, 2**16 + 1, MAX_PRIME):
        loops.clear()
        for shape in ((1, 1), (1, bound), (1, bound + 1), (16, 16)):
            _, pivots = rref(p, np.eye(*shape, dtype=np.int64))
            assert len(pivots) == min(shape)
        assert loops == ["_rref_rows"] * 2 + ["_rref_numpy"] * 2, p


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
    # a rank checks its modulus once: 150 checks of 3 moduli, 3 divisions
    is_prime.cache_clear()
    for _ in range(50):
        for p in (5, 7, MAX_PRIME):
            rank(p, np.zeros((2, 2), dtype=np.int64))
    info = is_prime.cache_info()
    assert (info.misses, info.hits) == (3, 147)
    # the memo changes no answer: refusals repeat on every call
    for _ in range(3):
        for bad in (PAST_MAX_PRIME, 6, MAX_PRIME - 2):
            with pytest.raises(ValueError):
                rank(bad, np.zeros((1, 1), dtype=np.int64))
    assert is_prime(PAST_MAX_PRIME)  # prime, refused only by the bound


def test_solve_exact_at_edge_prime():
    p = MAX_PRIME
    a = [[p - 1, p - 2], [p - 3, p - 5]]
    b = [p - 7, p - 11]
    x = solve(p, a, b)
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
        rank(p, np.zeros((1, 1), dtype=np.int64))
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

def reference_coords(sub, v):
    """The rep part of one solution of [reps | boundaries] x = v, or None."""
    cols = sub.reps + sub.boundaries
    m = np.stack(cols, axis=1) if cols else np.zeros((sub.dim, 0), dtype=np.int64)
    x = solve(sub.p, m, v)
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
    # each rep is its own unit vector, each boundary the zero vector
    for i, rep in enumerate(sub.reps):
        assert sub.coords(rep).tolist() == [int(i == j) for j in range(len(sub.reps))]
    for b in boundaries:
        assert not sub.coords(b).any()


@settings(max_examples=150, deadline=None)
@given(subquotient_inputs(), st.randoms(use_true_random=False))
def test_subquotient_coords_ignore_the_boundary_order(inputs, rnd):
    # the reps are picked before the boundaries are read, and coords modulo
    # the boundaries depend on their span alone
    p, dim, cycles, boundaries, vectors = inputs
    sub = Subquotient(p, dim, cycles, boundaries)
    shuffled = list(boundaries)
    rnd.shuffle(shuffled)
    other = Subquotient(p, dim, cycles, shuffled)
    bspan = RowSpan(p, dim)
    for b in boundaries:
        bspan.add(b)
    for v in vectors:
        got, want = sub.coords(v), other.coords(v)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tolist() == want.tolist()
            # v minus its class part is a boundary
            part = sum((c * r for c, r in zip(got, sub.reps)), np.zeros(dim, dtype=np.int64))
            assert bspan.contains((v - part) % p)
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


MODULI = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([MAX_PRIME, PAST_MAX_PRIME, 2**70 + 1]),
    st.integers(-3, 40).map(np.int64),
    st.integers(0, 40).map(np.int32),
    st.integers(-3, 40).map(float),
    st.floats(allow_nan=False),
    st.booleans(),
)
ENTRIES = st.one_of(
    st.integers(-20, 20),
    st.integers(2**63, 2**80),
    st.integers(-(2**80), -(2**63) - 1),
    st.integers(-20, 20).map(np.int64),
    st.integers(-20, 20).map(float),
    st.floats(-20, 20),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(
    MODULI,
    st.integers(1, 3).flatmap(
        lambda cols: st.lists(
            st.lists(ENTRIES, min_size=cols, max_size=cols), min_size=1, max_size=3
        )
    ),
)
def test_moduli_and_entries_give_the_plain_int_answer_or_value_error(p, rows):
    """A float modulus or entry is refused even when it is integral, and so
    is a bool modulus; big ints are reduced mod p, never overflow."""
    q = operator.index(p) if integer_like(p) else None
    prime = q is not None and 2 <= q <= MAX_PRIME and is_prime(q)
    entries = [x for row in rows for x in row]
    refused = not prime or any(isinstance(x, float) for x in entries)
    plain = prime and all(integer_like(x) for x in entries)
    if not refused:  # a bool entry reads as 0 or 1, or is refused
        want = np.array([[operator.index(x) % q for x in row] for row in rows])
    for call in (rank, rref, kernel_basis):
        try:
            got = call(p, rows)
        except ValueError:
            assert not plain, call.__name__
            continue
        assert not refused, call.__name__
        ref = call(q, want)
        if call is rank:
            assert type(got) is int and got == ref
        elif call is rref:
            assert got[0].tolist() == ref[0].tolist() and got[1] == ref[1]
        else:
            assert [v.tolist() for v in got] == [v.tolist() for v in ref]
    try:
        pres = Presentation(p, (poly("x", (2, 0)),), 10)
    except ValueError:
        assert not (prime and q >= 5)
    else:
        assert prime and q >= 5 and type(pres.p) is int and pres.p == q
    rows_dims = {0: len(rows), 1: len(rows[0])}
    levels = {d: [0] * dim for d, dim in rows_dims.items()}
    try:
        fc = FilteredComplex(p, rows_dims, {1: rows}, levels)
    except ValueError:
        assert not plain
    else:
        assert not refused
        ref = FilteredComplex(q, rows_dims, {1: want}, levels)
        assert fc.boundary[1].tolist() == ref.boundary[1].tolist()
        assert fc.total_homology() == ref.total_homology()


BOUNDS = st.one_of(
    st.integers(-3, 30),
    st.integers(2**63, 2**80),
    st.integers(-(2**80), -(2**63)),
    st.integers(-3, 30).map(np.int64),
    st.integers(0, 30).map(np.int32),
    st.integers(-3, 30).map(float),
    st.floats(-3, 30),
    st.booleans(),
)


@settings(max_examples=100, deadline=None)
@given(BOUNDS)
def test_degree_bounds_give_the_plain_int_answer_or_value_error(n):
    """A presentation's max degree, homology's n_max and koszul_tor's internal
    bound: a float is refused even when it is integral, and so is a bool."""
    check = check_plain_int_answer_or_value_error
    gens = (ext("s", (3, 0)), poly("m", (4, 0)))
    check(
        lambda N: Presentation(5, gens, N),
        n,
        lambda pres: (type(pres.max_degree), pres.max_degree),
    )
    pres, d = intro_dga(5, 30)
    check(
        lambda N: homology(pres, d, N),
        n,
        lambda H: (type(H.cert_bound), [H.dim_total(k) for k in range(H.cert_bound + 1)]),
    )
    if not integer_like(n) or n <= 30:  # the Tor table has a row per internal degree
        check(
            lambda N: koszul_tor(BaseRing("zp", 5), "fp", "zp", N),
            n,
            lambda table: (type(table.max_internal), table.nonzero()),
        )
