import itertools
import random

import pytest

from gradss import homalg, linfp
from gradss.algebra import Presentation, ext, trunc
from gradss.filtered import random_filtered_complex
from gradss.homalg import (
    BaseRing,
    ResourceLimit,
    hochschild_homology,
    koszul_tor,
    recognize_free_presentation,
)

from oracles import bar_tor_fp_fp, dense_hochschild


def test_tor_zp_base_fp_zp():
    # resolution 0 -> S^2 R -u-> R -> Z_p -> 0, tensored over a p-torsion module
    table = koszul_tor(BaseRing("zp", 5), "fp", "zp", 40)
    assert table.nonzero() == [((0, 0), 1), ((1, 2), 1)]


def test_tor_fp_base_free_right_module():
    table = koszul_tor(BaseRing("fp", 5), "fp", "fpu", 20)
    assert table.nonzero() == [((0, 0), 1)]


def test_tor_fp_base_fp_fp():
    # tensored Koszul differential is multiplication by u = 0
    table = koszul_tor(BaseRing("fp", 5), "fp", "fp", 20)
    assert table.nonzero() == [((0, 0), 1), ((1, 2), 1)]


@pytest.mark.parametrize("p", [1, 4, 9, 2147483659])
def test_base_ring_refuses_non_prime(p):
    # refused even where the Tor complex has no differential to check p
    for coefficients, height in (("zp", None), ("fp", None), ("fp", 3)):
        with pytest.raises(ValueError, match="need a prime"):
            BaseRing(coefficients, p, height=height)


def test_tor_left_module_must_be_p_torsion():
    with pytest.raises(ValueError):
        koszul_tor(BaseRing("zp", 5), "zp", "zp", 10)


def test_tor_zero_column_is_tensor_product():
    # Tor_0(F_p, Z_p) = F_p in degree 0 over Z_p[u]
    table = koszul_tor(BaseRing("zp", 5), "fp", "zp", 20)
    assert [table.dim(0, m) for m in range(6)] == [1, 0, 0, 0, 0, 0]


def test_tor_koszul_matches_bar_resolution_over_truncated_base():
    for h in (2, 3):
        base = BaseRing("fp", 5, height=h)
        table = koszul_tor(base, "fp", "fp", 16)
        oracle = bar_tor_fp_fp(5, h, 2, n_max=6, t_max=16)
        got = {nm: v for nm, v in table.dims.items() if nm[0] <= 6 and nm[1] <= 16}
        assert got == oracle, (h, got, oracle)


def test_recognize_exterior_on_degree_three():
    rec = recognize_free_presentation([1, 0, 0, 1, 0, 0, 0], 5)
    assert rec.presentation is not None
    gens = rec.presentation.generators
    assert len(gens) == 1 and gens[0].kind == "exterior"
    assert gens[0].total_degree == 3
    assert rec.forced


def test_recognize_polynomial_on_degree_two():
    rec = recognize_free_presentation([1, 0, 1, 0, 1, 0, 1], 5)
    gens = rec.presentation.generators
    assert len(gens) == 1 and gens[0].kind == "polynomial"
    assert gens[0].total_degree == 2
    assert not rec.forced  # a truncated tensor factorization has the same series


def test_recognize_refuses_non_free_series():
    rec = recognize_free_presentation([1, 0, 2, 0, 2], 5)
    assert rec.presentation is None


def test_hh0_is_the_algebra():
    pres = Presentation(5, (trunc("u", 4, (0, 2)),), 16)
    dims = hochschild_homology(pres, 0, 12)
    assert {t: v for (s, t), v in dims.items() if s == 0} == {0: 1, 2: 1, 4: 1, 6: 1}


def test_hh_of_unit_algebra():
    pres = Presentation(5, (), 10)
    dims = hochschild_homology(pres, 3, 8)
    assert dims == {(0, 0): 1}


@pytest.mark.parametrize(
    "p, h, s, t",
    [(5, 4, 2, 12)]
    + [(p, h, s, 16) for p in (5, 7) for h in (3, 4, 5, 6) for s in (1, 2, 3)]
    + [(7, 6, 3, 28)],
)
def test_hh_truncated_polynomial_matches_dense_oracle(p, h, s, t):
    pres = Presentation(p, (trunc("u", h, (0, 2)),), max(t, 16))
    dims = hochschild_homology(pres, s, t)
    oracle = dense_hochschild(p, h, 2, s_max=s, t_max=t)
    assert dims == oracle


def test_each_boundary_block_is_reduced_once(monkeypatch):
    # every block is ranked once; of those, the blocks of more than one row
    # and column are row reduced once, the others are ranked without one
    shapes = []
    reduced = []
    real_rank = linfp.rank
    real_rref = linfp._rref_inplace

    def ranking(p, a):
        shapes.append(a.shape)
        return real_rank(p, a)

    def reducing(a, p):
        reduced.append(a.shape)
        return real_rref(a, p)

    monkeypatch.setattr(linfp, "rank", ranking)
    monkeypatch.setattr(linfp, "_rref_inplace", reducing)

    def reduced_once():
        return reduced == [s for s in shapes if min(s) > 1]

    # Tor: one block per differential of the resolution and internal degree
    base = BaseRing("zp", 5)
    _, diffs = homalg._resolution(base, "fp", 20)
    koszul_tor(base, "fp", "fp", 20)
    assert len(shapes) == len(diffs) * 21
    assert reduced_once()

    # total homology: one reduction per boundary matrix
    fc = random_filtered_complex(random.Random(3), p=5)
    shapes.clear()
    reduced.clear()
    fc.total_homology()
    assert len(shapes) == len(fc.boundary)
    assert reduced_once()

    # HH: blocks d_1 .. d_{s_max + 1}, one per internal degree 0..t_max; the
    # blocks of d_s partition the chains of s - 1 (rows) and of s (columns)
    pres = Presentation(5, (trunc("u", 4, (0, 2)),), 16)
    shapes.clear()
    reduced.clear()
    hochschild_homology(pres, 2, 12)
    assert len(shapes) == 3 * 13
    assert reduced_once()

    def chains(s):
        # u-exponents (e0, ..., es) of P_4(u), e1..es positive, degree <= 12
        ranges = [range(4)] + [range(1, 4)] * s
        return sum(1 for e in itertools.product(*ranges) if 2 * sum(e) <= 12)

    assert sum(rows for rows, _ in shapes) == sum(chains(s) for s in (0, 1, 2))
    assert sum(cols for _, cols in shapes) == sum(chains(s) for s in (1, 2, 3))


def test_hh_exterior_is_divided_power_pattern():
    # HH of E(z), |z| = 3: one class at (s, 3s) and one at (s, 3s + 3)
    pres = Presentation(5, (ext("z", (3, 0)),), 16)
    dims = hochschild_homology(pres, 3, 12)
    expected = {}
    for s in range(4):
        if 3 * s <= 12:
            expected[(s, 3 * s)] = 1
        if 3 * s + 3 <= 12:
            expected[(s, 3 * s + 3)] = 1
    assert dims == expected


def test_hh_connectivity_bound():
    pres = Presentation(5, (trunc("u", 4, (0, 2)),), 16)
    dims = hochschild_homology(pres, 3, 14)
    for (s, t), v in dims.items():
        assert t >= 2 * s or v == 0


def test_hh_resource_cap(monkeypatch):
    pres = Presentation(5, (trunc("u", 4, (0, 2)),), 16)
    monkeypatch.setattr(homalg, "BAR_CAP", 5)
    with pytest.raises(ResourceLimit, match=r"^bar complex size \d+ exceeds the cap 5$"):
        hochschild_homology(pres, 3, 14)
