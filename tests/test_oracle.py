import itertools
import time

import pytest

from nilcat.catalog import CatalogId, ids_over, instantiate, raw_table
from nilcat.errors import ZeroArgument
from nilcat.field import prime_field, rationals
from nilcat.liealg import LieAlgebra
from nilcat.oracle import IsoSearchConfig, fuzz_basis_change, invariant_vector, iso_search

Q = rationals()
F3 = prime_field(3)
F5 = prime_field(5)


def test_invariant_vector_components():
    L = raw_table(Q, 6, 17)
    lcs, der, dim_c, dim_dc, dim_h2 = invariant_vector(L)
    assert lcs == (6, 4, 3, 2, 1, 0)
    assert dim_c == 1 and dim_dc == 1
    # abelian differs from anything nonabelian immediately
    assert invariant_vector(LieAlgebra.abelian(Q, 6)) != invariant_vector(L)


def test_prefilter_inconclusive_on_l617_l618():
    a = invariant_vector(raw_table(F3, 6, 17))
    b = invariant_vector(raw_table(F3, 6, 18))
    assert a[0] == b[0] == (6, 4, 3, 2, 1, 0)


def test_iso_search_finds_identity():
    # every catalog algebra over GF(3), not just a sample
    for dim in range(1, 7):
        for cid in ids_over(F3, dim):
            A = instantiate(cid)
            out = iso_search(A, A)
            assert out.status == "iso", cid.label()
            assert out.iso.verified
            assert out.iso.matrix == out.iso.matrix.identity(F3, A.dim)


def test_iso_search_on_basis_change():
    A = instantiate(CatalogId(F3, 6, 14))
    cases = [(A, K) for _, K in fuzz_basis_change(A, 3, seed=21)]
    # A's adapted pair brackets need not span a grade of A: these gave
    # non_iso with the basis change as the first argument
    for idx in (11, 12, 13):
        A = instantiate(CatalogId(F3, 6, idx))
        cases.append((A, next(fuzz_basis_change(A, 1, seed=0))[1]))
    for A, K in cases:
        for X, Y in ((A, K), (K, A)):
            out = iso_search(X, Y)
            assert out.status == "iso" and out.iso.verified
            assert out.iso.domain is X and out.iso.codomain is Y


def test_l617_l618_not_isomorphic():
    out = iso_search(raw_table(F3, 6, 17), raw_table(F3, 6, 18))
    assert out.status == "non_iso"
    assert out.nodes > 0  # the prefilter alone cannot separate them


def test_f5_square_class_pairs():
    a = raw_table(F5, 6, 19, 1)
    assert iso_search(a, raw_table(F5, 6, 19, 4)).status == "iso"
    assert iso_search(a, raw_table(F5, 6, 19, 2)).status == "non_iso"


def test_budget_is_a_result():
    out = iso_search(
        raw_table(F3, 6, 17), raw_table(F3, 6, 18), IsoSearchConfig(max_nodes=10)
    )
    assert out.status == "budget" and out.iso is None


def test_budget_bounds_the_enumerations():
    # over a large field the graded maps alone outnumber the default
    # budget: the search must give up before enumerating any of them
    F = prime_field(1000003)
    A = instantiate(CatalogId(F, 6, 14))
    K = next(fuzz_basis_change(A, 1, seed=3))[1]
    t0 = time.perf_counter()
    out = iso_search(A, K)
    assert out.status == "budget" and out.iso is None and out.nodes == 0
    assert time.perf_counter() - t0 < 1.0


def test_config_validation_and_rationals_rejected():
    with pytest.raises(ZeroArgument):
        IsoSearchConfig(max_nodes=0)
    with pytest.raises(ZeroArgument):
        iso_search(raw_table(Q, 5, 4), raw_table(Q, 5, 4))


def test_dim5_pairwise_distinct_over_f3():
    algs = [(cid, instantiate(cid)) for cid in ids_over(F3, 5)]
    for (ia, A), (ib, B) in itertools.combinations(algs, 2):
        out = iso_search(A, B)
        assert out.status == "non_iso", (ia.label(), ib.label())


def test_fuzzer_deterministic_and_valid():
    L = raw_table(F3, 6, 13)
    run1 = list(fuzz_basis_change(L, 4, seed=99))
    run2 = list(fuzz_basis_change(L, 4, seed=99))
    assert len(run1) == 4
    for (P1, K1), (P2, K2) in zip(run1, run2):
        assert P1 == P2 and K1 == K2
    for P, K in fuzz_basis_change(L, 4, seed=99):
        assert K.validate() is None
