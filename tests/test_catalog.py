import pytest

from nilcat import catalog
from nilcat.catalog import (
    PARAMETRIC,
    CatalogId,
    count,
    entry,
    ids_over,
    instantiate,
    parse_id,
    raw_table,
    same_id,
    scaling_iso,
    sum_key,
)
from nilcat.cohomology import central_extension
from nilcat.errors import BadId, ZeroArgument
from nilcat.field import prime_field, rationals
from nilcat.liealg import LieAlgebra

Q = rationals()
F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)

# Bracket tables of the entries that are neither direct sums nor abelian,
# written out as in the classification: the independent reference for
# the tables that catalog builds from its defining extensions.  1-based
# indices; 'e' marks the parametric coefficient.
REFERENCE_TABLES = {
    (3, 2): {(1, 2): {3: 1}},
    (4, 3): {(1, 2): {3: 1}, (1, 3): {4: 1}},
    (5, 4): {(1, 2): {5: 1}, (3, 4): {5: 1}},
    (5, 5): {(1, 2): {3: 1}, (1, 3): {5: 1}, (2, 4): {5: 1}},
    (5, 6): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (2, 3): {5: 1}},
    (5, 7): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}},
    (5, 8): {(1, 2): {4: 1}, (1, 3): {5: 1}},
    (5, 9): {(1, 2): {3: 1}, (1, 3): {4: 1}, (2, 3): {5: 1}},
    (6, 10): {(1, 2): {3: 1}, (1, 3): {6: 1}, (4, 5): {6: 1}},
    (6, 11): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {6: 1}, (2, 3): {6: 1}, (2, 5): {6: 1}},
    (6, 12): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {6: 1}, (2, 5): {6: 1}},
    (6, 13): {(1, 2): {3: 1}, (1, 3): {5: 1}, (2, 4): {5: 1}, (1, 5): {6: 1}, (3, 4): {6: 1}},
    (6, 14): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (2, 3): {5: 1}, (2, 5): {6: 1}, (3, 4): {6: -1}},
    (6, 15): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (2, 3): {5: 1}, (1, 5): {6: 1}, (2, 4): {6: 1}},
    (6, 16): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (2, 5): {6: 1}, (3, 4): {6: -1}},
    (6, 17): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (1, 5): {6: 1}, (2, 3): {6: 1}},
    (6, 18): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (1, 5): {6: 1}},
    (6, 19): {(1, 2): {4: 1}, (1, 3): {5: 1}, (2, 4): {6: 1}, (3, 5): {6: "e"}},
    (6, 20): {(1, 2): {4: 1}, (1, 3): {5: 1}, (1, 5): {6: 1}, (2, 4): {6: 1}},
    (6, 21): {(1, 2): {3: 1}, (1, 3): {4: 1}, (2, 3): {5: 1}, (1, 4): {6: 1}, (2, 5): {6: "e"}},
    (6, 22): {(1, 2): {5: 1}, (1, 3): {6: 1}, (2, 4): {6: "e"}, (3, 4): {5: 1}},
    (6, 23): {(1, 2): {3: 1}, (1, 3): {5: 1}, (1, 4): {6: 1}, (2, 4): {5: 1}},
    (6, 24): {(1, 2): {3: 1}, (1, 3): {5: 1}, (1, 4): {6: "e"}, (2, 3): {6: 1}, (2, 4): {5: 1}},
    (6, 25): {(1, 2): {3: 1}, (1, 3): {5: 1}, (1, 4): {6: 1}},
    (6, 26): {(1, 2): {4: 1}, (1, 3): {5: 1}, (2, 3): {6: 1}},
}


def reference_table(field, key, eps=None):
    spec = {
        pair: {k: eps if c == "e" else c for k, c in comps.items()}
        for pair, comps in REFERENCE_TABLES[key].items()
    }
    return LieAlgebra.from_table(field, key[0], spec)


# Lower-central-series dims and centre dim of every dim-6 family, computed
# once by direct bracket spans (parametric members evaluated at eps = 1)
# and frozen here as regression data.
DIM6_INVARIANTS = {
    1: ((6, 0), 6),
    2: ((6, 1, 0), 4),
    3: ((6, 2, 1, 0), 3),
    4: ((6, 1, 0), 2),
    5: ((6, 2, 1, 0), 2),
    6: ((6, 3, 2, 1, 0), 2),
    7: ((6, 3, 2, 1, 0), 2),
    8: ((6, 2, 0), 3),
    9: ((6, 3, 2, 0), 3),
    10: ((6, 2, 1, 0), 1),
    11: ((6, 3, 2, 1, 0), 1),
    12: ((6, 3, 2, 1, 0), 1),
    13: ((6, 3, 2, 1, 0), 1),
    14: ((6, 4, 3, 2, 1, 0), 1),
    15: ((6, 4, 3, 2, 1, 0), 1),
    16: ((6, 4, 3, 2, 1, 0), 1),
    17: ((6, 4, 3, 2, 1, 0), 1),
    18: ((6, 4, 3, 2, 1, 0), 1),
    19: ((6, 3, 1, 0), 1),
    20: ((6, 3, 1, 0), 1),
    21: ((6, 4, 3, 1, 0), 1),
    22: ((6, 2, 0), 2),
    23: ((6, 3, 1, 0), 2),
    24: ((6, 3, 2, 0), 2),
    25: ((6, 3, 1, 0), 2),
    26: ((6, 3, 0), 3),
}


def _eps_for(key, field):
    return field.el(1) if key in {(6, 19), (6, 21), (6, 22), (6, 24)} else None


def test_every_entry_validates():
    for field in (Q, F3, F5):
        for dim in range(1, 7):
            for cid in ids_over(field, dim):
                assert instantiate(cid).validate() is None, cid.label()


def test_dim6_invariant_fixture():
    for k, (lcs, zdim) in DIM6_INVARIANTS.items():
        L = raw_table(Q, 6, k, _eps_for((6, k), Q))
        assert tuple(S.dim for S in L.lower_central_series()) == lcs, k
        assert L.center().dim == zdim, k


def test_specific_tables():
    L614 = raw_table(Q, 6, 14)
    assert L614.structure_constant(2, 3, 5) == Q.el(-1)  # [x3,x4] = -x6
    assert instantiate(CatalogId(Q, 5, 1)).is_abelian
    L624 = raw_table(Q, 6, 24, -1)
    assert L624.structure_constant(0, 3, 5) == Q.el(-1)  # [x1,x4] = eps*x6


def test_counts():
    for F in (F3, F5, F7):
        assert count(F, 6) == 34
        assert count(F, 5) == 9
    assert count(Q, 5) == 9
    assert count(Q, 6) is None
    assert count(Q, 4) == 3
    assert count(Q, 3) == 2


def test_ids_over_sizes():
    assert len(ids_over(F3, 6)) == 34
    assert len(ids_over(F5, 6)) == 34
    for field in (Q, F3):
        assert len(ids_over(field, 5)) == 9
    # default rational reps: 0, +-1, +-2, +-3 per parametric family
    assert len(ids_over(Q, 6)) == 22 + 4 * 7


def test_ids_over_explicit_rational_reps():
    ids = ids_over(Q, 6, q_reps=[0, 1, 5])
    assert len(ids) == 22 + 4 * 3


def test_param_canonicalization_in_id():
    cid = CatalogId(F5, 6, 19, 4)
    assert cid.param == F5.el(1)  # 4 = 2^2 mod 5
    cid = CatalogId(Q, 6, 24, -4)
    assert cid.param == Q.el(-1)
    assert CatalogId(Q, 6, 22, 0).param == Q.el(0)


def test_same_id_square_class_semantics():
    assert same_id(CatalogId(F5, 6, 19, 1), CatalogId(F5, 6, 19, 4))
    assert not same_id(CatalogId(Q, 6, 21, 2), CatalogId(Q, 6, 21, 3))
    assert not same_id(CatalogId(Q, 6, 22, 0), CatalogId(Q, 6, 22, 1))
    assert same_id(CatalogId(Q, 5, 7), CatalogId(Q, 5, 7))
    assert not same_id(CatalogId(Q, 5, 7), CatalogId(Q, 5, 6))


def test_bad_ids_rejected():
    with pytest.raises(BadId):
        CatalogId(Q, 6, 27)
    with pytest.raises(BadId):
        CatalogId(Q, 7, 1)
    with pytest.raises(BadId):
        CatalogId(Q, 6, 19)  # missing parameter
    with pytest.raises(BadId):
        CatalogId(Q, 6, 18, 1)  # spurious parameter


def test_label_and_parse_round_trip():
    for cid in (
        CatalogId(Q, 5, 7),
        CatalogId(Q, 6, 24, -1),
        CatalogId(F5, 6, 19, 2),
        CatalogId(Q, 6, 22, 0),
    ):
        assert parse_id(cid.field, cid.label()) == cid
    assert CatalogId(Q, 6, 24, -1).label() == "L6_24(eps=-1)"
    assert CatalogId(Q, 5, 7).label() == "L5_7"


def test_defining_extension_reproduces_every_table():
    # the tables built from the defining extensions equal the reference
    assert set(REFERENCE_TABLES) == set(catalog._DEF_EXT)
    for field in (Q, F3, F7):
        for key in REFERENCE_TABLES:
            for eps in (0, 1, -1, 2, 5) if key in PARAMETRIC else (None,):
                want = reference_table(field, key, eps)
                assert raw_table(field, *key, eps) == want, (field, key, eps)
        # and every entry, direct sums included, is its defining extension
        for dim in range(1, 7):
            for cid in ids_over(field, dim):
                e = entry(cid)
                if e.defining_quotient is None:
                    assert cid.key == (1, 1)
                    continue
                quot = instantiate(e.defining_quotient)
                K, _ = central_extension(quot, e.defining_cocycles)
                assert K == e.algebra, cid.label()


def test_defining_quotients_are_not_parametric():
    for key, (quotient, _) in catalog._DEF_EXT.items():
        assert quotient not in PARAMETRIC, key


def test_sum_key_follows_the_direct_sums():
    assert sum_key((3, 2), 1) == (4, 2)
    assert sum_key((3, 2), 3) == (6, 2)
    assert sum_key((4, 3), 2) == (6, 3)
    assert sum_key((5, 9), 1) == (6, 9)
    assert sum_key((5, 9), 2) is None
    assert sum_key((6, 10), 1) is None


@pytest.mark.parametrize("key", [(6, 19), (6, 21), (6, 22), (6, 24)])
def test_scaling_isos_verified(key):
    # the families' explicit scalings realize eps ~ alpha^2 * eps
    for field, pairs in [
        (Q, [(1, 4), (2, 8), (-1, -9), (3, 12)]),
        (F7, [(1, 2), (3, 5)]),  # squares mod 7 are {1,2,4}
    ]:
        for a, b in pairs:
            iso = scaling_iso(field, key[0], key[1], a, b)
            assert iso.verified
    iso = scaling_iso(Q, key[0], key[1], 0, 0)
    assert iso.verified
    with pytest.raises(ZeroArgument):
        scaling_iso(Q, key[0], key[1], 0, 1)


def test_instantiate_needs_param_for_families():
    with pytest.raises(BadId):
        raw_table(Q, 6, 19)
