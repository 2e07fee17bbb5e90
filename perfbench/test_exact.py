"""Self-test of the benchmark's checker: it accepts a true isomorphism and
rejects the same matrix with one entry corrupted.

    python3 -m pytest perfbench/test_exact.py
"""

import random
from fractions import Fraction

import pytest

import exact

# L6_26: [x1,x2] = x4, [x1,x3] = x5, [x2,x3] = x6.  The image of x6 is
# forced to be [image of x2, image of x3], so corrupting any entry of the
# last column breaks the bracket relation whatever the other entries are.
L6_26 = "dim 6\n[1,2] 4:1\n[1,3] 5:1\n[2,3] 6:1\n"


def table(p):
    head = "field Q\n" if p is None else f"field GF({p})\n"
    return exact.parse_algebra(head + L6_26)[2]


@pytest.mark.parametrize("p", [None, 3, 5])
def test_checker_rejects_one_corrupted_entry(p):
    tab = table(p)
    P = exact.random_invertible(random.Random(7), p, 6)
    K = exact.change_basis(p, tab, P)
    iso = exact.invert(p, P)  # coordinates in x -> coordinates in y
    assert exact.is_isomorphism(p, iso, tab, K)
    assert exact.is_isomorphism(p, P, K, tab)
    for r in range(6):
        bad = [row[:] for row in iso]
        bad[r][5] = exact.norm(p, bad[r][5] + 1)
        assert not exact.is_isomorphism(p, bad, tab, K), (r, 5)


def test_checker_rejects_singular_and_misshapen():
    tab = table(None)
    ident = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    assert exact.is_isomorphism(None, ident, tab, tab)
    singular = [row[:] for row in ident]
    singular[5][5] = Fraction(0)
    assert not exact.is_isomorphism(None, singular, tab, tab)
    assert not exact.is_isomorphism(None, ident[:5], tab, tab)


def test_text_round_trip():
    tab = table(5)
    P = exact.random_invertible(random.Random(3), 5, 6)
    K = exact.change_basis(5, tab, P)
    p, dim, back = exact.parse_algebra(exact.format_algebra(5, 6, K))
    assert (p, dim, back) == (5, 6, K)
