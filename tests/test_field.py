from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nilcat.errors import (
    BothZero,
    Char2Field,
    DivisionByZero,
    MixedFields,
    NilcatError,
    NotAPrime,
    ZeroArgument,
)
from nilcat.field import (
    PRIME_BOUND,
    FieldCtx,
    factorize,
    is_prime,
    is_square,
    parse_field,
    prime_field,
    rationals,
    same_square_class,
    sqrt,
    square_class_rep,
    squarefree_part,
    two_by_two_with_det,
)

Q = rationals()
F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)


def test_rational_arithmetic_exact():
    assert Q.el("1/2") + Q.el("1/3") == Q.el("5/6")
    assert (Q.el("2/3") * Q.el("9/4")).v == Fraction(3, 2)
    assert Q.el(7) / Q.el(-2) == Q.el("-7/2")


def test_prime_field_arithmetic():
    assert F7.el(3).inv() == F7.el(5)
    assert F5.el(4) * F5.el(4) == F5.el(1)
    assert F5.el(2) - F5.el(4) == F5.el(3)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Q.el(1) / Q.el(0)
    with pytest.raises(DivisionByZero):
        F5.el(0).inv()


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        F5.el(1) + F7.el(1)
    with pytest.raises(MixedFields):
        Q.el(1) * F3.el(1)


def test_char2_and_nonprime_rejected():
    with pytest.raises(Char2Field):
        prime_field(2)
    with pytest.raises(NotAPrime):
        prime_field(9)
    assert F7.characteristic == 7
    assert Q.characteristic == 0


def test_field_spec_parsing():
    assert parse_field("Q") == Q
    assert parse_field("GF(11)") == prime_field(11)
    with pytest.raises(NotAPrime):
        parse_field("GF(4)")
    with pytest.raises(NotAPrime, match=r"cannot parse field spec 'GF\(x\)'"):
        parse_field("GF(x)")
    for F in (Q, F7):
        for lit in ("abc", "1/0", "1/", "2/x"):
            with pytest.raises(NilcatError, match=f"cannot parse literal '{lit}'"):
                F.el(lit)


def test_literal_round_trip():
    for s in ["-3/4", "7", "0", "22/7"]:
        assert Q.el(s).literal() == str(Fraction(s))
    assert F7.el("-1").v == 6


def test_square_class_reps_rationals():
    assert square_class_rep(Q.el(-4)) == Q.el(-1)
    assert square_class_rep(Q.el(18)) == Q.el(2)
    assert square_class_rep(Q.el("8/9")) == Q.el(2)
    assert square_class_rep(Q.el("-1/2")) == Q.el(-2)
    with pytest.raises(ZeroArgument):
        square_class_rep(Q.el(0))


def test_square_class_rep_f7_smallest_nonresidue():
    # squares mod 7 computed by enumeration
    squares = {pow(a, 2, 7) for a in range(1, 7)}
    assert squares == {1, 2, 4}
    assert square_class_rep(F7.el(5)) == F7.el(3)
    assert square_class_rep(F7.el(2)) == F7.el(1)


def test_same_square_class():
    assert same_square_class(F5.el(1), F5.el(4))
    assert not same_square_class(Q.el(2), Q.el(3))
    assert not same_square_class(F3.el(1), F3.el(2))


def test_prime_field_two_classes():
    for F in (F3, F5, F7):
        reps = {square_class_rep(x).v for x in F.elements() if x.v}
        assert len(reps) == 2


def test_sqrt():
    assert sqrt(Q.el("9/4")) == Q.el("3/2")
    for F in (F3, F5, F7):
        for x in F.elements():
            if is_square(x):
                r = sqrt(x)
                assert r * r == x
    with pytest.raises(ZeroArgument):
        sqrt(Q.el(2))


def test_squarefree_part_values():
    assert squarefree_part(360) == 10
    assert squarefree_part(-49) == -1
    assert squarefree_part(1) == 1
    # large composite exercising the rho fallback
    n = (10**9 + 7) ** 2 * 13
    assert squarefree_part(n) == 13


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_field_axioms(a, b, c):
    x, y, z = Q.el(a), Q.el(b), Q.el(c)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == Q.el(0)
    if y.v:
        assert (x / y) * y == x


@given(st.integers(), st.integers(), st.integers())
def test_f7_field_axioms(a, b, c):
    x, y, z = F7.el(a), F7.el(b), F7.el(c)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if y.v:
        assert y * y.inv() == F7.el(1)


# factor-based operations get bounded inputs: factoring huge random
# numerators is not the point of these properties
_small_fractions = st.fractions(
    min_value=-300, max_value=300, max_denominator=120
).filter(lambda f: f != 0)


@given(_small_fractions)
def test_square_class_rep_idempotent(a):
    r = square_class_rep(Q.el(a))
    assert square_class_rep(r) == r


@given(_small_fractions, _small_fractions)
def test_square_class_scaling_invariance(a, alpha):
    assert square_class_rep(Q.el(a * alpha * alpha)) == square_class_rep(Q.el(a))


def test_two_by_two_with_det_examples():
    one = Q.el(1)
    (a, b), (c, d) = two_by_two_with_det(Q.el(0), Q.el(2), one)
    assert (a, b, c, d) == (Q.el(-2), Q.el("1/2"), Q.el(-2), Q.el(0))
    assert a * d - b * c == one
    M = two_by_two_with_det(Q.el(1), Q.el(0), one)
    assert M == ((Q.el(1), Q.el(0)), (Q.el(0), Q.el(1)))
    (a, b), (c, d) = two_by_two_with_det(Q.el(5), Q.el(0), Q.el(2))
    assert (a, b, c, d) == (Q.el("1/5"), Q.el(0), Q.el(0), Q.el(10))


@given(st.fractions(), st.fractions(), st.fractions().filter(lambda f: f != 0))
def test_two_by_two_with_det_property(x, y, det):
    if x == 0 and y == 0:
        with pytest.raises(BothZero):
            two_by_two_with_det(Q.el(x), Q.el(y), Q.el(det))
        return
    (a, b), (c, d) = two_by_two_with_det(Q.el(x), Q.el(y), Q.el(det))
    assert a * d - b * c == Q.el(det)
    assert a * Q.el(x) + b * Q.el(y) == Q.el(1)
    assert c * Q.el(x) + d * Q.el(y) == Q.el(0)


def test_strong_pseudoprime_psi12_is_composite():
    # the least strong pseudoprime to the prime bases 2..37
    psi12 = 318665857834031151167461
    assert not is_prime(psi12)
    assert factorize(psi12) == {399165290221: 1, 798330580441: 1}
    with pytest.raises(NotAPrime):
        prime_field(psi12)


def test_factorize_refuses_uncertified_cofactor():
    # psi13 = 1287836182261 * 2575672364521 passes every base of is_prime
    with pytest.raises(NilcatError, match=str(PRIME_BOUND)):
        factorize(PRIME_BOUND)
    with pytest.raises(NilcatError):
        square_class_rep(Q.el(PRIME_BOUND))


def test_prime_field_refuses_p_beyond_certified_bound():
    below = PRIME_BOUND - 168  # the largest prime under the bound
    assert prime_field(below).p == below
    with pytest.raises(NotAPrime):
        prime_field(PRIME_BOUND)
    with pytest.raises(NotAPrime):
        FieldCtx(2**89 - 1)  # a Mersenne prime above the bound
