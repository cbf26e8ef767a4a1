from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wittkit.errors import GroupMismatchError
from wittkit.values import (Lex, Rat, Zp1, gamma_cmp, gamma_from_fraction,
                            gamma_from_json, gamma_scale_int, gamma_zero,
                            in_value_group, lex)


def zp1s(p=2):
    return st.builds(
        lambda n, e: Zp1(Fraction(n, p ** e), p),
        st.integers(-40, 40), st.integers(0, 5))


def test_in_value_group():
    assert in_value_group(Fraction(3, 8), 2)
    assert not in_value_group(Fraction(1, 3), 2)
    assert in_value_group(Fraction(5), 7)
    assert not in_value_group(Fraction(4, 3), 2)


def test_zp1_rejects_bad_denominator():
    for make in (lambda: Zp1(Fraction(1, 3), 2),
                 lambda: Zp1(Fraction(1, 6), 3),
                 lambda: gamma_from_fraction(Fraction(1, 3), "Zp1", 2),
                 lambda: gamma_from_json({"num": 1, "den": 3}, "Zp1", 2),
                 lambda: lex(0, Fraction(1, 3), 2)):
        with pytest.raises(ValueError, match="is not in Z"):
            make()


def test_rat_allows_any_denominator():
    assert Rat(Fraction(1, 3), 2).value == Fraction(1, 3)


@given(zp1s(), zp1s())
def test_zp1_group_laws(x, y):
    assert (x + y) - y == x
    assert x + (-x) == Zp1(0, 2)
    assert (x + y) == (y + x)


@given(zp1s(), st.integers(-3, 3))
def test_scale_p_invertible(x, e):
    assert x.scale_p(e).scale_p(-e) == x


def test_lex_order_is_lexicographic():
    a = lex(1, 100, 2)
    b = lex(2, -100, 2)
    assert a < b
    assert lex(1, 0, 2) < lex(1, 1, 2)
    assert gamma_cmp(a, a) == 0


def test_lex_sign_and_zero():
    assert lex(0, -3, 2).sign() == -1
    assert lex(0, 0, 2).is_zero()
    assert lex(-1, 5, 2).sign() == -1


def test_mixing_variants_raises():
    # Zp1 subclasses Rat, but the two never combine, in either order
    for op in (lambda: Zp1(1, 2) + Zp1(1, 3),
               lambda: Rat(1, 2) + Zp1(1, 2),
               lambda: Zp1(1, 2) + Rat(1, 2),
               lambda: Rat(1, 2) - Zp1(1, 2),
               lambda: Zp1(1, 2) - Rat(1, 2),
               lambda: Rat(1, 2) < Zp1(2, 2),
               lambda: Zp1(1, 2) < Rat(2, 2),
               lambda: Zp1(1, 2) >= Rat(2, 2),
               lambda: lex(1, 0, 2) + Zp1(1, 2)):
        with pytest.raises(GroupMismatchError):
            op()


def test_zp1_and_rat_are_distinct_groups():
    assert isinstance(Zp1(1, 2), Rat)
    assert Zp1(1, 2) != Rat(1, 2) and Rat(1, 2) != Zp1(1, 2)
    assert Zp1(1, 2) == Zp1(Fraction(1), 2)


@pytest.mark.parametrize("cls", [Zp1, Rat])
def test_ops_keep_the_class(cls):
    x, y = cls(Fraction(3, 4), 2), cls(Fraction(1, 2), 2)
    outs = [x + y, x - y, -x, x.scale_p(-2), x.scale_p(3), gamma_scale_int(x, 3),
            gamma_zero(cls.variant, 2), gamma_from_fraction(5, cls.variant, 2),
            gamma_from_json(x.to_json(), cls.variant, 2)]
    assert all(type(out) is cls for out in outs)
    assert repr(x) == f"{cls.variant}(3/4)"


def test_each_group_class_defines_its_own_post_init():
    # per-class construction counters wrap __post_init__ in each class's own
    # __dict__; a Zp1 that reached Rat's would be counted twice
    for cls in (Zp1, Rat, Lex):
        assert "__post_init__" in vars(cls)


@pytest.mark.parametrize("obj", [5, None, {"num": 1}, {"num": 1, "den": 0},
                                 {"num": "1", "den": 2}, {"num": 1.5, "den": 2}],
                         ids=["int", "null", "no-den", "zero-den", "str-num", "float-num"])
def test_gamma_from_json_rejects_malformed(obj):
    with pytest.raises(ValueError, match="expected"):
        gamma_from_json(obj, "Rat", 2)
    with pytest.raises(ValueError, match="expected"):
        gamma_from_json({"hi": obj, "lo": {"num": 0, "den": 1}}, "Lex", 2)


def test_unknown_variant_raises():
    with pytest.raises(ValueError, match="unknown variant"):
        gamma_from_fraction(1, "Zp2", 2)
    with pytest.raises(ValueError, match="unknown variant"):
        gamma_from_json({"num": 1, "den": 1}, ["Zp1"], 2)


def test_gamma_scale_int():
    x = Zp1(Fraction(3, 4), 2)
    assert gamma_scale_int(x, 4) == Zp1(3, 2)
    assert gamma_scale_int(x, 0) == gamma_zero("Zp1", 2)


@pytest.mark.parametrize("variant", ["Zp1", "Rat", "Lex"])
def test_json_round_trip(variant):
    x = gamma_from_fraction(Fraction(5, 4), variant, 2)
    assert gamma_from_json(x.to_json(), variant, 2) == x


def test_as_fractions_shapes():
    assert gamma_from_fraction(1, "Zp1", 2).as_fractions() == (Fraction(1),)
    assert lex(1, 2, 2).as_fractions() == (Fraction(1), Fraction(2))
