from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wittkit.errors import GroupMismatchError
from wittkit.values import (Lex, Rat, Zp1, gamma_from_fraction,
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
    assert not a < a and not b < a


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


# -- the int-pair representation against a Fraction oracle -------------------


def scalar_pairs(cls, p):
    """(element, the equal Fraction); small ranges make equal draws common."""
    if cls is Zp1:
        dens = st.integers(0, 2).map(lambda e: p ** e)
    else:
        dens = st.integers(1, 12)
    return st.builds(lambda n, d: (cls(Fraction(n, d), p), Fraction(n, d)),
                     st.integers(-6, 6), dens)


def lex_pairs(p):
    return st.builds(lambda hi, lo: (Lex(hi[0], lo[0]), (hi[1], lo[1])),
                     scalar_pairs(Zp1, p), scalar_pairs(Zp1, p))


def frac_json(f):
    return {"num": f.numerator, "den": f.denominator}


def check_scalar(x, f):
    """x carries f as its reduced pair, and prints and serialises as f."""
    assert (x.num, x.den) == (f.numerator, f.denominator)
    assert x.value == f and type(x.value) is Fraction
    assert x.to_json() == frac_json(f)
    assert repr(x) == f"{x.variant}({f})"


def check_lex(x, f):
    check_scalar(x.hi, f[0])
    check_scalar(x.lo, f[1])
    assert x.to_json() == {"hi": frac_json(f[0]), "lo": frac_json(f[1])}
    assert repr(x) == f"Lex({f[0]},{f[1]})"
    assert x.as_fractions() == f


def check_order(x, y, fx, fy):
    assert (x < y) == (fx < fy) and (x <= y) == (fx <= fy)
    assert (x > y) == (fx > fy) and (x >= y) == (fx >= fy)
    assert (x == y) == (fx == fy) and (x != y) == (fx != fy)
    if x == y:
        assert hash(x) == hash(y)


SCALAR_GROUPS = [(Zp1, 2), (Zp1, 3), (Zp1, 5), (Rat, 2), (Rat, 3)]


@pytest.mark.parametrize("cls,p", SCALAR_GROUPS)
@given(data=st.data())
def test_scalar_ops_equal_fraction_oracle(cls, p, data):
    (x, fx), (y, fy) = data.draw(scalar_pairs(cls, p)), data.draw(scalar_pairs(cls, p))
    e = data.draw(st.integers(-3, 3))
    for got, want in ((x + y, fx + fy), (x - y, fx - fy), (-x, -fx),
                      (x.scale_p(e), fx * Fraction(p) ** e)):
        assert type(got) is cls and got.p == p
        check_scalar(got, want)
    check_scalar(x, fx)
    check_order(x, y, fx, fy)
    # an equal value built another way is equal and hashes equally
    again = cls(Fraction(2 * fx.numerator, 2 * fx.denominator), p)
    assert again == x and hash(again) == hash(x) and hash(x + y - y) == hash(x)


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_lex_ops_equal_fraction_oracle(p, data):
    (x, fx), (y, fy) = data.draw(lex_pairs(p)), data.draw(lex_pairs(p))
    e = data.draw(st.integers(-3, 3))
    scale = Fraction(p) ** e
    for got, want in ((x + y, (fx[0] + fy[0], fx[1] + fy[1])),
                      (x - y, (fx[0] - fy[0], fx[1] - fy[1])),
                      (-x, (-fx[0], -fx[1])),
                      (x.scale_p(e), (fx[0] * scale, fx[1] * scale))):
        assert type(got) is Lex
        check_lex(got, want)
    check_lex(x, fx)
    check_order(x, y, fx, fy)
    again = lex(fx[0], fx[1], p)
    assert again == x and hash(again) == hash(x)


@pytest.mark.parametrize("variant,p", [("Zp1", 3), ("Rat", 2), ("Lex", 5)])
@given(n=st.integers(-9, 9), e=st.integers(0, 2), k=st.integers(0, 9))
def test_gamma_scale_int_equals_fraction_oracle(variant, p, n, e, k):
    q = Fraction(n, p ** e)
    got = gamma_scale_int(gamma_from_fraction(q, variant, p), k)
    assert got == gamma_from_fraction(k * q, variant, p)
    assert type(got) is type(gamma_zero(variant, p))
    with pytest.raises(ValueError, match="nonnegative"):
        gamma_scale_int(got, -1)


def test_every_zp1_construction_path_checks_the_denominator():
    for make in (lambda: Zp1(Fraction(1, 3), 2),
                 lambda: Zp1("5/6", 3),
                 lambda: Zp1.from_fraction(Fraction(1, 10), 5),
                 lambda: Zp1.from_json({"num": 1, "den": 6}, 2),
                 lambda: gamma_from_json({"hi": {"num": 0, "den": 1},
                                          "lo": {"num": 1, "den": 3}}, "Lex", 2),
                 lambda: Lex(Zp1(0, 2), Zp1(Fraction(1, 7), 2)),
                 lambda: Zp1._of(1, 3, 2),
                 lambda: Zp1._of(1, 6, 3),
                 lambda: Zp1._of(1, -2, 2),
                 lambda: Zp1._of(1, 0, 5)):
        with pytest.raises(ValueError, match="is not in Z"):
            make()
    # the private constructor builds arithmetic results, of Rat too
    assert Rat._of(1, 3, 2).value == Fraction(1, 3)
    assert Zp1._of(-3, 4, 2) == Zp1(Fraction(-3, 4), 2)


def test_values_are_immutable_and_value_is_derived():
    x = Zp1(Fraction(3, 4), 2)
    for field in ("num", "den", "p", "value"):
        with pytest.raises(AttributeError):
            setattr(x, field, 1)
    assert (x.num, x.den, x.p) == (3, 4, 2)


def test_operators_do_no_fraction_arithmetic(monkeypatch):
    import wittkit.values as values
    x, y = Zp1(Fraction(3, 4), 2), Zp1(Fraction(-1, 8), 2)
    a, b = lex(1, Fraction(1, 2), 2), lex(1, -3, 2)

    def no_fraction(*args):
        raise AssertionError("Fraction used by an operator")

    monkeypatch.setattr(values, "Fraction", no_fraction)
    _ = (x + y, x - y, -x, x < y, x <= y, x == y, hash(x), x.scale_p(-2),
         x.scale_p(3), x.sign(), x.is_zero(), x.to_json(), repr(x),
         gamma_scale_int(x, 4), a + b, a - b, -a, a < b, a >= b, hash(a),
         a.scale_p(1), repr(a), a.to_json(), gamma_scale_int(a, 3))
