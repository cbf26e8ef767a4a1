from collections import Counter
from fractions import Fraction
import itertools
import random

import pytest

from wittkit import witt, wittpoly
from wittkit.errors import (GroupMismatchError, PrecisionError, TableCapError,
                            ZeroSeriesError)
from wittkit.hahn import HahnSeries, Keys
from wittkit.values import Lex, Rat, Zp1, gamma_from_fraction, lex
from wittkit.witt import (WittVec, divide_exact_teichmuller, mul_teichmuller,
                          ring_membership, teichmuller, witt_add,
                          witt_divide_with_precision, witt_equal_at_precision,
                          witt_from_json, witt_mul, witt_neg, witt_sub,
                          witt_unit_inverse)
from wittkit.wittpoly import table_level_cap

from conftest import fields_of, rand_witt, within_seconds
import digit_oracle
from ghost_oracle import oracle_add, oracle_mul, oracle_neg
from test_wittpoly import (const_witt, coords_of, naive_law, rand_coord,
                           reference_tables)


def tpow(q, p=2):
    return HahnSeries.t_pow(p, Zp1(Fraction(q), p))


def test_ring_axioms_random(rng):
    for _ in range(60):
        a = rand_witt(rng)
        b = rand_witt(rng)
        c = rand_witt(rng)
        assert witt_equal_at_precision(witt_add(a, b), witt_add(b, a))
        assert witt_equal_at_precision(witt_mul(a, b), witt_mul(b, a))
        assert witt_equal_at_precision(
            witt_add(witt_add(a, b), c),
            witt_add(a, witt_add(b, c)))
        assert witt_equal_at_precision(
            witt_mul(witt_mul(a, b), c),
            witt_mul(a, witt_mul(b, c)))
        assert witt_equal_at_precision(
            witt_mul(a, witt_add(b, c)),
            witt_add(witt_mul(a, b), witt_mul(a, c)))
        assert witt_sub(a, a).is_zero()


def test_teichmuller_multiplicativity(rng):
    for _ in range(60):
        a = rand_witt(rng)
        c = tpow(Fraction(rng.randint(-6, 6), 2 ** rng.randint(0, 2)))
        via_table = witt_mul(a, teichmuller(c, len(a.coords)))
        direct = mul_teichmuller(a, c)
        assert witt_equal_at_precision(via_table, direct)


def test_pshift_is_p_multiplication():
    a = teichmuller(tpow(1), 3)
    p_elt = WittVec.p_power(2, "Zp1", 1, 3)
    assert witt_equal_at_precision(witt_mul(a, p_elt), a.pshift(1))


def test_negative_p_min_localization():
    a = teichmuller(tpow(1), 3).pshift(-2)
    assert a.prec_n == 1
    assert a.coord(-2) == tpow(1)
    assert a.coord(-5).is_zero()


def test_divide_exact_teichmuller_monomial():
    h = WittVec(2, "Zp1", 0, (tpow(2), tpow(Fraction(3, 2))))
    q = divide_exact_teichmuller(h, tpow(Fraction(1, 2)))
    assert q.coords[0] == tpow(Fraction(3, 2))
    assert q.coords[1] == tpow(1)


def test_divide_exact_teichmuller_by_non_monomial_caps_the_quotient():
    h = WittVec(2, "Zp1", 0, (tpow(1), tpow(3)))
    c = tpow(0) + tpow(1)  # 1 + t
    q = divide_exact_teichmuller(h, c)
    # all exact: relative target 3 + 4 * (3 - 0) - v(c) = 15 for the inverse
    assert [x.prec for x in q.coords] == [Zp1(16, 2), Zp1(18, 2)]
    back = mul_teichmuller(q, c)
    for got, want in zip(back.coords, h.coords):
        assert got.prec is not None and (got - want).is_zero()


def test_divide_by_infinitesimal_lex_tail_raises_promptly():
    one = lex(0, 0, 2)
    h = teichmuller(HahnSeries(2, "Lex", ((one, 1),), lex(1, 0, 2)), 1)
    c = HahnSeries(2, "Lex", ((one, 1), (lex(0, 1, 2), 1)))
    with within_seconds(1), pytest.raises(PrecisionError, match="reaches"):
        divide_exact_teichmuller(h, c)


def test_witt_equal_at_precision_compares_the_common_window():
    a = WittVec(2, "Zp1", 0, (tpow(1), tpow(2), tpow(0)))
    assert witt_equal_at_precision(a, WittVec(2, "Zp1", 0, a.coords[:2]))
    assert witt_equal_at_precision(a.pshift(1), WittVec(2, "Zp1", 0, (
        HahnSeries.zero(2, "Zp1"),) + a.coords[:2]))
    assert not witt_equal_at_precision(a, WittVec(2, "Zp1", 0, (tpow(1), tpow(3))))


def test_witt_divide_recovers_quotient():
    g = WittVec(2, "Zp1", 0, (tpow(1), tpow(Fraction(1, 2)), tpow(0), tpow(0)))
    q = WittVec(2, "Zp1", 0, (tpow(2), tpow(0), tpow(1), tpow(0)))
    h = witt_mul(g, q)
    got = witt_divide_with_precision(h, g)
    assert witt_equal_at_precision(got, q)


def test_witt_divide_by_p_power():
    h = teichmuller(tpow(1), 4).pshift(2)
    g = WittVec.p_power(2, "Zp1", 2, 4)
    q = witt_divide_with_precision(h, g)
    assert q.normalized().p_min == 0
    assert q.normalized().coords[0] == tpow(1)


def test_witt_divide_zero_divisor_raises():
    h = teichmuller(tpow(1), 3)
    with pytest.raises(ZeroSeriesError):
        witt_divide_with_precision(h, WittVec.zero(2, "Zp1", 3))


@pytest.mark.parametrize("op", [witt_add, witt_sub])
def test_operands_without_a_common_window_or_field_raise(op):
    g = teichmuller(tpow(1), 3)
    with pytest.raises(PrecisionError,
                       match="no common p-adic precision after alignment"):
        op(WittVec(2, "Zp1", 0, ()), g)
    with pytest.raises(GroupMismatchError, match="different base fields"):
        op(g, teichmuller(HahnSeries.t_pow(3, Zp1(1, 3)), 3))


@pytest.mark.parametrize("call,error,message", [
    (lambda: WittVec(2, "Zp1", 0, (tpow(1, 3),)), GroupMismatchError,
     "coordinate field mismatch"),
    (lambda: teichmuller(tpow(1), 3).coord(3), PrecisionError,
     "level 3 beyond precision 3"),
    (lambda: witt_mul(teichmuller(tpow(1), 3), teichmuller(tpow(1, 3), 3)),
     GroupMismatchError, "different base fields"),
    (lambda: ring_membership(teichmuller(tpow(1), 3), "B"), ValueError,
     "unknown ring tag"),
    # the result is built unchecked: each coordinate product checks c
    (lambda: mul_teichmuller(teichmuller(tpow(1), 3), tpow(1, 3)),
     GroupMismatchError, r"cannot combine series over \(p=2,Zp1\) and \(p=3,Zp1\)"),
    (lambda: mul_teichmuller(teichmuller(tpow(1), 3),
                             HahnSeries.t_pow(2, lex(1, 0, 2))),
     GroupMismatchError, r"cannot combine series over \(p=2,Zp1\) and \(p=2,Lex\)"),
], ids=["coordinate-field", "coord-past-precision", "mul-fields",
        "membership-tag", "teichmuller-prime", "teichmuller-group"])
def test_witt_input_guards_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_exact_division_of_an_empty_vector_has_no_levels():
    # g is exact with a monomial leading coordinate: the one-pass branch
    with pytest.raises(PrecisionError, match="no quotient levels"):
        witt_divide_with_precision(WittVec(2, "Zp1", 0, ()),
                                   teichmuller(tpow(1), 3))


def rand_unit(rng, p, group, n, capped):
    """A unit of W(K)[1/p]: p-pole at most 1, nonzero leading coordinate;
    coordinates are monomials or binomials, exact or capped 3 above their
    valuation."""
    def gamma(hi, lo=0):
        return Zp1(Fraction(hi), p) if group == "Zp1" else lex(hi, lo, p)

    def coord(lead):
        if not lead and rng.random() < 0.3:
            return HahnSeries.zero(p, group)
        g = gamma(Fraction(rng.randint(-3, 3), p ** rng.randint(0, 1)),
                  rng.randint(-2, 2))
        terms = [(g, rng.randrange(1, p))]
        if rng.random() < 0.5:
            terms.append((g + gamma(1), rng.randrange(1, p)))
        return HahnSeries(p, group, tuple(terms), g + gamma(3) if capped else None)

    return WittVec(p, group, rng.randint(-1, 1),
                   tuple(coord(i == 0) for i in range(n)))


def test_unit_inverse_round_trip(rng):
    u = WittVec(2, "Zp1", 0, (tpow(0), tpow(1), tpow(Fraction(1, 2)), tpow(0)))
    inv = witt_unit_inverse(u)
    prod = witt_mul(u, inv)
    assert witt_equal_at_precision(prod, WittVec.one(2, "Zp1", prod.prec_n - prod.p_min))
    for p, n in ((2, 4), (3, 3)):
        for group in ("Zp1", "Lex"):
            for capped in (False, True):
                for _ in range(6):
                    u = rand_unit(rng, p, group, n, capped)
                    inv = witt_unit_inverse(u)
                    assert inv.p_min == -u.p_min and len(inv.coords) == n
                    prod = witt_mul(u, inv)
                    assert witt_equal_at_precision(prod, WittVec.one(p, group, n)), u
    # every unit of W(F_p) at length n: Teichmuller and Witt coordinates
    # agree there, so the ghost oracle checks the product
    for p, n in ((2, 4), (3, 3), (5, 2)):
        for xs in itertools.product(range(1, p), *[range(p)] * (n - 1)):
            inv = witt_unit_inverse(const_witt(xs, p))
            assert inv.p_min == 0
            assert oracle_mul(xs, coords_of(inv, p), p) == (1,) + (0,) * (n - 1), xs


def test_unit_inverse_of_non_monomial_exact_lead():
    # The dividend 1 of 1 / u puts exponent 0 among the references of the
    # leading inverse: its target is 3 + 4 * (3 - 0) - v(t + t^2) = 14, so
    # it is known modulo t^(14 - 1).  From u's coordinates alone (exponents
    # 1..3) it would be known modulo t^(3 + 4 * 2 - 1 - 1) = t^9.
    zero = HahnSeries.zero(2, "Zp1")
    u = WittVec(2, "Zp1", 0, (tpow(1) + tpow(2), tpow(3), zero))
    inv = witt_unit_inverse(u)
    assert inv.coords[0].prec == Zp1(13, 2)
    assert inv.coords[0].terms == tuple((Zp1(k, 2), 1) for k in range(-1, 13))
    assert witt_equal_at_precision(witt_mul(u, inv), WittVec.one(2, "Zp1", 3))


def test_unit_inverse_with_p_pole():
    u = teichmuller(tpow(3), 3).pshift(2)
    inv = witt_unit_inverse(u)
    assert inv.p_min == -2
    assert inv.coords[0] == tpow(-3)


# -- division: the last subtraction, which nothing reads, is skipped ------


def divide_subtracting_every_level(h, g):
    """Level-by-level division that subtracts on every level, read or not,
    with its subtractions counted: the oracle for the quotients."""
    gn = g.normalized()
    g0_inv = gn.coords[0].invert(refs=h.coords + gn.coords)
    mh, mg = h.p_min, gn.p_min
    mq = mh - mg
    rem, subs = h, 0
    q_coords = []
    for j in range(len(h.coords)):
        level = mh + j
        if rem.prec_n <= level:
            break
        qj = rem.coord(level) * g0_inv
        q_coords.append(qj)
        if qj.is_zero() and qj.is_exact():
            continue
        term = mul_teichmuller(gn, qj).pshift(mq + j)
        rem = witt_sub(rem, term)
        subs += 1
    return WittVec(h.p, h.group, mq, tuple(q_coords)), subs


def count_subs(monkeypatch):
    """The window length of every subtraction ``witt._law`` is asked for."""
    calls = []
    real = witt._law

    def counting(law, p, group, xs, ys):
        if law == "sub":
            calls.append(len(xs))
        return real(law, p, group, xs, ys)

    monkeypatch.setattr(witt, "_law", counting)
    return calls


def capped_const_witt(xs, p, cap=5):
    """sum p^n [x_n] with F_p-constant coordinates, each known mod t^cap."""
    return WittVec(p, "Zp1", 0, tuple(
        HahnSeries(p, "Zp1", c.terms, Zp1(cap, p))
        for c in const_witt(xs, p).coords))


@pytest.mark.parametrize("p,xs", [(2, (1,)), (2, (1, 1, 1, 1)),
                                  (3, (1, 1, 2)), (5, (1, 1, 2))])
def test_unit_inverse_subtracts_once_per_read_level(monkeypatch, p, xs):
    # capped units, so the level loop runs, and whose inverse has no zero
    # coordinate, so every level subtracts
    n = len(xs)
    u = capped_const_witt(xs, p)
    one = WittVec.one(p, "Zp1", n)
    want, reference_subs = divide_subtracting_every_level(one, u)
    assert all(not c.is_zero() for c in want.coords)
    calls = count_subs(monkeypatch)
    got = witt_unit_inverse(u)
    assert (got.p_min, got.coords) == (want.p_min, want.coords)
    assert reference_subs == n and len(calls) == n - 1


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("group", ["Zp1", "Lex"])
def test_exact_division_is_one_pass(monkeypatch, p, group):
    # exact operands and a monomial leading divisor coordinate: the quotient
    # of the level loop, in p_min, coordinates and window, with no
    # subtraction; h with leading zero coordinates, one-coordinate divisors
    # and divisors with leading zero coordinates (a p-power factor) included
    rng = random.Random(31 * p + len(group))
    calls = count_subs(monkeypatch)
    for case in range(16):
        h = oracle_vec(rng, p, group, rng.randint(1, 4))
        if case % 4 == 0:  # one or two leading zero coordinates
            zeros = (HahnSeries.zero(p, group),) * rng.randint(1, 2)
            h = WittVec(p, group, h.p_min, zeros + h.coords)
        g = monomial_lead(oracle_vec(
            rng, p, group, 1 if case % 4 == 1 else rng.randint(1, 4), lead=True))
        if case % 4 == 2:
            zeros = (HahnSeries.zero(p, group),) * rng.randint(1, 2)
            g = WittVec(p, group, g.p_min, zeros + g.coords)
        one = WittVec.one(p, group, len(g.coords))
        for num, divide in ((h, lambda: witt_divide_with_precision(h, g)),
                            (one, lambda: witt_unit_inverse(g))):
            want, _ = divide_subtracting_every_level(num, g)
            del calls[:]
            got = divide()
            assert (got.p_min, got.coords) == (want.p_min, want.coords), (num, g)
            assert calls == []


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("group", ["Zp1", "Lex"])
def test_division_quotients_equal_the_reference_loop(monkeypatch, p, group):
    rng = random.Random(7 * p + len(group))
    calls = count_subs(monkeypatch)
    fewer = 0
    for _ in range(12):
        h = rand_unit(rng, p, group, rng.randint(1, 4), rng.random() < 0.5)
        g = rand_unit(rng, p, group, rng.randint(1, 4), rng.random() < 0.5)
        try:
            want, reference_subs = divide_subtracting_every_level(h, g)
            if not want.coords:
                raise PrecisionError("no quotient levels")
        except PrecisionError:
            with pytest.raises(PrecisionError):
                witt_divide_with_precision(h, g)
            continue
        del calls[:]
        got = witt_divide_with_precision(h, g)
        assert (got.p_min, got.coords) == (want.p_min, want.coords), (h, g)
        assert len(calls) <= reference_subs
        fewer += len(calls) < reference_subs
    assert fewer


def reference_divide(h, g):
    """The level loop at full length: level j subtracts
    p^(mq + j) [q_j] g from the whole remainder, skipping only the
    subtraction no later level reads."""
    gn = g if g.coords and g.coords[0].terms else g.normalized()
    if not gn.coords:
        raise ZeroSeriesError("division by zero Witt vector")
    g0_inv = gn.coords[0].invert(refs=h.coords + gn.coords)
    mh, mg = h.p_min, gn.p_min
    mq = mh - mg
    rem = h
    q_coords = []
    for j in range(len(h.coords)):
        level = mh + j
        if rem.prec_n <= level:
            break
        qj = rem.coord(level) * g0_inv
        q_coords.append(qj)
        if qj.is_zero() and qj.is_exact():
            continue
        term = mul_teichmuller(gn, qj).pshift(mq + j)
        if min(rem.prec_n, term.prec_n) <= level + 1:
            break
        rem = witt_sub(rem, term)
    if not q_coords:
        raise PrecisionError("no quotient levels computable at this precision")
    return WittVec(h.p, h.group, mq, tuple(q_coords))


def division_outcome(divide, h, g):
    try:
        q = divide(h, g)
    except (PrecisionError, ZeroSeriesError) as e:
        return type(e), str(e)
    return q.p_min, q.coords


def capped_division_cases(rng, p, group):
    """(h, g) with a capped coordinate, p_min -2..2, h shorter and longer
    than g, and divisors led by an exact or a capped zero."""
    top = {2: 4, 3: 3, 5: 3}[p]
    for case in range(24):
        h = rand_unit(rng, p, group, rng.randint(1, top), True)
        g = rand_unit(rng, p, group, rng.randint(1, top), case % 2 == 0)
        h = WittVec(p, group, rng.randint(-2, 2), h.coords)
        g = WittVec(p, group, rng.randint(-2, 2), g.coords)
        if case % 6 == 1:  # a p-power factor
            g = WittVec(p, group, g.p_min,
                        (HahnSeries.zero(p, group),) + g.coords)
        elif case % 6 == 3:  # a lead hidden by its cap
            g = WittVec(p, group, g.p_min, (HahnSeries.zero(
                p, group, g.coords[0].terms[0][0]),) + g.coords)
        yield h, g


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("group", ["Zp1", "Lex"])
def test_windowed_division_matches_the_full_window_loop(p, group):
    rng = random.Random(13 * p + len(group))
    seen = set()
    for h, g in capped_division_cases(rng, p, group):
        want = division_outcome(reference_divide, h, g)
        assert division_outcome(witt_divide_with_precision, h, g) == want, (h, g)
        one = WittVec.one(p, group, len(g.coords))
        assert (division_outcome(lambda _, d: witt_unit_inverse(d), one, g)
                == division_outcome(reference_divide, one, g.normalized())), g
        seen.add((type(want[0]) is int and len(want[1]) > 1,
                  len(h.coords) < len(g.coords), len(h.coords) > len(g.coords)))
    assert {(True, True, False), (True, False, True)} <= seen


def test_capped_division_subtracts_on_the_window_only(monkeypatch):
    # p = 2, length 4: level j subtracts at length 4 - j, by a negation
    # table and an addition table of that length, and the last level
    # subtracts nothing: 2 (4 + 3 + 2) evaluations, where the full window
    # evaluates 2 * 4 per level
    g = capped_const_witt((1, 1, 1, 1), 2)
    one = WittVec.one(2, "Zp1", 4)
    calls = count_evals(monkeypatch)
    want = reference_divide(one, g)
    assert len(calls) == 2 * 4 * 3
    del calls[:]
    got = witt_divide_with_precision(one, g)
    assert (got.p_min, got.coords) == (want.p_min, want.coords)
    assert all(c.terms for c in got.coords) and len(calls) == 2 * (4 + 3 + 2)


def test_discarded_subtraction_no_longer_hits_the_table_cap():
    # One level of quotient by a divisor longer than the table cap: the one
    # subtraction is never read, so no table past the cap is asked for.
    # h's capped coordinate makes the divisor term capped, and a full-length
    # p = 2 negation of that term needs the table past the cap.
    g = const_witt((1,) * (table_level_cap() + 1), 2)
    h0 = HahnSeries(2, "Zp1", tpow(1).terms, Zp1(3, 2))
    h = teichmuller(h0, 1)
    with pytest.raises(TableCapError):
        witt_neg(mul_teichmuller(g, h0))
    q = witt_divide_with_precision(h, g)
    assert (q.p_min, q.coords) == (0, (h0,))


def test_p2_capped_sub_negates_only_the_window():
    # a capped subtraction is the sum with the negated common window: a
    # subtrahend longer than the table cap, against a one-level minuend,
    # negates one level only
    a = teichmuller(HahnSeries(2, "Zp1", tpow(1).terms, Zp1(3, 2)), 1)
    b = WittVec(2, "Zp1", 0, tuple(
        HahnSeries(2, "Zp1", tpow(Fraction(i, 2)).terms, Zp1(5, 2))
        for i in range(table_level_cap() + 1)))
    got = witt_sub(a, b)
    want = witt_add(a, witt_neg(WittVec(2, "Zp1", 0, b.coords[:1])))
    assert (got.p_min, got.coords) == (want.p_min, want.coords)
    assert len(got.coords) == 1


# -- subtraction of an exactly equal element: the exact zero, no table -----


def count_evals(monkeypatch):
    calls = []
    real = wittpoly.eval_poly

    def counting(poly, xs, ys, p, powers):
        calls.append(p)
        return real(poly, xs, ys, p, powers)

    monkeypatch.setattr(wittpoly, "eval_poly", counting)
    return calls


def chain_like_divisor(p, group, length, cap=None):
    """An exact-monomial lead (so its inverse is exact) and binomial tails,
    the tail at level 1 capped at ``cap``."""
    def gamma(hi, lo=0):
        return Zp1(Fraction(hi), p) if group == "Zp1" else lex(hi, lo, p)

    coords = [HahnSeries(p, group, ((gamma(1, -1), 1),))]
    for i in range(1, length):
        terms = ((gamma(Fraction(i, p)), 1), (gamma(i, 1), p - 1))
        coords.append(HahnSeries(p, group, terms,
                                 cap if i == 1 else None))
    return WittVec(p, group, 0, tuple(coords))


@pytest.mark.parametrize("p,length", [(2, 4), (3, 3), (5, 3)])
@pytest.mark.parametrize("group", ["Zp1", "Lex"])
@pytest.mark.parametrize("k", [0, 2])
def test_division_of_a_teichmuller_multiple_reads_no_table(monkeypatch, p,
                                                           length, group, k):
    # h = g * p^k [c], as the chain elements of the witnesses are built
    g = chain_like_divisor(p, group, length)
    c = g.coords[1] * g.coords[0]  # exact, two terms
    h = mul_teichmuller(g, c).pshift(k)
    want, _ = divide_subtracting_every_level(h, g)
    calls = count_evals(monkeypatch)
    got = witt_divide_with_precision(h, g)
    assert (got.p_min, got.coords) == (want.p_min, want.coords)
    assert got.coords[0] == c and all(x.is_zero() and x.is_exact()
                                      for x in got.coords[1:])
    assert calls == []


@pytest.mark.parametrize("p,length", [(2, 4), (3, 3), (5, 2)])
@pytest.mark.parametrize("group", ["Zp1", "Lex"])
def test_capped_divisor_still_evaluates_the_tables(monkeypatch, p, length,
                                                   group):
    # one capped coordinate of g is capped in h and in every term as well,
    # so the subtraction cannot claim an exact zero and takes the table path
    cap = Zp1(5, p) if group == "Zp1" else lex(5, 0, p)
    g = chain_like_divisor(p, group, length, cap)
    c = chain_like_divisor(p, group, 2).coords[1]
    h = mul_teichmuller(g, c).pshift(1)
    want, reference_subs = divide_subtracting_every_level(h, g)
    calls = count_evals(monkeypatch)
    got = witt_divide_with_precision(h, g)
    assert (got.p_min, got.coords) == (want.p_min, want.coords)
    assert reference_subs and calls


def test_exact_self_difference_past_the_table_cap(monkeypatch):
    # exact differences need no table level at any length: a - a is the
    # exact zero on the same window, and a - b the digit oracle's answer;
    # a - b with a capped coordinate still reads a level past the cap and
    # says so
    n = table_level_cap() + 2
    a = WittVec(2, "Zp1", -1, tuple(tpow(Fraction(i, 2)) for i in range(n)))
    b = WittVec(2, "Zp1", -1, a.coords[:-1] + (tpow(7),))
    with monkeypatch.context() as m:
        m.setattr(wittpoly, "eval_poly", no_table)
        diff = witt_sub(a, a)
        assert (diff.p_min, diff.prec_n) == (a.p_min, a.prec_n)
        assert all(c == HahnSeries.zero(2, "Zp1") for c in diff.coords)
        d = witt_sub(a, b)
    assert (d.p_min, d.prec_n) == (a.p_min, a.prec_n)
    assert digit_oracle.digits(d) == digit_oracle.oracle_sub(
        digit_oracle.digits(a), digit_oracle.digits(b), 2)
    capped = WittVec(2, "Zp1", -1, b.coords[:-1] + (
        HahnSeries(2, "Zp1", tpow(7).terms, Zp1(9, 2)),))
    with pytest.raises(TableCapError):
        witt_sub(a, capped)


@pytest.mark.parametrize("coords,p_min,tag,want", [
    (((1,), (2,)), 0, "A", True),
    (((1,), (2,)), -1, "A", False),
    (((-1,), (2,)), 0, "A", False),
    (((-1,), (2,)), 0, "A[1/p]", False),
    (((1,), (2,)), -3, "A[1/p]", True),
    (((-1,), (2,)), -1, "W(K)", False),
    (((-1,), (2,)), 0, "W(K)", True),
    (((-1,), (2,)), -1, "W(K)[1/p]", True),
    (((1,), (2,)), 0, "W(m_K)", True),
    (((0,), (2,)), 0, "W(m_K)", False),
])
def test_ring_membership_certain_cases(coords, p_min, tag, want):
    h = WittVec(2, "Zp1", p_min, tuple(tpow(c[0]) for c in coords))
    assert ring_membership(h, tag) is want


def test_ring_membership_indeterminate_on_caps():
    hidden = HahnSeries.zero(2, "Zp1", Zp1(Fraction(-1), 2))
    h = WittVec(2, "Zp1", -1, (hidden, tpow(1)))
    assert ring_membership(h, "W(K)") is None
    assert ring_membership(h, "A") is None
    assert ring_membership(h, "W(K)[1/p]") is True


def test_membership_ignores_p_power_scaling():
    h = teichmuller(tpow(1), 3)
    assert ring_membership(h, "A") is True
    assert ring_membership(h.pshift(-1), "A") is False
    assert ring_membership(h.pshift(-1), "A[1/p]") is True


def test_lex_group_witt_arithmetic():
    x = teichmuller(HahnSeries.t_pow(2, lex(1, 0, 2)), 3)
    y = teichmuller(HahnSeries.t_pow(2, lex(0, -1, 2)), 3)
    prod = witt_mul(x, y)
    assert prod.coords[0].valuation() == lex(1, -1, 2)


def test_json_round_trip():
    h = WittVec(2, "Zp1", -1, (tpow(Fraction(1, 2)), tpow(0)))
    g = witt_from_json(h.to_json())
    assert witt_equal_at_precision(h, g) and g.p_min == h.p_min


def test_no_common_precision_raises():
    a = teichmuller(tpow(1), 2)
    empty = WittVec(2, "Zp1", 5, ())
    with pytest.raises(PrecisionError):
        witt_mul(a, empty)


# -- negation: coordinatewise for odd p, by the table for p = 2 -------------


def table_neg(a, neg_polys):
    """-a through the negation polynomials ``neg_polys`` (one per level, at
    least len(a.coords) of them), evaluated by ``naive_eval``."""
    zeros = (HahnSeries.zero(a.p, a.group),) * len(a.coords)
    return WittVec(a.p, a.group, a.p_min,
                   naive_law(neg_polys, a.coords, zeros, a.p, a.group))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("group", ["Zp1", "Lex"])
def test_odd_p_negation_equals_the_table(p, group):
    rng = random.Random(100 * p + len(group))
    neg_polys = reference_tables(p, 3)[2]  # the table builds N_n for p = 2 only
    for _ in range(40):
        kinds = ("exact-zero", "capped-zero", "monomial", "few-term")
        a = WittVec(p, group, rng.randint(-1, 1), tuple(
            rand_coord(rng, p, group, rng.choice(kinds))
            for _ in range(rng.randint(1, 3))))
        got, want = witt_neg(a), table_neg(a, neg_polys)
        assert got.p_min == want.p_min == a.p_min
        assert [(c.terms, c.prec) for c in got.coords] == \
            [(c.terms, c.prec) for c in want.coords]


@pytest.mark.parametrize("p,n", [(3, 5), (5, 4)])
def test_odd_p_negation_of_constants_matches_ghost_oracle(p, n):
    """Lengths beyond the tables the arithmetic builds: no table is read."""
    rng = random.Random(p * n)
    vecs = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(30)]
    vecs += [(p - 1,) * n, (1,) + (0,) * (n - 1)]
    for xs in vecs:
        assert coords_of(witt_neg(const_witt(xs, p)), p) == oracle_neg(xs, p)


def test_only_p2_negation_evaluates_polynomials(monkeypatch):
    # capped operands: an exact one computes in B at every p
    calls = count_evals(monkeypatch)
    for p in (2, 3, 5, 7):
        capped = HahnSeries(p, "Zp1", tpow(0, p).terms, Zp1(3, p))
        witt_neg(WittVec(p, "Zp1", 0, (tpow(1, p), tpow(Fraction(1, p), p),
                                       capped)))
    assert calls == [2, 2, 2]


# -- prime-field vectors: W(F_p) = Z_p, computed in Z/p^N ------------------


def fp_digits(v, lo=None):
    """The constants of v at levels lo .. prec_n - 1 (0 below p_min), each
    checked to be an exact constant."""
    lo = v.p_min if lo is None else lo
    out = []
    for level in range(lo, v.prec_n):
        c = v.coord(level)
        assert c.is_exact() and len(c.terms) <= 1, c
        assert all(g.is_zero() for g, _ in c.terms), c
        out.append(c.terms[0][1] if c.terms else 0)
    return tuple(out)


def oracle_sub(xs, ys, p):
    return oracle_add(xs, oracle_neg(ys, p), p)


@pytest.mark.parametrize("p,n", [(2, 10), (3, 7), (5, 5)])
@pytest.mark.parametrize("group", ["Zp1", "Lex", "Rat"])
def test_prime_field_operations_match_ghost_oracle_past_the_cap(
        monkeypatch, p, n, group):
    # p = 2 and 3 reach lengths past the default cap of 6 table levels, and
    # p = 5 a level that no workload builds: the integer path computes them
    # all and evaluates no polynomial
    calls = count_evals(monkeypatch)
    rng = random.Random(100 * p + n + len(group))
    for case in range(10):
        la, lb = (n, n) if case < 2 else (rng.randint(1, n), rng.randint(1, n))
        xs = tuple(p - 1 if case == 0 else rng.randrange(p) for _ in range(la))
        ys = tuple(p - 1 if case == 0 else rng.randrange(p) for _ in range(lb))
        ys = (ys[0] or 1,) + ys[1:]  # a unit, to divide by
        pa, pb = (0, 0) if case < 2 else (rng.randint(-1, 2), rng.randint(-1, 2))
        a, b = const_witt(xs, p, group, pa), const_witt(ys, p, group, pb)
        lo, hi = min(pa, pb), min(pa + la, pb + lb)
        if hi > lo:  # a common window after alignment
            wa, wb = (fp_digits(v, lo)[:hi - lo] for v in (a, b))
            s, d = witt_add(a, b), witt_sub(a, b)
            assert (s.p_min, d.p_min, s.prec_n, d.prec_n) == (lo, lo, hi, hi)
            assert fp_digits(s) == oracle_add(wa, wb, p)
            assert fp_digits(d) == oracle_sub(wa, wb, p)
        m, ln = witt_mul(a, b), min(la, lb)
        assert (m.p_min, len(m.coords)) == (pa + pb, ln)
        assert fp_digits(m) == oracle_mul(xs[:ln], ys[:ln], p)
        neg = witt_neg(a)
        assert neg.p_min == pa and fp_digits(neg) == oracle_neg(xs, p)
        inv = witt_unit_inverse(b)
        assert (inv.p_min, len(inv.coords)) == (-pb, lb)
        assert oracle_mul(ys, fp_digits(inv), p) == (1,) + (0,) * (lb - 1)
        # h = p^j0 h' is divided at length min(la, j0 + lb); any completion
        # of b, zeros here, times q gives a there
        q = witt_divide_with_precision(a, b)
        j0 = next((j for j, x in enumerate(xs) if x), la)
        lq = min(la, j0 + lb)
        assert (q.p_min, len(q.coords)) == (pa - pb, lq)
        padded = (ys + (0,) * lq)[:lq]
        assert oracle_mul(padded, fp_digits(q), p) == xs[:lq]
    assert calls == []


@pytest.mark.parametrize("p,group", [(2, "Zp1"), (3, "Lex"), (5, "Rat")])
def test_non_constant_operands_still_read_the_tables(monkeypatch, p, group):
    # a capped constant, a constant times a capped monomial, and a constant
    # plus a vector with a capped non-constant coordinate all take the
    # table path: a cap anywhere in the window keeps an operation off B
    capped = HahnSeries(p, group, HahnSeries.one(p, group).terms,
                        gamma_from_fraction(2, group, p))  # 1 mod t^2
    mono = HahnSeries(p, group, ((gamma_from_fraction(1, group, p), 1),),
                      gamma_from_fraction(4, group, p))  # t mod t^4
    const = const_witt((1, p - 1, 1), p, group)
    calls = count_evals(monkeypatch)
    for op, a, b in [
            (witt_add, WittVec(p, group, 0, (capped,) + const.coords[1:]), const),
            (witt_mul, const, teichmuller(mono, 3)),
            (witt_add, const, WittVec(p, group, 0, const.coords[:2] + (mono,)))]:
        del calls[:]
        op(a, b)
        assert calls, (op.__name__, a, b)
    # so past the cap they still raise
    n = table_level_cap() + 1
    long_const = const_witt((1,) * n, p, group)
    with pytest.raises(TableCapError):
        witt_add(long_const,
                 WittVec(p, group, 0, (capped,) + long_const.coords[1:]))
    with pytest.raises(TableCapError):
        witt_mul(long_const, teichmuller(mono, n))


# -- exact operands: Hahn series over Z/p^N, against the digit oracle ------


def no_table(*args):
    raise AssertionError("an exact operation evaluated a table polynomial")


def oracle_vec(rng, p, group, n, lead=False, monomials=False, span=4):
    """An exact vector with 0-3 terms per coordinate (one when
    ``monomials``), exponents k/d with |k| <= span and d in {1, p} (and 3
    over Rat); a Lex exponent's lo coordinate is an int of size at most
    span // 2."""
    def gamma():
        q = Fraction(rng.randint(-span, span),
                     rng.choice((1, p, 3) if group == "Rat" else (1, p)))
        if group == "Lex":
            return lex(q, rng.randint(-(span // 2), span // 2), p)
        return gamma_from_fraction(q, group, p)

    coords = []
    for i in range(n):
        while True:
            k = 1 if monomials else rng.randint(0, 3)
            c = HahnSeries(p, group, tuple((gamma(), rng.randrange(1, p))
                                           for _ in range(k)))
            if c.terms or not (lead and i == 0):
                break
        coords.append(c)
    return WittVec(p, group, rng.randint(-1, 1), tuple(coords))


def monomial_lead(g):
    """g with its leading coordinate cut to its first term."""
    lead = HahnSeries(g.p, g.group, g.coords[0].terms[:1])
    return WittVec(g.p, g.group, g.p_min, (lead,) + g.coords[1:])


def check_against_digit_oracle(a, b, g):
    """add, sub, mul and neg of a and b, unit inverse of g and a / g, each
    against ``digit_oracle`` on its window; g's leading coordinate is a
    monomial, so the oracle can divide by it."""
    p = a.p
    lo, hi = min(a.p_min, b.p_min), min(a.prec_n, b.prec_n)
    xs, ys = (digit_oracle.digits(v, lo, hi) for v in (a, b))
    for got, want in ((witt_add(a, b), digit_oracle.oracle_add(xs, ys, p)),
                      (witt_sub(a, b), digit_oracle.oracle_sub(xs, ys, p))):
        assert (got.p_min, got.prec_n) == (lo, hi)
        assert digit_oracle.digits(got) == want, (a, b)
    ln = min(len(a.coords), len(b.coords))
    prod = witt_mul(a, b)
    assert (prod.p_min, len(prod.coords)) == (a.p_min + b.p_min, ln)
    assert digit_oracle.digits(prod) == digit_oracle.oracle_mul(
        digit_oracle.digits(a)[:ln], digit_oracle.digits(b)[:ln], p)
    neg = witt_neg(a)
    assert neg.p_min == a.p_min
    assert digit_oracle.digits(neg) == digit_oracle.oracle_neg(
        digit_oracle.digits(a), p)
    gs = digit_oracle.digits(g)
    inv = witt_unit_inverse(g)
    assert (inv.p_min, len(inv.coords)) == (-g.p_min, len(g.coords))
    one = digit_oracle.digits(WittVec.one(p, g.group, len(g.coords)))
    assert digit_oracle.digits(inv) == digit_oracle.oracle_div(one, gs, p)
    q = witt_divide_with_precision(a, g)
    hs = digit_oracle.digits(a)
    j1 = next((j for j, c in enumerate(hs) if c), len(hs))
    lq = min(len(hs), j1 + len(gs))
    assert (q.p_min, len(q.coords)) == (a.p_min - g.p_min, lq)
    assert digit_oracle.digits(q) == digit_oracle.oracle_div(hs[:lq], gs, p)


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 3)])
@pytest.mark.parametrize("group", ["Zp1", "Lex", "Rat"])
def test_exact_operations_match_the_digit_oracle(monkeypatch, p, n, group):
    monkeypatch.setattr(wittpoly, "eval_poly", no_table)
    rng = random.Random(1000 * p + 10 * n + len(group))
    for _ in range(8):
        a = oracle_vec(rng, p, group, rng.randint(1, n))
        b = oracle_vec(rng, p, group, rng.randint(1, n))
        g = monomial_lead(oracle_vec(rng, p, group, rng.randint(1, n), lead=True))
        check_against_digit_oracle(a, b, g)


@pytest.mark.parametrize("group", ["Zp1", "Lex", "Rat"])
def test_exact_monomial_vectors_past_the_table_cap_match_the_digit_oracle(
        monkeypatch, group):
    # p = 2 at length 8, two levels past the default table cap; exponents
    # in [-1, 1] keep the oracle's series (thousands of terms) quick
    monkeypatch.setattr(wittpoly, "eval_poly", no_table)
    rng = random.Random(8 + len(group))
    a, b, g = (oracle_vec(rng, 2, group, 8, lead=True, monomials=True, span=1)
               for _ in range(3))
    check_against_digit_oracle(a, b, g)


# -- the digit kernel itself -----------------------------------------------


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 3)])
@pytest.mark.parametrize("group", ["Zp1", "Lex", "Rat"])
def test_digit_series_equal_the_checked_construction(monkeypatch, p, n, group):
    # out builds each series by HahnSeries._of, without __post_init__; the
    # checked constructor, which merges, sorts and drops terms that are not
    # canonical, must give the same series from the same terms
    monkeypatch.setattr(wittpoly, "eval_poly", no_table)
    built = []
    real = witt._Digits.out

    def out(self, x):
        coords = real(self, x)
        built.extend(coords)
        return coords

    monkeypatch.setattr(witt._Digits, "out", out)
    rng = random.Random(2000 * p + 10 * n + len(group))
    for _ in range(8):
        a = oracle_vec(rng, p, group, rng.randint(1, n))
        b = oracle_vec(rng, p, group, rng.randint(1, n))
        g = monomial_lead(oracle_vec(rng, p, group, rng.randint(1, n), lead=True))
        check_against_digit_oracle(a, b, g)
    assert sum(1 for s in built if len(s.terms) > 1) > 10
    for s in built:
        assert (s.p, s.group) == (p, group)
        assert s == HahnSeries(p, group, s.terms, s.prec)


@pytest.mark.parametrize("p,top", [(2, 5), (3, 4), (5, 3)])
@pytest.mark.parametrize("group", ["Zp1", "Lex", "Rat"])
def test_digits_read_back_the_coordinates_they_lift(p, top, group):
    # out(into(c)) == c for exact coordinates with 0-3 terms, with exact
    # zeros drawn at random and forced at level 0 and at the last level
    rng = random.Random(100 * p + len(group))
    zero = HahnSeries.zero(p, group)
    for n in range(1, top + 1):
        for draw in range(6):
            coords = list(oracle_vec(rng, p, group, n).coords)
            if draw % 3 == 1:
                coords[0] = zero
            elif draw % 3 == 2:
                coords[-1] = zero
            coords = tuple(coords)
            digits = witt._Digits(p, group, n, coords)
            assert digits.out(digits.into(coords, {})) == coords


@pytest.mark.parametrize("group,q", [("Zp1", Fraction(3, 4)),
                                     ("Lex", (Fraction(-1, 2), 1)),
                                     ("Rat", Fraction(2, 3))])
def test_p2_negation_of_a_teichmuller_monomial_builds_no_exponent(
        monkeypatch, group, q):
    # -[x] = sum_n 2^n [x]: every digit is x, so every exponent of the
    # result is the operand's own object and none is constructed
    gamma = lex(*q, 2) if group == "Lex" else gamma_from_fraction(q, group, 2)
    x = HahnSeries.t_pow(2, gamma)
    a = teichmuller(x, 6).pshift(-1)
    counts = Counter()
    for cls in (Rat, Zp1, Lex):
        real = vars(cls)["__post_init__"]

        def counted(self, real=real, name=cls.__name__):
            counts[name] += 1
            return real(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    neg = witt_neg(a)
    assert counts == Counter()
    assert neg.p_min == -1 and len(neg.coords) == 6
    assert all(c.terms == x.terms and c.terms[0][0] is gamma for c in neg.coords)


def module_container_sizes():
    """Size of every container held by ``witt``, its classes and its
    memoised functions."""
    sizes = {"<names>": len(vars(witt))}
    spaces = [("", vars(witt))] + [
        (v.__name__ + ".", vars(v)) for v in vars(witt).values()
        if isinstance(v, type) and v.__module__ == witt.__name__]
    for prefix, space in spaces:
        for name, v in space.items():
            if isinstance(v, (dict, list, set, tuple)):
                sizes[prefix + name] = len(v)
            elif hasattr(v, "cache_info"):
                sizes[prefix + name] = v.cache_info().currsize
    return sizes


def test_exact_operations_keep_no_state_between_calls(monkeypatch):
    # each operation builds its own B; nothing it computes outlives it
    monkeypatch.setattr(wittpoly, "eval_poly", no_table)
    rng = random.Random(500)
    cells = [(p, group, n) for p, n in ((2, 4), (3, 3), (5, 2))
             for group in ("Zp1", "Lex", "Rat")]

    def run(p, group, n, op):
        a, b = (oracle_vec(rng, p, group, n) for _ in range(2))
        g = monomial_lead(oracle_vec(rng, p, group, n, lead=True))
        if op == "add":
            witt_add(a, b)
        elif op == "sub":
            witt_sub(a, b)
        elif op == "mul":
            witt_mul(a, b)
        elif op == "neg":
            witt_neg(a)
        elif op == "inverse":
            witt_unit_inverse(g)
        else:
            witt_divide_with_precision(a, g)

    ops = ("add", "sub", "mul", "neg", "inverse", "divide")
    for cell in cells:  # first use of each prime and group
        for op in ops:
            run(*cell, op)
    before = module_container_sizes()
    for _ in range(500):
        run(*rng.choice(cells), rng.choice(ops))
    assert module_container_sizes() == before


# -- unit inverse of an exact monomial lead: one quotient in B -------------


def exact_unit(rng, p, group, top):
    """An exact unit of length at most ``top`` whose first nonzero
    coordinate is a monomial, after 0-2 exact zeros (a p-power factor) in
    every third draw; past length 5 the coordinates are monomials with
    exponents in [-1, 1], which keeps the oracle's product quick."""
    n = rng.randint(1, top)
    long = n > 5
    g = monomial_lead(oracle_vec(rng, p, group, n, lead=True, monomials=long,
                                 span=1 if long else 4))
    zeros = rng.randint(0, min(2, top - n)) if rng.random() < 1 / 3 else 0
    return WittVec(p, group, g.p_min,
                   (HahnSeries.zero(p, group),) * zeros + g.coords)


@pytest.mark.parametrize("p,top", [(2, 8), (3, 5), (5, 4)])
@pytest.mark.parametrize("group", ["Zp1", "Lex", "Rat"])
def test_unit_inverse_of_an_exact_monomial_lead_is_one_quotient(
        monkeypatch, p, top, group):
    monkeypatch.setattr(wittpoly, "eval_poly", no_table)
    divide = witt.witt_divide_with_precision
    quotients = []
    real_quotient = witt._Digits.quotient

    def quotient(self, hs, gs):
        quotients.append(len(gs))
        return real_quotient(self, hs, gs)

    rng = random.Random(300 * p + top + len(group))
    zeros = 0
    for _ in range(12):
        h = exact_unit(rng, p, group, top)
        hn = h.normalized()
        zeros += hn.p_min > h.p_min
        want = divide(WittVec.one(p, group, len(hn.coords)), hn)
        with monkeypatch.context() as m:
            m.setattr(witt._Digits, "quotient", quotient)
            del quotients[:]
            got = witt_unit_inverse(h)
        assert quotients == [len(hn.coords)]
        assert (got.p_min, got.coords) == (want.p_min, want.coords), h
        one = digit_oracle.digits(WittVec.one(p, group, len(hn.coords)))
        assert digit_oracle.oracle_mul(digit_oracle.digits(hn),
                                       digit_oracle.digits(got), p) == one, h
    assert zeros
    for p_min in (-1, 0, 2):
        with pytest.raises(ZeroSeriesError):
            witt_unit_inverse(WittVec(p, group, p_min,
                                      (HahnSeries.zero(p, group),) * top))


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2)])
@pytest.mark.parametrize("group", ["Zp1", "Lex"])
def test_unit_inverse_of_a_capped_lead_takes_the_level_loop(monkeypatch, p, n,
                                                           group):
    def no_quotient(*args):
        raise AssertionError("a capped unit was divided in B")

    rng = random.Random(400 * p + n + len(group))
    for _ in range(4):
        u = rand_unit(rng, p, group, n, capped=True)
        un = u.normalized()
        want, _ = divide_subtracting_every_level(WittVec.one(p, group, n), un)
        with monkeypatch.context() as m:
            m.setattr(witt._Digits, "quotient", no_quotient)
            calls = count_subs(m)
            got = witt_unit_inverse(u)
        assert (got.p_min, got.coords) == (want.p_min, want.coords), u
        assert n == 1 or calls


# -- results and exponents are built unchecked, equal to the checked ones ---


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 3)])
@pytest.mark.parametrize("group", ["Zp1", "Lex", "Rat"])
def test_trusted_results_equal_the_checked_construction(monkeypatch, p, n,
                                                        group):
    # WittVec._of (ring results and teichmuller lifts) and the exponents
    # Keys.gamma builds skip the checks that WittVec(...) and the group
    # constructors run
    monkeypatch.setattr(wittpoly, "eval_poly", no_table)
    exponents = []
    real_gamma = Keys.gamma

    def gamma(self, k):
        g = real_gamma(self, k)
        exponents.append(g)
        return g

    monkeypatch.setattr(Keys, "gamma", gamma)
    rng = random.Random(600 * p + n + len(group))
    results = []
    for _ in range(8):
        a = oracle_vec(rng, p, group, rng.randint(1, n))
        b = oracle_vec(rng, p, group, rng.randint(1, n))
        g = monomial_lead(oracle_vec(rng, p, group, rng.randint(1, n), lead=True))
        results += [witt_add(a, b), witt_sub(a, b), witt_mul(a, b), witt_neg(a),
                    witt_divide_with_precision(a, g), witt_unit_inverse(g),
                    teichmuller(g.coords[0], n)]
    for r in results:
        checked = WittVec(p, group, r.p_min, r.coords)
        assert type(r) is WittVec and fields_of(r) == fields_of(checked)
        assert all((c.p, c.group) == (p, group) for c in r.coords)
    assert len(exponents) > 20
    for g in exponents:
        if group == "Lex":
            assert g == lex(g.hi.value, g.lo.value, p)
            assert type(g.hi) is type(g.lo) is Zp1
            parts = (g.hi, g.lo)
        else:
            assert g == gamma_from_fraction(g.value, group, p)
            parts = (g,)
        for x in parts:
            assert x.p == p and x.den > 0
            assert Fraction(x.num, x.den).denominator == x.den
