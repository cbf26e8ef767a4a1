from fractions import Fraction
import random

import pytest
from hypothesis import given, strategies as st

from wittkit.errors import GroupMismatchError, PrecisionError, ZeroSeriesError
from wittkit.hahn import (HahnSeries, Keys, _min_prec, hahn_from_json,
                          inverse_target)
from wittkit.values import Rat, Zp1, gamma_from_fraction, gamma_zero, lex

from conftest import within_seconds


def z(q, p=2):
    return Zp1(Fraction(q), p)


def series(terms, p=2, prec=None):
    return HahnSeries(p, "Zp1", tuple((z(g, p), c) for g, c in terms), prec)


def hahn_elems(p=2):
    term = st.tuples(
        st.builds(lambda n, e: Fraction(n, p ** e), st.integers(-8, 8),
                  st.integers(0, 2)),
        st.integers(1, p - 1) if p > 2 else st.just(1))
    return st.builds(lambda ts: series(ts, p), st.lists(term, max_size=4))


def test_terms_merge_and_sort():
    s = series([(1, 1), (0, 1), (1, 1)])
    assert s.terms == ((z(0), 1),)  # t-terms cancel mod 2
    # in order already, but with coefficients not reduced mod 2
    assert series([(0, 0), (1, 1)]).terms == ((z(1), 1),)
    assert series([(0, 1), (1, 3)]).terms == ((z(0), 1), (z(1), 1))


def test_cap_drops_invisible_terms():
    s = series([(0, 1), (5, 1)], prec=z(3))
    assert [g.value for g, _ in s.terms] == [0]
    assert not s.is_exact()


def test_valuation_and_leading():
    s = series([(2, 1), (-1, 1)])
    assert s.valuation() == z(-1)
    assert s.terms[0] == (z(-1), 1)
    assert series([]).valuation() is None


def test_three_valued_sign_predicates():
    assert series([(1, 1)]).val_ge_zero() is True
    assert series([(-1, 1)]).val_ge_zero() is False
    assert series([], prec=z(-2)).val_ge_zero() is None
    assert series([], prec=z(1)).val_ge_zero() is True
    assert series([]).val_gt_zero() is True  # exact zero
    assert series([], prec=z(0)).val_gt_zero() is None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_power_by_frobenius_digits_against_repeated_products(p):
    # s**e agrees with e - 1 products below their cap t^((e-1)v + c), and is
    # known up to t^(e*v + p^k (c - v)), p^k the largest power dividing e
    rng = random.Random(p)
    for _ in range(40):
        terms = [(Fraction(rng.randint(-4, 6), p ** rng.randint(0, 1)),
                  rng.randint(1, p - 1)) for _ in range(rng.randint(1, 3))]
        exact = series(terms, p)
        v = exact.valuation().value
        c = v + rng.randint(1, 5)
        capped = series(terms, p, prec=z(c, p))
        e = rng.randint(1, 30)
        for s in (exact, capped):
            naive = s
            for _ in range(e - 1):
                naive = naive * s
            got = s ** e
            if s is exact:
                assert got == naive
                continue
            assert tuple(t for t in got.terms if t[0] < naive.prec) == naive.terms
            pk = p ** next(k for k in range(e) if e % p ** (k + 1))
            assert got.prec == z(e * v + pk * (c - v), p)
    assert series([(1, 1)], p, prec=z(3, p)) ** 0 == HahnSeries.one(p, "Zp1")
    with pytest.raises(ValueError):
        series([(1, 1)], p) ** -1


@given(hahn_elems(), hahn_elems(), hahn_elems())
def test_ring_laws(a, b, c):
    assert (a + b).terms == (b + a).terms
    assert ((a + b) + c).terms == (a + (b + c)).terms
    assert (a * (b + c)).terms == (a * b + a * c).terms
    assert (a - a).is_zero()


@given(hahn_elems(), hahn_elems())
def test_mul_valuations_add(a, b):
    if a.terms and b.terms:
        assert (a * b).valuation() == a.valuation() + b.valuation()


def test_mul_prec_propagation_is_sound():
    a = series([(0, 1)], prec=z(2))  # 1 + O(t^2)
    b = series([(3, 1)])             # t^3
    assert (a * b).prec == z(5)


def reference_mul(a, b):
    """The product on exponent objects: each pair of terms summed by the
    group's ``+``, then merged mod p, sorted and cut at the cap by the
    checked constructor, under the same cap rule as ``HahnSeries.__mul__``."""
    a._check(b)
    prod = [(ga + gb, ca * cb) for ga, ca in a.terms for gb, cb in b.terms]
    prec = None
    for x, y in ((a, b), (b, a)):
        if x.prec is not None and (y.terms or y.prec is not None):
            fl = y.terms[0][0] if y.terms else y.prec
            prec = _min_prec(prec, x.prec + fl)
    return HahnSeries(a.p, a.group, tuple(prod), prec)


def rand_gamma(rng, p, group, lo_bound):
    """An exponent of the group: Z[1/p] values, denominators 2, 3 and 5
    over Rat, and over Lex a lo coordinate at +-lo_bound half the time."""
    q = Fraction(rng.randint(-6, 6), p ** rng.randint(0, 2))
    if group == "Zp1":
        return Zp1(q, p)
    if group == "Rat":
        return Rat(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, p))), p)
    lo = (rng.choice((-lo_bound, lo_bound)) if rng.random() < 0.5
          else Fraction(rng.randint(-lo_bound, lo_bound), p ** rng.randint(0, 1)))
    return lex(q, lo, p)


def rand_factor(rng, p, group, lo_bound):
    """Exact, capped, exactly zero or zero up to its cap."""
    kind = rng.choice(("exact", "exact", "capped", "capped", "zero", "capped zero"))
    terms = () if "zero" in kind else tuple(
        (rand_gamma(rng, p, group, lo_bound), rng.randint(1, p - 1))
        for _ in range(rng.randint(1, 4)))
    prec = rand_gamma(rng, p, group, lo_bound) if "capped" in kind else None
    return HahnSeries(p, group, terms, prec)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("group", ["Zp1", "Rat", "Lex"])
def test_products_on_int_keys_equal_the_object_product(p, group):
    # terms and cap, against the product on exponent objects; over Lex two
    # lo coordinates at the same bound sum to twice it, which the radix
    # 4 b + 1 separates from the next hi and 2 b + 1 does not
    rng = random.Random(31 * p + len(group))
    pairs = [(rand_factor(rng, p, group, rng.randint(1, 3)),
              rand_factor(rng, p, group, rng.randint(1, 3))) for _ in range(300)]
    if group == "Lex":
        at_bound = HahnSeries(p, group, ((lex(0, 1, p), 1), (lex(1, 0, p), 1)))
        pairs += [(at_bound, at_bound), (at_bound, HahnSeries.t_pow(p, lex(0, -1, p))),
                  (at_bound, HahnSeries(p, group, at_bound.terms, lex(1, 1, p)))]
    kinds = set()
    for a, b in pairs:
        got, want = a * b, reference_mul(a, b)
        assert (got.terms, got.prec) == (want.terms, want.prec), (a, b)
        assert got == HahnSeries(p, group, got.terms, got.prec)
        kinds.add(tuple((bool(x.terms), x.prec is None) for x in (a, b)))
    assert len(kinds) == 16  # every pair of factor kinds


def reference_invert(c, gamma_prec=None, refs=()):
    """The inverse on exponent objects: the leading monomial factored out,
    u = c t^(-g0) / c0 - 1, and the geometric series of -u summed by
    ``reference_mul`` and the checked ``+`` until a power is zero at its
    cap (whose cap still caps the sum) or reaches the target; then moved
    back and cut at gamma_prec - g0."""
    if c.is_zero():
        if c.is_exact():
            raise ZeroSeriesError("cannot invert the zero series")
        raise PrecisionError(f"leading term hidden by the cap t^({c.prec!r})")
    g0, c0 = c.terms[0]
    lead_inv = HahnSeries.t_pow(c.p, -g0, pow(c0, -1, c.p))
    if len(c.terms) == 1 and c.is_exact():
        return lead_inv
    if gamma_prec is None:
        gamma_prec = inverse_target(c, refs)
    one = HahnSeries.one(c.p, c.group)
    u = reference_mul(c, lead_inv) - one
    if u.terms and not u.valuation().reaches(gamma_prec):
        raise PrecisionError(
            f"no power of t^({u.valuation()!r}) reaches t^({gamma_prec!r})")
    acc = power = one
    while True:
        power = reference_mul(-u, power)
        if power.is_zero():
            acc = acc + power
            break
        if not power.valuation() < gamma_prec:
            break
        acc = acc + power
    out = reference_mul(lead_inv, acc)
    return HahnSeries(out.p, out.group, out.terms,
                      _min_prec(out.prec, gamma_prec - g0))


def inv_gamma(rng, p, group, b):
    """A small exponent; over Lex its lo coordinate is at +-b half the
    time."""
    if group == "Rat":
        return Rat(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, p))), p)
    hi = Fraction(rng.randint(-2, 2), p ** rng.randint(0, 1))
    if group == "Zp1":
        return Zp1(hi, p)
    return lex(hi, rng.choice((-b, b)) if rng.random() < 0.5
               else rng.randint(-b, b), p)


def inverse_cases(rng, p, group):
    """(kind, series, explicit target or None, refs) to invert."""
    b = rng.randint(1, 3)

    def target():  # positive, at most 3 over the hi coordinate
        if group == "Lex":
            return lex(Fraction(rng.randint(0, 3 * p), p), rng.randint(1 if
                       rng.random() < 0.3 else -b, b), p)
        return gamma_from_fraction(Fraction(rng.randint(1, 3 * p), p), group, p)

    for _ in range(120):
        kind = rng.choice(("exact", "capped", "capped", "one-term capped"))
        terms = tuple((inv_gamma(rng, p, group, b), rng.randint(1, p - 1))
                      for _ in range(1 if kind == "one-term capped"
                                     else rng.randint(2, 4)))
        top = max(g for g, _ in terms)
        prec = None if kind == "exact" else top + target()
        c = HahnSeries(p, group, terms, prec)
        if rng.random() < 0.5:
            yield kind, c, target(), ()
        elif kind == "exact":
            # exact references leave a deep target: one capped reference
            # bounds it by its cap
            ref = HahnSeries(p, group, ((top, 1),), top + target())
            yield kind + " refs", c, None, (ref,)
        else:
            yield kind + " refs", c, None, ()
    if group == "Lex":
        # u's keys at lo +-2 b: the powers below the target reach the
        # keys' radix with no lo to spare
        for b in (1, 3):
            c = HahnSeries(p, group, ((lex(0, -b, p), 1), (lex(2, b, p), 1)))
            for tgt in (lex(5, 0, p), lex(4, b, p), lex(6, -b, p)):
                yield "lo at the bound", c, tgt, ()
                yield "lo at the bound", HahnSeries(p, group, c.terms,
                                                    lex(7, b, p)), tgt, ()
            # u a capped zero: the result's cap, u's moved back, is at 3 b
            yield "lo at the bound", HahnSeries(p, group, c.terms[:1],
                                                lex(1, b, p)), lex(3, 0, p), ()
        # infinitesimal tails: a target with hi < 0 or = 0 is reached, one
        # with hi > 0 never is
        for th in (-1, 0, 1):
            g0 = lex(rng.randint(-2, 2), rng.randint(-3, 3), p)
            c = HahnSeries(p, group, ((g0, 1), (g0 + lex(0, 1, p), p - 1),
                                      (g0 + lex(0, 2, p), 1)))
            yield f"tail hi {th}", c, lex(th, rng.randint(-3, 6), p), ()


def outcome(invert, c, target, refs):
    try:
        got = invert(c, target, refs)
    except (PrecisionError, ZeroSeriesError) as e:
        return type(e), str(e)
    return got.terms, got.prec


def signed_sum(rng, pool, most):
    """A sum of one to ``most`` exponents of ``pool``, each with sign +-1,
    as (exponent, signed picks)."""
    picks = [(rng.choice(pool), rng.choice((1, -1)))
             for _ in range(rng.randint(1, most))]
    total = gamma_zero(pool[0].variant, pool[0].p)
    for g, sign in picks:
        total = total + g if sign > 0 else total - g
    return total, picks


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("group", ["Zp1", "Rat", "Lex"])
def test_keys_add_and_sort_as_exponents(p, group):
    # the key format's contract, for sums of at most ``sums`` exponents of
    # the series' terms and caps and of ``extra``, their differences
    # included: keys add as the exponents add, sort as they sort, and
    # unpack to them; over Lex, sums copies of the exponents with lo at +-b
    # reach |lo * D| = sums * b, the most the radix must separate
    rng = random.Random(53 * p + len(group))
    for sums in (2, 3, 5):
        for factor in (1, p ** 2):
            a = rand_factor(rng, p, group, 3)
            b = rand_factor(rng, p, group, 3)
            extra = (rand_gamma(rng, p, group, 3),)
            if group == "Lex":
                extra += (lex(Fraction(1, p), 3, p), lex(-2, -3, p))
            keys = Keys(p, group, (a, b), factor, sums, extra)
            pool = [g for s in (a, b) for g, _ in s.terms]
            pool += [s.prec for s in (a, b) if s.prec is not None]
            pool += extra
            sums_drawn = [signed_sum(rng, pool, sums) for _ in range(200)]
            if group == "Lex":
                assert max(abs(g.lo.value) for g in pool) == 3  # b / D
                for g in extra[1:]:
                    total = gamma_zero(group, p)
                    for _ in range(sums):
                        total = total + g
                    sums_drawn.append((total, [(g, 1)] * sums))
            for total, picks in sums_drawn:
                k = sum(sign * keys.key(g) for g, sign in picks)
                assert keys.key(total) == k
                assert keys.gamma(k) == total
            drawn = [total for total, _ in sums_drawn]
            assert sorted(drawn, key=keys.key) == sorted(drawn)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("group", ["Zp1", "Rat", "Lex"])
def test_key_series_inverse_matches_the_object_inverse(p, group):
    rng = random.Random(97 * p + len(group))
    kinds = set()
    for kind, c, target, refs in inverse_cases(rng, p, group):
        want = outcome(reference_invert, c, target, refs)
        got = outcome(HahnSeries.invert, c, target, refs)
        assert got == want, (c, target, refs)
        if type(want[0]) is tuple:
            terms, prec = got
            assert HahnSeries(p, group, terms, prec) == c.invert(target, refs)
        kinds.add((kind, want[0] is PrecisionError))
    assert {k for k, _ in kinds} >= {"exact", "capped", "one-term capped",
                                     "exact refs", "capped refs"}
    if group == "Lex":
        assert {("tail hi -1", False), ("tail hi 0", False),
                ("tail hi 1", True), ("lo at the bound", False)} <= kinds


def test_invert_geometric():
    s = series([(0, 1), (1, 1)])  # 1 + t
    inv = s.invert(z(3))
    assert [g.value for g, _ in inv.terms] == [0, 1, 2]
    assert (s * inv - HahnSeries.one(2, "Zp1")).is_zero()
    # v(s) = 1: b is known mod t^(3 - 1), and s*b == 1 mod t^3 (not t^4)
    s = series([(1, 1), (2, 1)])  # t + t^2
    inv = s.invert(z(3))
    assert [g.value for g, _ in inv.terms] == [-1, 0, 1] and inv.prec == z(2)
    prod = s * inv
    assert prod.prec == z(3) and (prod - HahnSeries.one(2, "Zp1")).is_zero()


def test_inverse_target_rule():
    c = series([(1, 1), (2, 1)])
    # all exact: largest exponent 3 plus 4 * spread (3 - 1), minus v(c) = 1
    assert inverse_target(c, [series([(3, 1)])]) == z(3 + 4 * 2 - 1)
    assert c.invert(refs=[series([(3, 1)])]).prec == z(10 - 1)
    # a cap among the references: the largest cap minus v(c)
    refs = [series([(3, 1)], prec=z(5)), HahnSeries.zero(2, "Zp1", z(4))]
    assert inverse_target(c, refs) == z(5 - 1)


def test_invert_zero_at_precision_raises():
    with pytest.raises(ZeroSeriesError):
        series([]).invert(z(3))
    with pytest.raises(PrecisionError, match="hidden"):
        series([], prec=z(1)).invert(z(3))


def test_invert_infinitesimal_tail_on_lex_raises():
    c = HahnSeries(2, "Lex", ((lex(0, 0, 2), 1), (lex(0, 1, 2), 1)))
    # k * (0, 1) never reaches (1, 0): the geometric series would not end
    with within_seconds(1), pytest.raises(PrecisionError, match="reaches"):
        c.invert(lex(1, 0, 2))
    inv = c.invert(lex(0, 3, 2))  # a reachable target still inverts
    assert [g for g, _ in inv.terms] == [lex(0, k, 2) for k in range(3)]


def test_invert_monomial_is_exact():
    s = HahnSeries.t_pow(2, z(Fraction(1, 2)))
    inv = s.invert(z(10))
    assert inv.is_exact() and inv.terms == ((z(Fraction(-1, 2)), 1),)


def test_frobenius_scales_exponents():
    s = series([(Fraction(1, 2), 1), (3, 1)])
    f = s.frobenius_iter(1)
    assert [g.value for g, _ in f.terms] == [1, 6]
    assert f.frobenius_iter(-1).terms == s.terms


def test_frobenius_iter_negative():
    s = HahnSeries.t_pow(2, z(1))
    assert s.frobenius_iter(-2).valuation() == z(Fraction(1, 4))


def test_group_mismatch_raises():
    a = series([(1, 1)])
    b = HahnSeries(2, "Lex", ((lex(1, 0, 2), 1),))
    with pytest.raises(GroupMismatchError):
        _ = a + b
    # a target of another group or prime: the inverse packs it with self's
    # exponents, so it is refused first
    for target in (Rat(3, 2), z(3, 3), lex(3, 0, 2)):
        with pytest.raises(GroupMismatchError):
            series([(0, 1), (1, 1)]).invert(target)
    # an exponent of another group or prime is refused where the series is
    # built: a product adds keys, which do not carry the prime
    for p, group, gamma in [(2, "Zp1", lex(1, 0, 2)), (2, "Zp1", Rat(1, 2)),
                            (2, "Zp1", z(Fraction(1, 3), 3)),
                            (3, "Lex", lex(0, 1, 5))]:
        with pytest.raises(GroupMismatchError):
            HahnSeries(p, group, ((gamma, 1),))


def test_json_round_trip():
    s = series([(Fraction(1, 2), 1)], prec=z(4))
    t = hahn_from_json(s.to_json())
    assert t.terms == s.terms and t.prec == s.prec
