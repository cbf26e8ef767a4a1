"""Structure polynomial tables against the integer ghost oracle."""

from collections import Counter
from fractions import Fraction
import itertools
import os
import random

import pytest

from wittkit import wittpoly
from wittkit.errors import TableCapError
from wittkit.hahn import HahnSeries
from wittkit.values import Zp1, gamma_zero, lex
from wittkit.witt import WittVec, witt_add, witt_mul, witt_neg
from wittkit.wittpoly import (WittPolyTable, _mul, _power, eval_poly, get_table,
                              table_level_cap)

from ghost_oracle import oracle_add, oracle_mul, oracle_neg


def const_witt(xs, p, group="Zp1", p_min=0):
    """sum p^n [x_n] with exact F_p-constant coordinates over ``group``."""
    one = HahnSeries.one(p, group).terms[0][0]
    return WittVec(p, group, p_min, tuple(
        HahnSeries(p, group, ((one, c % p),)) if c % p
        else HahnSeries.zero(p, group) for c in xs))


def coords_of(v, p):
    out = []
    for c in v.coords:
        if c.is_zero():
            out.append(0)
        else:
            out.append(c.terms[0][1])
    return tuple(out)


# -- the tables against a plain dict-of-tuples ghost-recursion builder ------


def ref_add(a, b, mod):
    out = dict(a)
    for m, c in b.items():
        v = (out.get(m, 0) + c) % mod
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def ref_scale(a, k, mod):
    return {m: (c * k) % mod for m, c in a.items() if (c * k) % mod}


def ref_mul(a, b, mod):
    out = {}
    for ma, ca in a.items():
        da = dict(ma)
        for mb, cb in b.items():
            c = (ca * cb) % mod
            if not c:
                continue
            d = dict(da)
            for v, e in mb:
                d[v] = d.get(v, 0) + e
            key = tuple(sorted(d.items()))
            v2 = (out.get(key, 0) + c) % mod
            if v2:
                out[key] = v2
            else:
                out.pop(key, None)
    return out


def ref_pow(a, e, mod):
    out, base = {(): 1}, a
    while e:
        if e & 1:
            out = ref_mul(out, base, mod)
        base = ref_mul(base, base, mod) if e > 1 else base
        e >>= 1
    return out


def reference_tables(p, levels):
    """Each level from scratch mod p^(n+1), raising S_i to p^(n-i) directly."""
    fams = ([], [], [])
    for n in range(levels):
        mod = p ** (n + 1)
        wx, wy = ({(((side, i), p ** (n - i)),): p ** i for i in range(n + 1)}
                  for side in "xy")
        targets = (ref_add(wx, wy, mod), ref_mul(wx, wy, mod),
                   ref_scale(wx, -1, mod))
        for polys, acc in zip(fams, targets):
            for i in range(n):
                lifted = ref_pow(polys[i], p ** (n - i), mod)
                acc = ref_add(acc, ref_scale(lifted, -(p ** i), mod), mod)
            assert all(c % p ** n == 0 for c in acc.values())
            polys.append({m: c // p ** n % p for m, c in acc.items()
                          if c // p ** n % p})
    return fams


@pytest.mark.parametrize("p,levels", [(2, 6), (3, 4), (5, 3)])
def test_tables_equal_reference_builder(p, levels):
    whole = WittPolyTable(p)
    whole.ensure(levels)
    stepwise = WittPolyTable(p)
    for k in range(1, levels + 1):
        stepwise.ensure(k)
    want = reference_tables(p, levels)
    for t in (whole, stepwise):
        assert (t.add_polys, t.mul_polys) == want[:2]
        # N_n is built for p = 2 only: witt_neg reads no odd-p table
        assert t.neg_polys == (want[2] if p == 2 else [{}] * levels)
    if p != 2:
        # the reference's odd-p N_n is -x_n: negation is coordinatewise
        assert want[2] == [{((("x", n), 1),): p - 1} for n in range(levels)]


def table_digits(law, xs, ys, p):
    """Digits of the table law ``law`` on F_p-constant digit vectors, by
    ``eval_poly`` on the levels of ``get_table(p)``: the ring operations
    compute constants in Z/p^N and read no table.  A constant is its own
    Witt coordinate (c^(p^k) = c in F_p), so it goes in and out as is."""
    n = len(xs)
    table = get_table(p)
    table.ensure(n)
    polys = getattr(table, law)
    xc = list(const_witt(xs, p).coords)
    yc = list(const_witt(ys or (0,) * n, p).coords)
    powers = {}
    return coords_of(WittVec(p, "Zp1", 0, tuple(
        eval_poly(polys[k], xc, yc, p, "Zp1", powers) for k in range(n))), p)


def assert_tables_and_operations(law, xs, ys, p, want):
    """The table polynomials and the public operation both give ``want``."""
    assert table_digits(law, xs, ys, p) == want
    a = const_witt(xs, p)
    if law == "neg_polys":
        got = witt_neg(a)
    else:
        b = const_witt(ys, p)
        got = witt_add(a, b) if law == "add_polys" else witt_mul(a, b)
    assert coords_of(got, p) == want


@pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 3)])
def test_add_matches_ghost_oracle_exhaustive(p, n):
    if p ** n > 32:
        vecs = [tuple(random.Random(5).randrange(p) for _ in range(n))
                for _ in range(6)]
    else:
        vecs = list(itertools.product(range(p), repeat=n))
    for xs in vecs:
        for ys in vecs:
            assert_tables_and_operations("add_polys", xs, ys, p,
                                         oracle_add(xs, ys, p))


@pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 3)])
def test_mul_matches_ghost_oracle(p, n):
    rng = random.Random(99)
    vecs = list(itertools.product(range(p), repeat=n))
    if len(vecs) > 16:
        vecs = [vecs[rng.randrange(len(vecs))] for _ in range(16)]
    for xs in vecs:
        for ys in vecs:
            assert_tables_and_operations("mul_polys", xs, ys, p,
                                         oracle_mul(xs, ys, p))


@pytest.mark.parametrize("p,n,pairs", [(2, 6, 16), (5, 4, 3)])
def test_deepest_levels_match_ghost_oracle(p, n, pairs):
    """The deepest level the default cap allows, on sampled vectors plus
    the all-(p-1) vector, whose carries reach every level."""
    rng = random.Random(31 * p + n)
    vecs = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(2 * pairs)]
    vecs[0] = vecs[1] = (p - 1,) * n
    for xs, ys in zip(vecs[::2], vecs[1::2]):
        assert_tables_and_operations("add_polys", xs, ys, p,
                                     oracle_add(xs, ys, p))
        assert_tables_and_operations("mul_polys", xs, ys, p,
                                     oracle_mul(xs, ys, p))
        if p == 2:  # the table holds N_n for p = 2 only
            assert_tables_and_operations("neg_polys", xs, None, p,
                                         oracle_neg(xs, p))
        else:
            assert coords_of(witt_neg(const_witt(xs, p)), p) == oracle_neg(xs, p)


def test_neg_matches_ghost_oracle():
    for xs in itertools.product(range(3), repeat=3):
        got = coords_of(witt_neg(const_witt(xs, 3)), 3)
        assert got == oracle_neg(xs, 3)


def test_one_plus_one_is_p():
    one = const_witt((1, 0, 0), 2)
    assert coords_of(witt_add(one, one), 2) == (0, 1, 0)


def test_minus_one_all_ones_for_p2():
    got = coords_of(witt_neg(const_witt((1, 0, 0), 2)), 2)
    assert got == (1, 1, 1)


def test_table_cap_honored(monkeypatch):
    # the cap is fixed: the environment variable that once set it is not read
    monkeypatch.setenv("AINF_TABLE_CAP", "2")
    assert table_level_cap() == 6
    t = WittPolyTable(5)
    t.ensure(2)
    with pytest.raises(TableCapError):
        t.ensure(table_level_cap() + 1)


def test_tables_are_memoized():
    assert get_table(2) is get_table(2)


@pytest.mark.parametrize("p,levels", [(2, 5), (3, 4), (5, 3)])
def test_no_table_level_has_the_constant_monomial(p, levels):
    # S_n(0, 0) = P_n(0, 0) = N_n(0) = 0, so eval_poly never meets ()
    # (odd p stores an empty negation entry per level)
    table = get_table(p)
    table.ensure(levels)
    for polys in (table.add_polys, table.mul_polys, table.neg_polys):
        assert all(() not in poly for poly in polys[:levels])


def test_the_shared_product_squares_powers_and_guards():
    # the one product of int-keyed polynomials, which the table build and
    # exact Witt arithmetic (negative keys, no guard) both run
    rng = random.Random(23)
    for p in (2, 3, 5):
        mod = p ** 4
        for _ in range(10):
            a = {rng.randint(-40, 40): rng.randrange(1, mod)
                 for _ in range(rng.randint(0, 5))}
            a[rng.randint(-40, -1)] = rng.randrange(1, mod)
            assert _mul(a, a, mod) == _mul(a, dict(a), mod)
            for e in (2, 3, 5):
                want = a
                for _ in range(e - 1):
                    want = _mul(want, dict(a), mod)
                assert _power(a, e, mod) == want
    guard = 1 << 5
    assert _mul({1 << 3: 1}, {1 << 3: 1}, 4, guard) == {1 << 4: 1}
    with pytest.raises(AssertionError, match="exponent overflowed its field"):
        _mul({1 << 4: 1}, {1 << 4: 1}, 4, guard)


# -- power cache and zero skip against a naive evaluator --------------------


def naive_eval(poly, xs, ys, p, group, powers=None):
    """Reference evaluator on Teichmuller coordinates: every monomial powers
    its factors afresh, the factor ((side, i), e) to c_i^(e p^i), and
    multiplies them in, exact zeros included."""
    acc = HahnSeries.zero(p, group)
    for mono, coeff in poly.items():
        term = HahnSeries(p, group, ((gamma_zero(group, p), coeff % p),))
        for (side, i), e in mono:
            s = xs[i] if side == "x" else ys[i]
            term = term * s ** (e * p ** i)
        acc = acc + term
    return acc


def rand_gamma(rng, p, group, lo=-2, hi=2):
    def q(lo, hi):
        return Fraction(rng.randint(lo * p, hi * p), p)
    if group == "Lex":
        return lex(q(lo, hi), q(-2, 2), p)
    return Zp1(q(lo, hi), p)


def rand_coord(rng, p, group, kind):
    """A coordinate of the given kind: exact zero, zero below a cap, an
    exact monomial, or a few-term series under a cap above most terms."""
    if kind == "exact-zero":
        return HahnSeries.zero(p, group)
    if kind == "capped-zero":
        return HahnSeries.zero(p, group, rand_gamma(rng, p, group, 1, 4))
    terms = tuple((rand_gamma(rng, p, group), rng.randint(1, p - 1))
                  for _ in range(1 if kind == "monomial" else 3))
    cap = None if kind == "monomial" else rand_gamma(rng, p, group, 2, 6)
    return HahnSeries(p, group, terms, cap)


def rand_vec(rng, p, group, length):
    kinds = [rng.choice(("exact-zero", "capped-zero", "monomial", "few-term"))
             for _ in range(length)]
    return WittVec(p, group, 0, tuple(rand_coord(rng, p, group, k) for k in kinds))


CACHE_CASES = [(2, "Zp1", 4), (3, "Zp1", 3), (2, "Lex", 3)]


@pytest.mark.parametrize("p,group,length", CACHE_CASES)
def test_eval_poly_with_shared_cache_matches_naive(p, group, length):
    rng = random.Random(1000 * p + length)
    table = get_table(p)
    table.ensure(length)
    # the table builds N_n for p = 2 only; the reference builder has all p
    neg_polys = table.neg_polys if p == 2 else reference_tables(p, length)[2]
    for _ in range(3):
        xs = list(rand_vec(rng, p, group, length).coords)
        ys = list(rand_vec(rng, p, group, length).coords)
        for polys in (table.add_polys, table.mul_polys, neg_polys):
            powers = {}
            for k in range(length):
                got = eval_poly(polys[k], xs, ys, p, group, powers)
                want = naive_eval(polys[k], xs, ys, p, group)
                assert (got.terms, got.prec) == (want.terms, want.prec)


@pytest.mark.parametrize("p,group,length", CACHE_CASES)
def test_witt_ops_match_naive_evaluator(monkeypatch, p, group, length):
    rng = random.Random(2000 * p + length)
    pairs = [(rand_vec(rng, p, group, length), rand_vec(rng, p, group, length))
             for _ in range(2)]
    got = [(witt_add(a, b), witt_mul(a, b), witt_neg(a))
           for a, b in pairs]
    monkeypatch.setattr(wittpoly, "eval_poly", naive_eval)
    want = [(witt_add(a, b), witt_mul(a, b), witt_neg(a))
            for a, b in pairs]
    for ops_got, ops_want in zip(got, want):
        for g, w in zip(ops_got, ops_want):
            assert [(c.terms, c.prec) for c in g.coords] == \
                [(c.terms, c.prec) for c in w.coords]


def test_witt_mul_powers_each_factor_once(monkeypatch):
    calls = Counter()
    real = HahnSeries.__pow__

    def counting(s, e):
        calls[id(s), e] += 1
        return real(s, e)

    monkeypatch.setattr(HahnSeries, "__pow__", counting)
    rng = random.Random(7)
    a, b = (WittVec(2, "Zp1", 0, tuple(rand_coord(rng, 2, "Zp1", "few-term")
                                       for _ in range(4)))
            for _ in range(2))
    witt_mul(a, b)
    assert calls and max(calls.values()) == 1
