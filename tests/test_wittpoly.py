"""Structure polynomial tables against the integer ghost oracle."""

from collections import Counter
from fractions import Fraction
import itertools
import os
import random

import pytest

from wittkit import witt, wittpoly
from wittkit.errors import PrecisionError, TableCapError, ZeroSeriesError
from wittkit.hahn import HahnSeries, Keys
from wittkit.values import Rat, Zp1, gamma_zero, lex
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
    Witt coordinate (c^(p^k) = c in F_p), so it goes in and out as is: the
    key series of c t^0 is {0: c}, with no cap."""
    n = len(xs)
    table = get_table(p)
    table.ensure(n)
    polys = getattr(table, law)
    xc = [({0: c % p}, None) if c % p else None for c in xs]
    yc = [({0: c % p}, None) if c % p else None for c in ys or (0,) * n]
    powers = {}
    out = []
    for k in range(n):
        terms, cap = eval_poly(polys[k], xc, yc, p, powers)
        assert cap is None and all(key == 0 for key, _ in terms)
        out.append(terms[0][1] if terms else 0)
    return tuple(out)


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


def naive_eval(poly, xs, ys, p, group):
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


def reference_eval(poly, xs, ys, p, group, powers):
    """The object-form evaluator the key form replaced: each factor power a
    ``HahnSeries`` computed once per ``powers`` cache, exact-zero factors
    skipped, the monomials summed in one construction."""
    terms = []
    prec = None
    for mono, coeff in poly.items():
        term = None
        for factor in mono:
            if factor in powers:
                f = powers[factor]
            else:
                (side, i), e = factor
                s = xs[i] if side == "x" else ys[i]
                f = None if s.is_zero() and s.is_exact() else s ** (e * p ** i)
                powers[factor] = f
            if f is None:
                break
            term = f if term is None else term * f
        else:
            terms.extend((g, c * coeff) for g, c in term.terms)
            if term.prec is not None:
                prec = term.prec if prec is None else min(prec, term.prec)
    return HahnSeries(p, group, tuple(terms), prec)


def naive_law(polys, xs, ys, p, group):
    """Teichmuller coordinates of a table law by ``naive_eval``: level k
    evaluated, then read back by its p^k-th root."""
    return tuple(naive_eval(polys[k], xs, ys, p, group).frobenius_iter(-k)
                 for k in range(len(xs)))


def reference_law(polys, xs, ys, p, group):
    """As ``naive_law``, by ``reference_eval`` with one power cache."""
    powers = {}
    return tuple(reference_eval(polys[k], xs, ys, p, group, powers)
                 .frobenius_iter(-k) for k in range(len(xs)))


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
            # the keys and key series of one capped Witt operation
            top = p ** (length - 1)
            keys = Keys(p, group, xs + ys, top, 2 * top)
            kx, ky = ([None if not c.terms and c.prec is None
                       else keys.keyed(c) for c in w] for w in (xs, ys))
            powers = {}
            for k in range(length):
                got = keys.series(*eval_poly(polys[k], kx, ky, p, powers))
                want = naive_eval(polys[k], xs, ys, p, group)
                assert (got.terms, got.prec) == (want.terms, want.prec)


@pytest.mark.parametrize("p,group,length", CACHE_CASES)
def test_witt_ops_match_naive_evaluator(p, group, length):
    rng = random.Random(2000 * p + length)
    pairs = [(rand_vec(rng, p, group, length), rand_vec(rng, p, group, length))
             for _ in range(2)]
    table = get_table(p)
    neg_polys = table.neg_polys if p == 2 else reference_tables(p, length)[2]
    zeros = (HahnSeries.zero(p, group),) * length
    for a, b in pairs:
        got = (witt_add(a, b), witt_mul(a, b), witt_neg(a))
        want = (naive_law(table.add_polys, a.coords, b.coords, p, group),
                naive_law(table.mul_polys, a.coords, b.coords, p, group),
                naive_law(neg_polys, a.coords, zeros, p, group))
        for g, w in zip(got, want):
            assert [(c.terms, c.prec) for c in g.coords] == \
                [(c.terms, c.prec) for c in w]


def test_witt_mul_powers_each_factor_once(monkeypatch):
    # one capped operation raises each coordinate's key series to each
    # power once, for all levels
    calls = Counter()
    real = wittpoly._key_pow

    def counting(s, e, p):
        calls[id(s), e] += 1
        return real(s, e, p)

    monkeypatch.setattr(wittpoly, "_key_pow", counting)
    rng = random.Random(7)
    a, b = (WittVec(2, "Zp1", 0, tuple(rand_coord(rng, 2, "Zp1", "few-term")
                                       for _ in range(4)))
            for _ in range(2))
    witt_mul(a, b)
    assert calls and max(calls.values()) == 1


# -- the key-form evaluation against the object-form evaluator --------------

# witt-arith's longest lengths per prime
LONGEST = {2: 5, 3: 4, 5: 3}


def keyed_gamma(rng, p, group, lo, hi, b):
    """An exponent near lo..hi: over Rat with a denominator among 2, 3, 5
    and p, over Zp1 one of p^0..p^2, and over Lex with lo coordinate +-b,
    so that some key reaches the radix's bound."""
    if group == "Lex":
        q = Fraction(rng.randint(lo * p, hi * p), p)
        return lex(q, rng.choice((b, -b)), p)
    d = rng.choice((1, 2, 3, 5, p)) if group == "Rat" else p ** rng.randint(0, 2)
    return (Rat if group == "Rat" else Zp1)(Fraction(rng.randint(lo * d, hi * d), d), p)


def keyed_coord(rng, p, group, kind, b):
    if kind == "exact-zero":
        return HahnSeries.zero(p, group)
    cap = keyed_gamma(rng, p, group, 2, 6, b)
    if kind == "capped-zero":
        return HahnSeries.zero(p, group, cap)
    terms = tuple((keyed_gamma(rng, p, group, -2, 3, b), rng.randint(1, p - 1))
                  for _ in range(rng.randint(1, 3)))
    return HahnSeries(p, group, terms, cap if kind == "capped" else None)


def keyed_window(rng, p, group, length, b):
    """Coordinates of every kind, at least one of them capped, so that an
    operation on the window evaluates the tables."""
    kinds = [rng.choice(("exact-zero", "capped-zero", "capped", "capped", "exact"))
             for _ in range(length)]
    kinds[rng.randrange(length)] = rng.choice(("capped-zero", "capped"))
    return tuple(keyed_coord(rng, p, group, k, b) for k in kinds)


@pytest.mark.parametrize("group", ["Zp1", "Rat", "Lex"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_key_evaluation_matches_the_object_evaluator(p, group):
    # the capped branch of every table law: one hahn.Keys for the
    # operation, the tables evaluated on its keys and each level read back
    # by key division, against the object-form evaluator on HahnSeries and
    # frobenius_iter(-k)
    rng = random.Random(97 * p + len(group))
    table = get_table(p)
    table.ensure(LONGEST[p])
    laws = ("add", "mul", "neg") if p == 2 else ("add", "mul")
    for draw in range(64):
        length = LONGEST[p] if draw < 4 else rng.randint(1, LONGEST[p])
        law = laws[draw % len(laws)]
        b = Fraction(rng.randint(1, 3), p ** rng.randint(0, 1))
        xs = keyed_window(rng, p, group, length, b)
        ys = (HahnSeries.zero(p, group),) * length if law == "neg" else \
            keyed_window(rng, p, group, length, b)
        got = witt._law(law, p, group, xs, ys)
        want = reference_law(getattr(table, law + "_polys"), xs, ys, p, group)
        assert got == want, (law, xs, ys)


# -- capped operations keep nothing ------------------------------------------


def retained(mods):
    """The size of every container the modules hold: their globals, their
    classes' attributes and the fields of every memoised table."""
    out = {}
    for mod in mods:
        for name, value in vars(mod).items():
            fields = [(name, value)]
            if isinstance(value, type) and value.__module__ == mod.__name__:
                fields += [(f"{name}.{a}", v) for a, v in vars(value).items()]
            for key, v in fields:
                if isinstance(v, (dict, list, set)):
                    out[mod.__name__, key] = len(v)
    for p, table in wittpoly._tables.items():
        for key, v in vars(table).items():
            if isinstance(v, (list, tuple)):
                out[p, key] = [len(x) if isinstance(x, list) else 1 for x in v]
    return out


def test_capped_operations_retain_nothing():
    # 500 capped operations, on table levels built beforehand, leave every
    # container of witt, wittpoly and hahn as it was
    from wittkit import hahn
    mods = (witt, wittpoly, hahn)
    rng = random.Random(500)
    ops = []
    for _ in range(500):
        p = rng.choice((2, 3, 5))
        group = rng.choice(("Zp1", "Lex"))
        length = rng.randint(1, LONGEST[p] - 1)
        b = Fraction(1, p)
        ops.append((rng.choice(("add", "sub", "mul", "neg", "divide", "unit")),
                    WittVec(p, group, 0, keyed_window(rng, p, group, length, b)),
                    WittVec(p, group, 0, keyed_window(rng, p, group, length, b))))

    def run():
        for op, a, c in ops:
            try:
                if op == "add":
                    witt_add(a, c)
                elif op == "sub":
                    witt.witt_sub(a, c)
                elif op == "mul":
                    witt_mul(a, c)
                elif op == "neg":
                    witt_neg(a)
                elif op == "divide":
                    witt.witt_divide_with_precision(a, c)
                else:
                    witt.witt_unit_inverse(c)
            except (PrecisionError, ZeroSeriesError):
                pass

    for p, levels in LONGEST.items():
        get_table(p).ensure(levels)
    before = retained(mods)
    run()
    assert retained(mods) == before
