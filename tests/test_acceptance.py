"""Acceptance gate: one criterion per test, one pass/fail line each."""

import itertools
import random
from collections import Counter
from fractions import Fraction

from wittkit.glueing import valuation_lattice_dim, fully_faithful_probe, glue_to_free
from wittkit.hahn import HahnSeries
from wittkit.newton import newton_polygon, np_minkowski
from wittkit.tower import covering_table_check
from wittkit.values import Zp1, in_value_group, lex
from wittkit.witt import (WittVec, mul_teichmuller, teichmuller, witt_add,
                          witt_equal_at_precision, witt_mul, witt_sub)
from wittkit.witness import (build_archimedean_witness,
                             build_nonarchimedean_witness,
                             build_scholze_element, chain_valuations,
                             factorization_obstruction_check,
                             ideal_chain_report, liouville_certificate,
                             regrouped_subsequence)
from wittkit.cli import main as cli_main

from conftest import rand_witt
from ghost_oracle import oracle_add, oracle_mul
from test_glueing import rand_structured_datum
from test_wittpoly import const_witt, coords_of


def _line(num, name, ok):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def tpow(q, p=2):
    return HahnSeries.t_pow(p, Zp1(Fraction(q), p))


def test_criterion_01_witt_oracle_equivalence():
    cases = 0
    ok = True
    for p, n, reps in ((2, 4, 140), (3, 4, 120)):
        rng = random.Random(1000 + p)
        for _ in range(reps):
            xs = tuple(rng.randrange(p) for _ in range(n))
            ys = tuple(rng.randrange(p) for _ in range(n))
            a, b = const_witt(xs, p), const_witt(ys, p)
            ok &= coords_of(witt_add(a, b), p) == oracle_add(xs, ys, p)
            ok &= coords_of(witt_mul(a, b), p) == oracle_mul(xs, ys, p)
            cases += 2
    one = const_witt((1, 0, 0), 2)
    ok &= coords_of(witt_add(one, one), 2) == (0, 1, 0)
    ok &= cases >= 500
    _line(1, "witt-arithmetic-oracle-equivalence", ok)


def test_criterion_02_ring_axioms_and_teichmuller():
    rng = random.Random(2)
    ok = True
    for _ in range(200):
        a, b, c = (rand_witt(rng) for _ in range(3))
        ok &= witt_equal_at_precision(witt_add(a, b), witt_add(b, a))
        ok &= witt_equal_at_precision(witt_mul(a, b), witt_mul(b, a))
        ok &= witt_equal_at_precision(
            witt_add(witt_add(a, b), c),
            witt_add(a, witt_add(b, c)))
        ok &= witt_equal_at_precision(
            witt_mul(witt_mul(a, b), c),
            witt_mul(a, witt_mul(b, c)))
        ok &= witt_equal_at_precision(
            witt_mul(a, witt_add(b, c)),
            witt_add(witt_mul(a, b), witt_mul(a, c)))
        ok &= witt_sub(a, a).is_zero()
        t = tpow(Fraction(rng.randint(-6, 6), 2 ** rng.randint(0, 2)))
        ok &= witt_equal_at_precision(
            witt_mul(a, teichmuller(t, len(a.coords))),
            mul_teichmuller(a, t))
    _line(2, "ring-axioms-and-teichmuller-multiplicativity", ok)


def test_criterion_03_newton_multiplicativity():
    rng = random.Random(3)
    checked = 0
    ok = True
    while checked < 100:
        f = rand_witt(rng, nonzero_lead=True)
        g = rand_witt(rng, nonzero_lead=True)
        npf = newton_polygon(f, complete=True)
        npg = newton_polygon(g, complete=True)
        prod = witt_mul(f, g)
        floor = min(cf.valuation() + cg.valuation()
                    for cf in f.coords if cf.terms
                    for cg in g.coords if cg.terms)
        npp = newton_polygon(prod, tail_floor=floor)
        expected = np_minkowski(npf, npg)
        got = npp.certified_slope_multiset()
        want = expected.certified_slope_multiset()
        k = min(npp.certified_width, expected.certified_width)

        def prefix(ms):
            out = []
            for s in sorted(ms):
                out.extend([s] * ms[s])
            return out[:k]

        ok &= prefix(got) == prefix(want)
        checked += 1
    _line(3, "newton-polygon-multiplicativity", ok)


def test_criterion_04_archimedean_witness():
    w = build_archimedean_witness(2, 5)
    ok = w.bound == Fraction(4, 3) and not in_value_group(w.bound, 2)
    vs = chain_valuations(w, 8)
    ok &= vs[:3] == [Fraction(3, 2), Fraction(11, 8), Fraction(43, 32)]
    ok &= all(v > Fraction(4, 3) for v in vs)
    rep = ideal_chain_report(w, 8)
    ok &= rep.ok is True and len(rep.entries) == 8
    ok &= all(e["membership"]["verdict"] == "in" for e in rep.entries)
    _line(4, "non-coherence-witness-archimedean", ok)


def test_criterion_05_nonarchimedean_witness():
    w = build_nonarchimedean_witness(2, 5)
    rep = ideal_chain_report(w, 8)
    ok = rep.ok is True and len(rep.entries) == 8
    leads = [lex(2, -k, 2) for k in range(1, 9)]
    ok &= all(x > y for x, y in zip(leads, leads[1:]))
    # no minimum among computed stages: every stage is undercut by the next
    ok &= all(leads[-1] < v for v in leads[:-1])
    _line(5, "non-coherence-witness-nonarchimedean", ok)


def test_criterion_06_fully_faithful_probe():
    rng = random.Random(6)
    ok = True
    count = 0
    for _ in range(1000):
        x = rand_witt(rng, n=rng.randint(1, 4), p_min=rng.randint(-2, 1),
                      zero_rate=0.4)
        ok &= fully_faithful_probe(x)
        count += 1
    boundary = [
        WittVec.zero(2, "Zp1", 3),
        WittVec.one(2, "Zp1", 3),
        teichmuller(tpow(0), 3).pshift(-1),
        teichmuller(tpow(-1), 3),
        WittVec(2, "Zp1", -1, (HahnSeries.zero(2, "Zp1", Zp1(Fraction(-1), 2)),
                               tpow(1))),
        WittVec(2, "Zp1", 0, (HahnSeries.zero(2, "Zp1", Zp1(Fraction(0), 2)),
                              tpow(0))),
    ]
    for x in boundary:
        ok &= fully_faithful_probe(x)
        count += 1
    ok &= count >= 1000
    _line(6, "intersection-identity-probe", ok)


def test_criterion_07_glueing_round_trip():
    rng = random.Random(7)
    ok = True
    for _ in range(50):
        d = rng.choice([1, 2, 2, 3])
        datum = rand_structured_datum(rng, d, N=4)
        cert = glue_to_free(datum)
        ok &= (cert.ok is True and cert.residual_zero
               and cert.transfer.ok is True)
    _line(7, "glueing-round-trip", ok)


def test_criterion_08_valuation_lattice_lemma():
    opts = [None, Fraction(0), Fraction(1)]
    ok = True
    for d in (1, 2, 3):
        cols = []
        for combo in itertools.product(opts, repeat=d):
            cols.append([HahnSeries.zero(2, "Zp1") if q is None else tpow(q)
                         for q in combo])
        for ngens in (1, 2, 3):
            for gens in itertools.combinations(cols, ngens):
                dim, free, basis = valuation_lattice_dim(list(gens))
                ok &= dim <= d
                ok &= free == (dim == d)
                ok &= len(basis) == dim
    _line(8, "valuation-lattice-lemma", ok)


def test_criterion_09_scholze_obstruction():
    from wittkit.values import Rat
    from wittkit.witt import divide_exact_teichmuller
    el = build_scholze_element(2, 6)
    el.validate()
    liou = liouville_certificate(regrouped_subsequence(list(el.s_seq)), 1000)
    ok = liou.ok is True
    s_min = min(el.s_seq)
    violated = indeterminate = 0
    for k in range(1, 51):
        gamma = s_min + Fraction(k, 200)
        tg = HahnSeries.t_pow(2, Rat(gamma, 2))
        y = teichmuller(tg, el.x.prec_n)
        z = divide_exact_teichmuller(el.x, tg)
        res = factorization_obstruction_check(el, y, z)
        if res.ok is True:
            violated += 1
        else:
            indeterminate += 1
    ok &= violated >= 50 and indeterminate == 0
    _line(9, "scholze-obstruction-family", ok)


def test_criterion_10_covering_table_and_mutation():
    rep = covering_table_check(window=8)
    ok = rep.ok and not rep.failures
    mutated = covering_table_check(
        window=8, gauges={"B12": lambda m: m.a + m.gamma - 1})
    ok &= not mutated.ok and bool(mutated.failures)
    _line(10, "ring-tower-covering-table", ok)


def test_criterion_11_selftest_determinism(capsys):
    import json
    code1 = cli_main(["selftest", "--seed", "42"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["selftest", "--seed", "42"])
    out2 = capsys.readouterr().out
    h1 = json.loads(out1)["hash"]
    h2 = json.loads(out2)["hash"]
    ok = code1 == code2 == 0 and h1 == h2
    _line(11, "selftest-determinism", ok)
