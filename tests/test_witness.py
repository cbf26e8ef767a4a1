from fractions import Fraction
import math
import random

import pytest

from wittkit.errors import NotAFactorizationError
from wittkit.hahn import HahnSeries
from wittkit.values import Rat, Zp1, in_value_group, lex
from wittkit.witt import (WittVec, divide_exact_teichmuller, teichmuller,
                          witt_divide_with_precision, witt_mul)
from wittkit.witness import (ArchimedeanWitness, ScholzeElement,
                             build_archimedean_witness,
                             build_nonarchimedean_witness,
                             build_rapid_sequence, build_scholze_element,
                             chain_element, chain_valuations,
                             factorization_obstruction_check,
                             ideal_chain_report, intersection_membership,
                             liouville_certificate, nonarch_chain_element,
                             regrouped_subsequence)


def test_archimedean_default_invariants():
    w = build_archimedean_witness(depth=6)
    # the validate() invariants: decreasing, above an irrational-in-Z[1/2] limit
    assert w.r == Fraction(2, 3)
    assert not in_value_group(w.r, 2)
    assert all(a > w.r for a in w.a_seq)
    assert w.bound == 2 * w.a_seq[0] - w.r


def test_archimedean_rejects_bad_sequences():
    with pytest.raises(AssertionError):
        ArchimedeanWitness(2, (Fraction(1), Fraction(1)), Fraction(2, 3),
                           None, None).validate()
    with pytest.raises(AssertionError):
        # limit inside Z[1/2] is not a witness
        ArchimedeanWitness(2, (Fraction(1), Fraction(1, 2)), Fraction(1, 4),
                           None, None).validate()


def test_chain_valuations_decrease_toward_bound():
    w = build_archimedean_witness(depth=5)
    vs = chain_valuations(w, 6)
    assert all(x > y for x, y in zip(vs, vs[1:]))
    assert all(v > w.bound for v in vs)
    # the gap to the bound shrinks below any fixed 1/m
    assert vs[-1] - w.bound < Fraction(1, 100)


def test_chain_elements_lie_in_the_intersection():
    w = build_archimedean_witness(depth=5)
    for v_k in chain_valuations(w, 3):
        h = chain_element(w, v_k)
        cert = intersection_membership(h, w)
        assert cert.ok is True
        assert h.coords[0].valuation().value == v_k


def test_archimedean_chain_report():
    w = build_archimedean_witness(depth=5)
    rep = ideal_chain_report(w, 4)
    assert rep.kind == "archimedean"
    assert rep.ok is True
    assert len(rep.entries) == 4
    js = rep.to_json()
    assert js["bound"]["num"] / js["bound"]["den"] == float(w.bound)


def test_nonarchimedean_default_invariants():
    w = build_nonarchimedean_witness(depth=5)
    assert all(r > 1 for r in w.r_seq)
    assert sum(w.r_seq) >= len(w.r_seq)
    assert w.f.coords[0].valuation() == lex(1, 0, 2)


def test_nonarchimedean_chain_report():
    w = build_nonarchimedean_witness(depth=4)
    rep = ideal_chain_report(w, 3)
    assert rep.kind == "nonarchimedean"
    assert rep.ok is True
    leads = [nonarch_chain_element(w, k).coords[0].valuation()
             for k in (1, 2, 3)]
    assert leads == [lex(2, -1, 2), lex(2, -2, 2), lex(2, -3, 2)]


def test_zero_is_trivially_in_the_intersection():
    w = build_archimedean_witness(depth=4)
    cert = intersection_membership(WittVec.zero(2, "Zp1", 4), w)
    assert cert.ok is True


def test_capped_zero_membership_is_undecided():
    # 0 mod t has the completion [t], which is not in (f) cap (g)
    w = build_archimedean_witness(2, 3)
    zero_mod_t = HahnSeries.zero(2, "Zp1", Zp1(1, 2))
    h = WittVec(2, "Zp1", 0, (zero_mod_t,) * 3)
    assert intersection_membership(h, w).ok is None
    completion = teichmuller(HahnSeries.t_pow(2, Zp1(1, 2)), 3)
    assert intersection_membership(completion, w).ok is False


def test_rapid_sequence_gap_condition():
    s = build_rapid_sequence(6)
    assert s[0] == 1
    assert all(b <= a * a for a, b in zip(s, s[1:]))
    assert all(a > b > 0 for a, b in zip(s, s[1:]))


def test_scholze_element_in_w_mk():
    el = build_scholze_element(2, 5)
    el.validate()
    assert all(c.valuation().sign() > 0 for c in el.x.coords)


def test_scholze_element_rejects_slow_decay():
    slow = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    with pytest.raises(AssertionError):
        ScholzeElement(2, slow, None).validate()


def test_regrouped_subsequence_sums_gaps():
    s = build_rapid_sequence(5)
    t = regrouped_subsequence(s)
    assert t == [s[0] - s[1], s[2] - s[3], s[4] - s[5]]
    assert all(a > b > 0 for a, b in zip(t, t[1:]))


def test_liouville_certificate_on_rapid_gaps():
    terms = regrouped_subsequence(build_rapid_sequence(7))
    res = liouville_certificate(terms, height=40)
    assert res.ok is True
    lo, hi = res.interval
    assert lo < hi


def test_liouville_refuses_bad_input():
    res = liouville_certificate([Fraction(1, 2), Fraction(3, 4)], 10)
    assert res.ok is None
    # slowly decaying terms break the tail bound
    res2 = liouville_certificate([Fraction(1, 2), Fraction(1, 3)], 10)
    assert res2.ok is None and "gap condition" in res2.reason


def test_liouville_names_failing_rational():
    # a one-term window has tail bound 1/2, so [1/2, 1] traps a rational
    res = liouville_certificate([Fraction(1, 2)], 10)
    assert res.ok is None
    assert res.failing_rational is not None


def _fraction_liouville(terms, height):
    """(verdict, failing rational, interval) of the certificate, by loops
    over Fractions."""
    s, last = sum(terms), terms[-1]
    if not (all(b <= a * a for a, b in zip(terms, terms[1:]))
            and last <= Fraction(1, 2)):
        lo, hi = s, s + 2 * last
        for b in range(1, height + 1):
            a = math.floor(hi * b)
            if lo <= Fraction(a, b) <= hi:
                return None, Fraction(a, b), (lo, hi)
        return None, None, None
    lo, hi = s, s + 2 * last ** 2
    for b in range(1, height + 1):
        a = math.ceil(lo * b)
        if Fraction(a, b) <= hi:
            return None, Fraction(a, b), (lo, hi)
    return True, None, (lo, hi)


def test_liouville_int_loop_matches_the_fraction_loop():
    rng = random.Random(31)
    # the first rational found lies on the interval's end: hi = 1/1, then
    # lo = 1/1 of a window that breaks the gap condition
    cases = [([Fraction(1, 2)], 1),
             ([Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)], 3)]
    for _ in range(400):
        gap = rng.random() < 0.5
        terms = [Fraction(rng.randint(1, 3), rng.randint(4, 40))]
        for _ in range(rng.randint(0, 3)):
            t = terms[-1]
            terms.append(t * Fraction(rng.randint(1, 9), 10) * (t if gap else 1))
        cases.append((terms, rng.choice((1, 2, 5, rng.randint(1, 400)))))
    seen = set()
    for terms, height in cases:
        want = _fraction_liouville(terms, height)
        res = liouville_certificate(terms, height)
        assert (res.ok, res.failing_rational, res.interval) == want, (terms, height)
        seen.add(("gap" in res.reason, res.ok, want[1] is None))
    # both branches, each with and without a rational in its interval
    assert seen == {(False, True, True), (False, None, False),
                    (True, None, False), (True, None, True)}


def test_obstruction_check_flags_bad_factors():
    el = build_scholze_element(2, 4)
    c = HahnSeries.t_pow(2, Rat(Fraction(1, 2), 2))
    y = teichmuller(c, len(el.x.coords))
    z = divide_exact_teichmuller(el.x, c)
    rep = factorization_obstruction_check(el, y, z)
    assert rep.ok is True
    kinds = {v["kind"] for v in rep.violations}
    assert "factor_not_in_W_mK" in kinds or "valuations_bounded_below" in kinds


def test_obstruction_check_with_teichmuller_z():
    # y = x / [t^(-1/2)], z = [t^(-1/2)]: z is a Teichmuller lift outside
    # W(m_K), and every coordinate of y has valuation above v(x_1) = 1/2
    el = build_scholze_element(2, 4)
    c = HahnSeries.t_pow(2, Rat(Fraction(-1, 2), 2))
    y = divide_exact_teichmuller(el.x, c)
    z = teichmuller(c, len(el.x.coords))
    rep = factorization_obstruction_check(el, y, z)
    assert rep.ok is True
    assert rep.violations[0] == {"kind": "factor_not_in_W_mK", "factor": "z"}
    bounded = [v for v in rep.violations if v["kind"] == "valuations_bounded_below"]
    assert [(v["factor"], v["x_level_below"]) for v in bounded] == [("y", 1)]


def test_obstruction_check_multiplies_general_factors(monkeypatch):
    # neither factor is a Teichmuller lift, so the product is a witt_mul
    import wittkit.witness as witness
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return witt_mul(a, b)

    monkeypatch.setattr(witness, "witt_mul", spy)
    el = build_scholze_element(2, 4)
    one = HahnSeries.one(2, "Rat")
    zero = HahnSeries.zero(2, "Rat")
    z = WittVec(2, "Rat", 0, (one, one) + (zero,) * (len(el.x.coords) - 2))
    y = witt_divide_with_precision(el.x, z)
    rep = factorization_obstruction_check(el, y, z)
    assert calls == [(y, z)]
    assert rep.ok is True
    assert {"kind": "factor_not_in_W_mK", "factor": "z"} in rep.violations


def test_obstruction_check_rejects_non_factorizations():
    el = build_scholze_element(2, 4)
    one = WittVec.one(2, "Rat", len(el.x.coords))
    with pytest.raises(NotAFactorizationError):
        factorization_obstruction_check(el, one, one)


def test_obstruction_check_lets_unexpected_errors_through(monkeypatch):
    # only an undecided slope check is absorbed; a fault in the polygon code
    # must surface, not read as "no violation"
    import wittkit.witness as witness

    def broken(*args, **kwargs):
        raise RuntimeError("polygon fault")

    monkeypatch.setattr(witness, "newton_polygon", broken)
    el = build_scholze_element(2, 4)
    c = HahnSeries.t_pow(2, Rat(Fraction(1, 2), 2))
    y = teichmuller(c, len(el.x.coords))
    z = divide_exact_teichmuller(el.x, c)
    with pytest.raises(RuntimeError, match="polygon fault"):
        factorization_obstruction_check(el, y, z)


def test_obstruction_checks_compute_the_polygon_of_x_once(monkeypatch):
    # x is the same for every candidate: its slope multiset is kept on the
    # element, so k candidates make 1 + 2k polygon calls, not 3k
    import wittkit.witness as witness
    calls = []
    real = witness.newton_polygon

    def counting(h, *args, **kwargs):
        calls.append(h)
        return real(h, *args, **kwargs)

    monkeypatch.setattr(witness, "newton_polygon", counting)
    el = build_scholze_element(2, 4)
    for k in range(1, 6):
        c = HahnSeries.t_pow(2, Rat(Fraction(k, 8), 2))
        y = teichmuller(c, len(el.x.coords))
        z = divide_exact_teichmuller(el.x, c)
        assert factorization_obstruction_check(el, y, z).ok is True
    assert len(calls) == 1 + 2 * 5
    assert [h is el.x for h in calls].count(True) == 1
    assert el.x_slopes == real(el.x, complete=True).certified_slope_multiset()
