from fractions import Fraction

import pytest

from wittkit.tower import (_TAGS, TOWER_TAGS, Monomial,
                           _inverted_stay_in_region, covering_table_check,
                           gauge_eval, monomial_membership)


def m(a, g):
    return Monomial(a, Fraction(g))


def test_monomial_multiplication_and_json():
    x = m(1, Fraction(1, 2)) * m(-2, 3)
    assert x == m(-1, Fraction(7, 2))
    assert x.to_json() == {"a": -1, "gamma": {"num": 7, "den": 2}}


@pytest.mark.parametrize("mono,tag,want", [
    (m(1, 1), "A", True),
    (m(-1, 1), "A", False),
    (m(-1, 1), "A1", True),       # p inverted
    (m(1, -1), "A1", False),
    (m(1, -1), "A2", True),       # [t] inverted
    (m(-1, 1), "A2", False),
    (m(-1, -1), "A12", True),     # p[t] inverted repairs both constraints
    (m(-1, 1), "A12", True),
    # inverting p frees the a-axis: B1 membership is gamma >= 0
    (m(-3, 2), "B1", True),
    (m(1, -1), "B1", False),
    # inverting [t] frees the gamma-axis: B2 membership is a >= 0
    (m(2, -3), "B2", True),
    (m(-1, 3), "B2", False),
    # p[t] inverted repairs a + gamma >= 0 for any monomial
    (m(5, -6), "B12", True),
    (m(-4, 1), "B12", True),
    # primed rings invert both p and [t]: every monomial is a unit multiple
    (m(-3, -2), "B1p", True),
    (m(-1, -1), "B2p", True),
])
def test_monomial_membership_table(mono, tag, want):
    assert monomial_membership(mono, tag) is want


def test_membership_rejects_unknown_tag():
    with pytest.raises(ValueError):
        monomial_membership(m(0, 0), "C3")


def test_gauges_on_singletons():
    assert gauge_eval([m(2, 1)], "B1") == 1
    assert gauge_eval([m(2, 1)], "B2") == 2
    assert gauge_eval([m(2, 1)], "B12") == 3
    assert gauge_eval([m(-1, 3)], "B1") == 2  # min(3, 2)


def test_gauge_takes_minimum_over_support():
    exp = [m(0, 5), m(3, 0), m(1, 1)]
    assert gauge_eval(exp, "B12") == 2


def test_gauge_rejects_bad_input():
    with pytest.raises(ValueError):
        gauge_eval([m(0, 0)], "A")
    with pytest.raises(ValueError):
        gauge_eval([], "B1")


def test_gauge_submultiplicative_on_products():
    pts = [m(a, Fraction(g, 2)) for a in range(-3, 4) for g in range(-6, 7)]
    for tag in ("B1", "B2", "B12"):
        for x in pts[::5]:
            for y in pts[::7]:
                gx, gy = gauge_eval([x], tag), gauge_eval([y], tag)
                assert gauge_eval([x * y], tag) >= gx + gy


def test_covering_table_window_eight():
    rep = covering_table_check(window=8)
    assert rep.ok
    assert not rep.failures
    assert all(c["ok"] for c in rep.checks)
    names = {c["check"] for c in rep.checks}
    assert "B1p == B1[1/[t]]" in names and "B1 | B2 <= B12" in names


def test_covering_table_detects_mutated_gauge():
    bad = {"B12": lambda mono: mono.a + mono.gamma - 1}
    rep = covering_table_check(window=4, gauges=bad)
    assert not rep.ok
    failing = {f["check"] for f in rep.failures}
    assert any("B12" in name for name in failing)
    assert rep.failures[0]["monomial"] is not None
    assert rep.to_json() == reference_table(4, bad)


def test_integral_gamma_is_an_int_equal_to_its_fraction():
    for a, g in ((3, 2), (-1, 0), (0, -5)):
        x, y = Monomial(a, g), Monomial(a, Fraction(g))
        assert type(x.gamma) is type(y.gamma) is int
        assert x == y and hash(x) == hash(y)
        assert x.to_json() == y.to_json() == {
            "a": a, "gamma": {"num": g, "den": 1}}
    half = Monomial(1, Fraction(1, 2))
    assert type(half.gamma) is Fraction and half * half == Monomial(2, 1)


# -- a reference covering table on Fraction points -------------------------

# Each ring as a predicate on (a, gamma): the region's constraints after
# inverting its monomials (a constraint an inverted monomial improves
# strictly drops out).
_RINGS = {
    "A": lambda a, g: a >= 0 and g >= 0,
    "A1": lambda a, g: g >= 0,
    "A2": lambda a, g: a >= 0,
    "A12": lambda a, g: True,
    "B1": lambda a, g: g >= 0,
    "B2": lambda a, g: a >= 0,
    "B12": lambda a, g: True,
    "B1p": lambda a, g: True,
    "B2p": lambda a, g: True,
}
_DEFINITIONS = {
    "B1": lambda a, g: g >= 0 and a + g >= 0,
    "B2": lambda a, g: a >= 0 and a + g >= 0,
    "B12": lambda a, g: a + g >= 0,
}
_REF_GAUGES = {
    "B1": lambda a, g: min(g, a + g),
    "B2": lambda a, g: min(Fraction(a), a + g),
    "B12": lambda a, g: a + g,
}


class _Point:
    def __init__(self, a, gamma):
        self.a, self.gamma = a, gamma


def reference_table(window, gauges=None):
    """``covering_table_check(window, gauges).to_json()`` computed on
    Fraction exponents, with the rings as closed-form predicates."""
    pts = [(a, Fraction(g)) for a in range(-window, window + 1)
           for g in range(-window, window + 1)]
    fns = {t: (lambda f: lambda a, g: f(_Point(a, g)))(f)
           for t, f in (gauges or {}).items()}
    gauge = {**_REF_GAUGES, **fns}
    bound = 6 * window + 6
    cases = [
        ("B1p == B1[1/[t]]", lambda a, g: _RINGS["B1p"](a, g) != any(
            _RINGS["B1"](a, g + k) for k in range(bound + 1))),
        ("B2p == B2[1/p]", lambda a, g: _RINGS["B2p"](a, g) != any(
            _RINGS["B2"](a + k, g) for k in range(bound + 1))),
        ("B1 | B2 <= B12", lambda a, g: (_RINGS["B1"](a, g) or _RINGS["B2"](a, g))
         and not _RINGS["B12"](a, g)),
    ]
    cases += [(f"A <= {tag}", lambda a, g, tag=tag: _RINGS["A"](a, g)
               and not _RINGS[tag](a, g)) for tag in TOWER_TAGS[1:]]
    cases += [(f"gauge {src} <= gauge B12 on {src}", lambda a, g, src=src:
               _RINGS[src](a, g) and gauge["B12"](a, g) < gauge[src](a, g))
              for src in ("B1", "B2")]
    cases += [(f"gauge {tag} >= 0 on its ring of definition",
               lambda a, g, tag=tag: _DEFINITIONS[tag](a, g)
               and gauge[tag](a, g) < 0) for tag in ("B1", "B2", "B12")]
    checks, failures = [], []
    for name, bad in cases:
        cells = [(a, g) for a, g in pts if bad(a, g)]
        checks.append({"check": name, "ok": not cells})
        failures += [{"check": name, "monomial": {
            "a": a, "gamma": {"num": g.numerator, "den": g.denominator}}}
            for a, g in cells[:5]]
    return {"ok": not failures, "window": window,
            "checks": checks, "failures": failures}


@pytest.mark.parametrize("window", range(9))
def test_covering_table_equals_the_fraction_reference(window):
    assert covering_table_check(window).to_json() == reference_table(window)


def test_all_tags_enumerated():
    for tag in TOWER_TAGS:
        assert monomial_membership(m(3, 3), tag)


def test_inverted_monomials_stay_in_region_checked_on_the_tables():
    # the invariant monomial_membership relies on holds for every tag, and
    # the check that runs at import rejects a tag that breaks it
    assert _inverted_stay_in_region(_TAGS)
    bad = {**_TAGS, "bad": ("A", (m(-1, 0),))}
    assert not _inverted_stay_in_region(bad)
