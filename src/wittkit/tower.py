"""Monomial region/gauge calculus for the eight-ring tower over A = W(o_K).

A monomial is p^a [t^gamma] with a an integer and gamma rational (v(t) is
normalized to 1); an integral gamma is kept as an ``int``, so the lattice
windows of ``covering_table_check`` run on integer arithmetic.  Each ring is
modelled by a ring-of-definition region (a finite set of half-plane
constraints on (a, gamma)) together with a list of inverted monomials;
membership in the localization is a finite lattice-point computation.
Completions and topologies are deliberately not modelled: the calculus is
the finite shadow of the tower, with gauge functions standing in for
convergence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .values import Frozen, _set_slots

TOWER_TAGS = ("A", "A1", "A2", "A12", "B1", "B2", "B12", "B1p", "B2p")


class Monomial(Frozen):
    """p^a [t^gamma]; gamma is an ``int`` when integral, else a reduced
    ``Fraction`` (the two compare and hash equal)."""
    a: int
    gamma: Fraction
    __slots__ = ("a", "gamma")

    def __init__(self, a, gamma):
        if type(gamma) is not int:
            gamma = Fraction(gamma)
            if gamma.denominator == 1:
                gamma = gamma.numerator
        _set_a(self, a)
        _set_gamma(self, gamma)

    __setstate__ = _set_slots

    def __eq__(self, other):
        if type(other) is not Monomial:
            return NotImplemented
        return self.a == other.a and self.gamma == other.gamma

    def __hash__(self):
        return hash((self.a, self.gamma))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.a + other.a, self.gamma + other.gamma)

    def to_json(self):
        return {"a": self.a, "gamma": {"num": self.gamma.numerator,
                                       "den": self.gamma.denominator}}


_set_a, _set_gamma = Monomial.a.__set__, Monomial.gamma.__set__

# Half-plane constraints alpha*a + beta*gamma >= 0 as (alpha, beta) pairs.
_Constraint = Tuple[int, int]

_DEF_REGIONS: Dict[str, Tuple[_Constraint, ...]] = {
    "A": ((1, 0), (0, 1)),
    "B1": ((0, 1), (1, 1)),
    "B2": ((1, 0), (1, 1)),
    "B12": ((1, 1),),
}

# (definition region, inverted monomials) per tag.
_TAGS: Dict[str, Tuple[str, Tuple[Monomial, ...]]] = {
    "A": ("A", ()),
    "A1": ("A", (Monomial(1, 0),)),
    "A2": ("A", (Monomial(0, 1),)),
    "A12": ("A", (Monomial(1, 1),)),
    "B1": ("B1", (Monomial(1, 0),)),
    "B2": ("B2", (Monomial(0, 1),)),
    "B12": ("B12", (Monomial(1, 1),)),
    "B1p": ("B1", (Monomial(1, 0), Monomial(0, 1))),
    "B2p": ("B2", (Monomial(0, 1), Monomial(1, 0))),
}

_GAUGES: Dict[str, Callable[[Monomial], Fraction]] = {
    "B1": lambda m: min(m.gamma, m.a + m.gamma),
    "B2": lambda m: min(m.a, m.a + m.gamma),
    "B12": lambda m: m.a + m.gamma,
}


def _eval(c: _Constraint, m: Monomial) -> Fraction:
    return c[0] * m.a + c[1] * m.gamma


def _inverted_stay_in_region(tags) -> bool:
    """Every inverted monomial of every tag satisfies every constraint of
    the tag's region (``monomial_membership`` relies on this)."""
    return all(_eval(c, s) >= 0
               for region, inverted in tags.values()
               for c in _DEF_REGIONS[region] for s in inverted)


# The tables are constant, so their invariant is checked once, at import.
assert _inverted_stay_in_region(_TAGS), "inverted monomial leaves region"


def monomial_membership(m: Monomial, tag: str) -> bool:
    """True iff m lies in the tag's ring of definition localized at its
    inverted monomials.

    Every inverted monomial of a tag has nonnegative effect on every
    constraint of its region (asserted at import), so constraints can be
    repaired independently: a constraint is satisfiable after inverting iff
    it already holds or some inverted monomial improves it strictly.
    """
    if tag not in _TAGS:
        raise ValueError(f"unknown ring tag {tag!r}; expected one of {TOWER_TAGS}")
    region, inverted = _TAGS[tag]
    for c in _DEF_REGIONS[region]:
        if _eval(c, m) >= 0:
            continue
        if not any(_eval(c, s) > 0 for s in inverted):
            return False
    return True


def gauge_eval(expansion: Sequence[Monomial], tag: str) -> Fraction:
    """Least gauge value over the support of a finite expansion."""
    if tag not in _GAUGES:
        raise ValueError(f"gauge defined only for B1, B2, B12, not {tag!r}")
    if not expansion:
        raise ValueError("gauge of an empty expansion")
    g = _GAUGES[tag]
    return min(g(m) for m in expansion)


def _window(w: int) -> Iterable[Monomial]:
    for a in range(-w, w + 1):
        for g in range(-w, w + 1):
            yield Monomial(a, g)


class TableReport(Frozen):
    ok: bool
    window: int
    checks: List[dict]
    failures: List[dict]

    def to_json(self):
        return {"ok": self.ok, "window": self.window,
                "checks": self.checks, "failures": self.failures}


def covering_table_check(window: int = 8,
                         gauges: Optional[Dict[str, Callable]] = None) -> TableReport:
    """Verify the covering-table compatibilities on a lattice window.

    The ``gauges`` override exists for mutation testing: a corrupted gauge
    produces a named failing cell.
    """
    gauges = dict(_GAUGES) if gauges is None else {**_GAUGES, **gauges}
    failures: List[dict] = []
    checks: List[dict] = []

    def record(name: str, bad: List[Monomial]):
        checks.append({"check": name, "ok": not bad})
        for m in bad[:5]:
            failures.append({"check": name, "monomial": m.to_json()})

    pts = list(_window(window))

    # B1p = B1 with [t] inverted; B2p = B2 with p inverted (double enumeration:
    # direct region membership against one-step saturation of the base ring).
    def saturate(base_tag: str, inv: Monomial, m: Monomial, bound: int) -> bool:
        probe = m
        for _ in range(bound + 1):
            if monomial_membership(probe, base_tag):
                return True
            probe = probe * inv
        return False

    bound = 6 * window + 6
    record("B1p == B1[1/[t]]",
           [m for m in pts if monomial_membership(m, "B1p")
            != saturate("B1", Monomial(0, 1), m, bound)])
    record("B2p == B2[1/p]",
           [m for m in pts if monomial_membership(m, "B2p")
            != saturate("B2", Monomial(1, 0), m, bound)])

    # B12 contains B1 and B2.
    record("B1 | B2 <= B12",
           [m for m in pts
            if (monomial_membership(m, "B1") or monomial_membership(m, "B2"))
            and not monomial_membership(m, "B12")])

    # A sits inside every ring of the tower.
    for tag in TOWER_TAGS[1:]:
        record(f"A <= {tag}",
               [m for m in pts
                if monomial_membership(m, "A") and not monomial_membership(m, tag)])

    # Gauge monotonicity along the arrows B1 -> B12 and B2 -> B12.
    for src in ("B1", "B2"):
        record(f"gauge {src} <= gauge B12 on {src}",
               [m for m in pts
                if monomial_membership(m, src)
                and gauges["B12"](m) < gauges[src](m)])

    # Gauges nonnegative on the respective rings of definition.
    for tag in ("B1", "B2", "B12"):
        region = _DEF_REGIONS[_TAGS[tag][0]]
        record(f"gauge {tag} >= 0 on its ring of definition",
               [m for m in pts
                if all(_eval(c, m) >= 0 for c in region) and gauges[tag](m) < 0])

    return TableReport(not failures, window, checks, failures)
