"""Random completions of elements known only to a stated precision.

A series known modulo t^prec stands for every series that agrees with it
below prec, and a Witt vector of length N over p_min stands for every vector
that agrees with it below level N.  ``complete_series`` and ``complete_witt``
draw such completions: random terms at or above each cap, and a random
coordinate at level N.

An operation states its result soundly when no term it states as known
changes under any completion of its inputs.  ``first_disagreement`` compares
the result on the inputs with the result on a completion, over what both
state as known: the common levels, and exponents below both caps.  It shares
no code with the arithmetic beyond the classes it reads.
"""

from fractions import Fraction

from wittkit.hahn import HahnSeries
from wittkit.values import Zp1, lex
from wittkit.witt import WittVec

GROUPS = ("Zp1", "Lex")


def rand_gamma(rng, p, group, span=4):
    """A small group element: a Z[1/p] rational, or a Lex pair of them."""
    def q():
        return Fraction(rng.randint(-span, span), p ** rng.randint(0, 1))
    if group == "Zp1":
        return Zp1(q(), p)
    return lex(q(), q(), p)


def _pos_gamma(rng, p, group):
    """An element > 0; on Lex it may be infinitesimal (hi == 0)."""
    d = Fraction(rng.randint(0, 3), p ** rng.randint(0, 1))
    if group == "Zp1":
        return Zp1(d or Fraction(1, p), p)
    return lex(d, rng.randint(1 if d == 0 else -2, 2), p)


def rand_series(rng, p, group, terms=(1, 3), capped=0.5, zero=0.0):
    """A series of a few terms, capped above its last term at the rate
    ``capped``; at the rate ``zero`` it is a zero, capped at the same rate."""
    ts = () if rng.random() < zero else tuple(
        (rand_gamma(rng, p, group), rng.randrange(1, p))
        for _ in range(rng.randint(*terms)))
    cap = None
    if rng.random() < capped:
        top = max(g for g, _ in ts) if ts else rand_gamma(rng, p, group)
        cap = top + _pos_gamma(rng, p, group)
    return HahnSeries(p, group, ts, cap)


def rand_witt(rng, p, group, length, unit=False, zero=0.3):
    """A Witt vector at p_min 0; ``unit`` keeps the leading coordinate
    nonzero at its precision."""
    coords = tuple(rand_series(rng, p, group, zero=0.0 if unit and i == 0 else zero)
                   for i in range(length))
    return WittVec(p, group, 0, coords)


def complete_series(rng, c):
    """A completion of c: c itself when exact, else c plus up to two random
    terms at or above its cap, capped further up.  (An exact completion
    would be inverted to a target set by its exponent spread, which is
    deep and slow, and tests nothing more.)"""
    if c.prec is None:
        return c
    extra, g = [], c.prec
    for _ in range(rng.randint(0, 2)):
        extra.append((g, rng.randrange(1, c.p)))
        g = g + _pos_gamma(rng, c.p, c.group)
    return HahnSeries(c.p, c.group, c.terms + tuple(extra), g)


def complete_witt(rng, v, extend=True):
    """A completion of v: every coordinate completed, and at the rate 1/2
    (when ``extend``) one more random coordinate at level N."""
    coords = tuple(complete_series(rng, c) for c in v.coords)
    if extend and rng.random() < 0.5:
        coords += (rand_series(rng, v.p, v.group),)
    return WittVec(v.p, v.group, v.p_min, coords)


def _series_disagreement(a, b):
    """The least exponent below both caps where a and b differ, else None."""
    caps = [x.prec for x in (a, b) if x.prec is not None]
    cap = min(caps) if caps else None
    ta = {g: c for g, c in a.terms if cap is None or g < cap}
    tb = {g: c for g, c in b.terms if cap is None or g < cap}
    diff = [g for g in set(ta) | set(tb) if ta.get(g) != tb.get(g)]
    return min(diff) if diff else None


def first_disagreement(a, b):
    """(level, exponent) of the first term that results a and b both state
    as known and that differs; None when they agree.  Arguments are two
    ``HahnSeries`` (level None) or two ``WittVec``."""
    if isinstance(a, HahnSeries):
        g = _series_disagreement(a, b)
        return None if g is None else (None, g)
    for level in range(min(a.p_min, b.p_min), min(a.prec_n, b.prec_n)):
        g = _series_disagreement(a.coord(level), b.coord(level))
        if g is not None:
            return level, g
    return None
