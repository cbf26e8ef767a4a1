"""Stated precision survives every completion of the inputs.

Each operation runs on random inputs, some capped and some exact, and again
on random completions of them (``completion_oracle``).  No term that both
results state as known may differ.  Inputs on which an operation stops at
its precision are skipped; each case still has to compare enough pairs.
"""

from fractions import Fraction
import random

import pytest

from wittkit.errors import PrecisionError, ZeroSeriesError
from wittkit.hahn import HahnSeries
from wittkit.values import Zp1
from wittkit.witt import (WittVec, divide_exact_teichmuller, witt_add,
                          witt_divide_with_precision, witt_mul, witt_neg,
                          witt_sub, witt_unit_inverse)

from completion_oracle import (GROUPS, complete_series, complete_witt,
                               first_disagreement, rand_gamma, rand_series,
                               rand_witt)

LENGTH = {2: 4, 3: 3, 5: 2}  # Witt length per prime
INPUTS = 8
COMPLETIONS = 3


def _witt(rng, p, group, **kw):
    return rand_witt(rng, p, group, LENGTH[p], **kw)


def _self_pair(rng, p, group):
    """(a, a) with at least one capped coordinate, so a - a takes the table
    path and states only what the completions of both operands agree on."""
    a = _witt(rng, p, group)
    while all(c.prec is None for c in a.coords):
        a = _witt(rng, p, group)
    return a, a


# name -> (draw a tuple of inputs, the op on them)
OPS = {
    "witt_add": (lambda rng, p, g: (_witt(rng, p, g), _witt(rng, p, g)),
                 witt_add),
    "witt_sub": (lambda rng, p, g: (_witt(rng, p, g), _witt(rng, p, g)),
                 witt_sub),
    "witt_sub_self": (_self_pair, witt_sub),
    "witt_mul": (lambda rng, p, g: (_witt(rng, p, g), _witt(rng, p, g)),
                 witt_mul),
    "witt_neg": (lambda rng, p, g: (_witt(rng, p, g),), witt_neg),
    "witt_divide_with_precision": (
        lambda rng, p, g: (_witt(rng, p, g), _witt(rng, p, g, unit=True)),
        witt_divide_with_precision),
    "witt_unit_inverse": (lambda rng, p, g: (_witt(rng, p, g, unit=True),),
                          witt_unit_inverse),
    "divide_exact_teichmuller": (
        lambda rng, p, g: (_witt(rng, p, g), rand_series(rng, p, g)),
        divide_exact_teichmuller),
    "invert_at_target": (
        lambda rng, p, g: (rand_series(rng, p, g), rand_gamma(rng, p, g)),
        lambda c, target: c.invert(target)),
    "invert_against_refs": (
        lambda rng, p, g: (rand_series(rng, p, g), rand_series(rng, p, g)),
        lambda c, ref: c.invert(refs=(ref,))),
    "series_mul": (lambda rng, p, g: (rand_series(rng, p, g, terms=(0, 3)),
                                      rand_series(rng, p, g, terms=(0, 3))),
                   lambda a, b: a * b),
    "series_pow": (lambda rng, p, g: (rand_series(rng, p, g), rng.randint(0, 3)),
                   lambda a, e: a ** e),
}


def _complete(rng, x):
    if isinstance(x, WittVec):
        return complete_witt(rng, x)
    if isinstance(x, HahnSeries):
        return complete_series(rng, x)
    return x  # an exponent or a target: exact


def _run(op, args):
    try:
        return op(*args)
    except (PrecisionError, ZeroSeriesError):
        return None  # undecided at this precision: states nothing


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("p", sorted(LENGTH))
@pytest.mark.parametrize("name", sorted(OPS))
def test_stated_terms_survive_completion(name, p, group):
    draw, op = OPS[name]
    rng = random.Random(f"{name}/{p}/{group}")
    compared = 0
    for _ in range(INPUTS):
        args = draw(rng, p, group)
        got = _run(op, args)
        if got is None:
            continue
        for _ in range(COMPLETIONS):
            full = tuple(_complete(rng, x) for x in args)
            want = _run(op, full)
            if want is None:
                continue
            compared += 1
            bad = first_disagreement(got, want)
            assert bad is None, (
                f"{name}{args!r} states a term at (level, exponent) {bad} "
                f"that the completion {full!r} changes: {got!r} vs {want!r}")
    assert compared >= INPUTS


def _exact(x):
    """x with every cap dropped."""
    if isinstance(x, WittVec):
        return WittVec(x.p, x.group, x.p_min, tuple(_exact(c) for c in x.coords))
    if isinstance(x, HahnSeries):
        return HahnSeries(x.p, x.group, x.terms)
    return x


@pytest.mark.parametrize("p", sorted(LENGTH))
@pytest.mark.parametrize("name", sorted(OPS))
def test_exact_inputs_survive_longer_completions(name, p):
    # an exact coordinate takes no terms: only the p-adic length can grow
    draw, op = OPS[name]
    rng = random.Random(f"exact/{name}/{p}")
    for _ in range(INPUTS):
        args = tuple(_exact(x) for x in draw(rng, p, "Zp1"))
        got = _run(op, args)
        want = _run(op, tuple(_complete(rng, x) for x in args))
        if got is not None and want is not None:
            assert first_disagreement(got, want) is None, (name, args)


def _t(q, p=2):
    return Zp1(Fraction(q), p)


def _capped(exps, cap, p=2):
    return HahnSeries(p, "Zp1", tuple((_t(e, p), 1) for e in exps), _t(cap, p))


def test_unit_inverse_keeps_a_capped_zero_cap():
    # c = t^2 mod t^3 gives c t^-2 - 1 = 0 mod t: the geometric series must
    # keep that cap, since the completion t^2 + t^3 has inverse t^-2 + t^-1 + ...
    c = _capped([2], 3)
    u = WittVec(2, "Zp1", 0, (c, _capped([-1], 1),
                              _capped([-1, Fraction(1, 2)], Fraction(5, 2)),
                              _capped([1, 4], 6)))
    assert c.invert().prec == _t(-1)
    assert witt_unit_inverse(u).coords[0].prec <= _t(-1)
    assert c.invert(_t(10)).prec <= _t(-1)
