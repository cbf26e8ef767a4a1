from contextlib import contextmanager
from fractions import Fraction
import random
import signal

import pytest

from wittkit.hahn import HahnSeries
from wittkit.values import Zp1
from wittkit.witt import WittVec


@contextmanager
def within_seconds(seconds):
    """Raise TimeoutError in the block if it runs longer than ``seconds``."""
    def too_slow(*_):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def fields_of(obj):
    """A record's declared fields and their values: the annotations of its
    class and its bases, bases first.  A slotted record has no ``vars``."""
    names = [name for cls in reversed(type(obj).__mro__)
             for name in vars(cls).get("__annotations__", ())]
    return {name: getattr(obj, name) for name in names}


@pytest.fixture()
def rng():
    return random.Random(20230817)


def rand_zp1(rng, p=2, span=4, max_den_exp=2):
    return Zp1(Fraction(rng.randint(-span, span), p ** rng.randint(0, max_den_exp)), p)


def rand_monomial_series(rng, p=2, span=4):
    return HahnSeries.t_pow(p, rand_zp1(rng, p, span))


def rand_witt(rng, p=2, n=3, span=4, p_min=0, zero_rate=0.3, nonzero_lead=False):
    coords = []
    for i in range(n):
        if rng.random() < zero_rate and not (nonzero_lead and i == 0):
            coords.append(HahnSeries.zero(p, "Zp1"))
        else:
            coords.append(rand_monomial_series(rng, p, span))
    return WittVec(p, "Zp1", p_min, tuple(coords))

