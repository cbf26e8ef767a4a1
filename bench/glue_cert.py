"""glue-cert: a warm, in-process stream of two-chart glue certificates.

Each request is one ``glue_to_free`` call on a datum of the structured
family of the acceptance gate's criterion 07 (p=2, value group Z[1/2],
N=4), extended to rank 4: one ``diag`` or ``elem`` atom, then with even
odds a second ``diag`` or ``perm`` atom.  Every datum of the family glues
to a free module, so the known verdict is ``pass``.

One pass certifies ``ROUNDS`` data of each rank 1, 2, 3, 4, ranks
interleaved, drawn once from ``POOL_SEED``; a run repeats the pass,
starting at an offset the workload seed picks.  A certificate costs from
0.2 s to 4 s depending on its datum, so the thirty or so a run certifies,
drawn afresh per seed, would measure the draw more than the code.  The
pool seed is fixed and was not chosen: whatever failures its data meet
are part of the workload.
"""

from fractions import Fraction
import random

from wittkit import glueing
from wittkit.errors import PrecisionError
from wittkit.glueing import GlueDatum
from wittkit.hahn import HahnSeries
from wittkit.values import Zp1
from wittkit.witt import WittVec
from wittkit.wittpoly import get_table

IN_PROCESS = True
TIME_LIMIT_S = 10.0
POOL_SEED = 0
ROUNDS = 3
P, GROUP, N = 2, "Zp1", 4
RANKS = (1, 2, 3, 4)


def _tpow(q):
    return HahnSeries.t_pow(P, Zp1(Fraction(q), P))


def _rand_mu(rng):
    """Entry of an elementary atom: up to four monomial levels, a pole of
    at most one p-power, at most two negative t-exponents."""
    p_min = rng.randint(-1, 1)
    coords = []
    neg_budget = 2
    for i in range(min(4, N + 1 - p_min)):
        if i > 0 and rng.random() < 0.35:
            coords.append(HahnSeries.zero(P, GROUP))
            continue
        q = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
        if q < 0:
            if neg_budget == 0:
                q = -q
            else:
                neg_budget -= 1
        coords.append(_tpow(q))
    if coords[0].is_zero():
        coords[0] = _tpow(0)
    return WittVec(P, GROUP, p_min, tuple(coords))


def make_datum(rng, d):
    if d > 1 and rng.choice(["diag", "elem", "elem"]) == "elem":
        i = rng.randrange(d)
        j = rng.choice([k for k in range(d) if k != i])
        atoms = [("elem", i, j, _rand_mu(rng))]
    else:
        atoms = [("diag", tuple((rng.randint(-1, 2), Fraction(rng.randint(-2, 2)))
                                for _ in range(d)))]
    if rng.random() < 0.5:
        if d == 1 or rng.choice(["diag", "perm"]) == "diag":
            atoms.append(("diag", tuple((rng.randint(0, 1), Fraction(rng.randint(-1, 1)))
                                        for _ in range(d))))
        else:
            perm = list(range(d))
            rng.shuffle(perm)
            atoms.append(("perm", tuple(perm)))
    return GlueDatum(p=P, group=GROUP, rank=d, factors=tuple(atoms),
                     prec_n=N, gamma_max=Fraction(8))


def setup(seed, workdir):
    """Build the table levels glueing works at (five); return one pass of
    data, rotated by the seed."""
    get_table(P).ensure(5)
    rng = random.Random(POOL_SEED)
    pool = [make_datum(rng, d) for _ in range(ROUNDS) for d in RANKS]
    offset = random.Random(seed).randrange(len(pool))
    return pool[offset:] + pool[:offset]


class Chain:
    """A single request: certify one datum."""

    def __init__(self, datum):
        self.datum = datum
        self.requests = []

    def steps(self):
        cert = yield glueing.glue_to_free, (self.datum, get_table(P))
        self.requests.append(("glue_to_free", (self.datum,), cert))
        return cert.ok

    def verdicts(self, ok):
        return ["pass" if ok else "fail" for _ in self.requests]


def chains(pool):
    while True:
        for datum in pool:
            yield Chain(datum)


def pass_length(pool):
    return len(pool)


UNDECIDED = (PrecisionError,)


def canonical(cert):
    return cert.to_json()
