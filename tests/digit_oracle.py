"""Independent oracle for Witt arithmetic on exact Hahn-series coordinates.

The ghost recursion of ``ghost_oracle``, over Z[t^Gamma] in place of Z.  A
series is a dict from exponent to integer coefficient; an exponent is a tuple
of Fractions (one for Zp1 and Rat, (hi, lo) for Lex), so sums add by
coordinate and tuples sort as the groups do.  The Teichmuller coordinate c_i
has Witt coordinate X_i = c_i^(p^i): exponents times p^i, the same
coefficients in F_p, lifted to Z.  The ghost components
w_n = sum_{i<=n} p^i X_i^(p^(n-i)) are taken mod p^(n+1), the ring operation
acts on each, and the coordinates come back by
S_n = (w_n - sum_{i<n} p^i S_i^(p^(n-i))) / p^n, with c_n = S_n^(1/p^n)
mod p.  As (A + pB)^(p^k) = A^(p^k) mod p^(k+1), S_i is needed mod p only,
and S_i^(p^k) mod p^(k+1) follows from S_i^(p^(k-1)) mod p^k by one p-th
power.

No code is shared with the structure-polynomial tables or with the package's
p-adic digit arithmetic: the oracle takes and returns coordinates as dicts.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

Exponent = Tuple[Fraction, ...]
Series = Dict[Exponent, int]


def _reduce(acc: Series, mod: int) -> Series:
    return {k: c % mod for k, c in acc.items() if c % mod}


def _mul(a: Series, b: Series, mod: int) -> Series:
    acc: Series = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            acc[k] = acc.get(k, 0) + ca * cb
    return _reduce(acc, mod)


def _pow(a: Series, e: int, mod: int) -> Series:
    out = None
    for _ in range(e):
        out = a if out is None else _mul(out, a, mod)
    return out


def _scale(a: Series, f: Fraction) -> Series:
    return {tuple(x * f for x in k): c for k, c in a.items()}


def _lin(terms, mod: int) -> Series:
    """sum of coeff * series, mod ``mod``."""
    acc: Series = {}
    for coeff, s in terms:
        for k, c in s.items():
            acc[k] = acc.get(k, 0) + coeff * c
    return _reduce(acc, mod)


def _frobenius_step(chain: List[Series], p: int, n: int) -> List[Series]:
    """Link i, X_i^(p^(n-1-i)) mod p^(n-i), to X_i^(p^(n-i)) mod p^(n-i+1)."""
    return [_pow(x, p, p ** (n - i + 1)) for i, x in enumerate(chain)]


def ghost(cs: List[Series], p: int) -> List[Series]:
    """Ghost components w_n mod p^(n+1) of Teichmuller coordinates cs."""
    ws: List[Series] = []
    chain: List[Series] = []
    for n, c in enumerate(cs):
        chain = _frobenius_step(chain, p, n) + [_scale(c, Fraction(p ** n))]
        ws.append(_lin([(p ** i, x) for i, x in enumerate(chain)], p ** (n + 1)))
    return ws


def unghost(ws: List[Series], p: int) -> List[Series]:
    """Teichmuller coordinates of the Witt vector with ghost components ws."""
    ss: List[Series] = []
    chain: List[Series] = []
    for n, w in enumerate(ws):
        chain = _frobenius_step(chain, p, n)
        acc = _lin([(1, w)] + [(-p ** i, x) for i, x in enumerate(chain)],
                   p ** (n + 1))
        assert all(c % p ** n == 0 for c in acc.values()), "not a ghost vector"
        ss.append(_reduce({k: c // p ** n for k, c in acc.items()}, p))
        chain.append(ss[-1])
    return [_scale(s, Fraction(1, p ** n)) for n, s in enumerate(ss)]


def oracle_add(xs, ys, p):
    return unghost([_lin([(1, a), (1, b)], p ** (n + 1)) for n, (a, b)
                    in enumerate(zip(ghost(xs, p), ghost(ys, p)))], p)


def oracle_sub(xs, ys, p):
    return unghost([_lin([(1, a), (-1, b)], p ** (n + 1)) for n, (a, b)
                    in enumerate(zip(ghost(xs, p), ghost(ys, p)))], p)


def oracle_neg(xs, p):
    return unghost([_lin([(-1, a)], p ** (n + 1))
                    for n, a in enumerate(ghost(xs, p))], p)


def oracle_mul(xs, ys, p):
    return unghost([_mul(a, b, p ** (n + 1)) for n, (a, b)
                    in enumerate(zip(ghost(xs, p), ghost(ys, p)))], p)


def oracle_div(hs, gs, p):
    """hs / gs at len(hs) levels, for gs[0] one monomial u t^e; gs is read
    as zero past its end.  On each ghost component w = X_0^(p^n) (1 - r)
    with r in pZ[t^Gamma], so 1/w = X_0^(-p^n) sum_{k<=n} r^k mod p^(n+1)."""
    n_levels = len(hs)
    gs = (list(gs) + [{}] * n_levels)[:n_levels]
    (e, u), = gs[0].items()
    out = []
    for n, (wh, wg) in enumerate(zip(ghost(hs, p), ghost(gs, p))):
        mod = p ** (n + 1)
        inv = {tuple(-x * p ** n for x in e): pow(u, -p ** n, mod)}
        one = {tuple(Fraction(0) for _ in e): 1}
        r = _lin([(1, one), (-1, _mul(inv, wg, mod))], mod)
        s = one
        for _ in range(n):
            s = _lin([(1, one), (1, _mul(r, s, mod))], mod)
        out.append(_mul(_mul(wh, inv, mod), s, mod))
    return unghost(out, p)


def digits(v, lo: Optional[int] = None, hi: Optional[int] = None):
    """A Witt vector's Teichmuller coordinates at levels lo .. hi - 1 (by
    default its own window), each as a dict; exact zero below p_min."""
    lo = v.p_min if lo is None else lo
    hi = v.prec_n if hi is None else hi
    out = []
    for level in range(lo, hi):
        c = v.coord(level)
        assert c.prec is None, "the oracle takes exact coordinates"
        out.append({g.as_fractions(): u for g, u in c.terms})
    return out
