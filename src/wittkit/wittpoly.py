"""Universal p-typical Witt polynomials, reduced mod p.

The addition, multiplication and negation laws are computed from the ghost
recursion: with w_n = sum_{i<=n} p^i X_i^(p^(n-i)),

    S_n = (w_n(X) + w_n(Y) - sum_{i<n} p^i S_i^(p^(n-i))) / p^n
    P_n = (w_n(X) * w_n(Y) - sum_{i<n} p^i P_i^(p^(n-i))) / p^n
    N_n = (-w_n(X)         - sum_{i<n} p^i N_i^(p^(n-i))) / p^n

The division is exact; we assert this during construction.  Only the mod-p
reductions are stored.  All intermediate arithmetic happens mod p^(n+1),
which is enough: a polynomial known mod p determines its p^k-th power mod
p^(k+1).

Tables are memoized process-wide per prime and grown lazily up to a level
cap (default 6, override via the AINF_TABLE_CAP environment variable).

Evaluation computes each coordinate power x_i^e once: ``eval_poly`` takes a
power cache, and one ring operation shares a single cache across all of its
levels, since every level reads the same coordinates.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple

from .errors import TableCapError
from .hahn import HahnSeries
from .values import GammaElt

# A monomial is a sorted tuple of ((side, index), exponent) pairs with
# side in {"x", "y"}; a polynomial maps monomials to nonzero coefficients.
Var = Tuple[str, int]
Monomial = Tuple[Tuple[Var, int], ...]
Poly = Dict[Monomial, int]

DEFAULT_LEVEL_CAP = 6


def table_level_cap() -> int:
    return int(os.environ.get("AINF_TABLE_CAP", DEFAULT_LEVEL_CAP))


def poly_var(side: str, i: int) -> Poly:
    return {(((side, i), 1),): 1}


def poly_add(a: Poly, b: Poly, mod: int) -> Poly:
    out = dict(a)
    for m, c in b.items():
        v = (out.get(m, 0) + c) % mod
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def poly_scale(a: Poly, k: int, mod: int) -> Poly:
    out = {}
    for m, c in a.items():
        v = (c * k) % mod
        if v:
            out[m] = v
    return out


def poly_mul(a: Poly, b: Poly, mod: int) -> Poly:
    out: Poly = {}
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


def poly_pow(a: Poly, e: int, mod: int) -> Poly:
    out: Poly = {(): 1}
    base = a
    while e:
        if e & 1:
            out = poly_mul(out, base, mod)
        base = poly_mul(base, base, mod) if e > 1 else base
        e >>= 1
    return out


def _ghost(side: str, n: int, p: int, mod: int) -> Poly:
    out: Poly = {}
    for i in range(n + 1):
        mono = (((side, i), p ** (n - i)),)
        out = poly_add(out, {mono: pow(p, i, mod)}, mod)
    return out


def _div_exact(a: Poly, pn: int, mod: int, p: int) -> Poly:
    """Divide by p^n inside Z/mod, asserting exactness; result is mod p."""
    out: Poly = {}
    for m, c in a.items():
        assert c % pn == 0, f"ghost recursion division not exact at {m}"
        v = (c // pn) % p
        if v:
            out[m] = v
    return out


class WittPolyTable:
    """Lazily grown mod-p Witt structure polynomials for one prime."""

    def __init__(self, p: int):
        self.p = p
        self.add_polys: List[Poly] = []
        self.mul_polys: List[Poly] = []
        self.neg_polys: List[Poly] = []
        self._lock = threading.Lock()

    def ensure(self, levels: int) -> None:
        """Make levels 0..levels-1 of all three families available."""
        cap = table_level_cap()
        if levels > cap:
            raise TableCapError(
                f"requested {levels} Witt levels, cap is {cap} "
                f"(set AINF_TABLE_CAP to override)"
            )
        with self._lock:
            while len(self.add_polys) < levels:
                self._build_level(len(self.add_polys))

    def _build_level(self, n: int) -> None:
        p = self.p
        mod = p ** (n + 1)
        wx = _ghost("x", n, p, mod)
        wy = _ghost("y", n, p, mod)

        def close(prev: List[Poly], target: Poly) -> Poly:
            acc = dict(target)
            for i in range(n):
                lifted = poly_pow(prev[i], p ** (n - i), mod)
                acc = poly_add(acc, poly_scale(lifted, -(p ** i) % mod, mod), mod)
            return _div_exact(acc, p ** n, mod, p)

        self.add_polys.append(close(self.add_polys, poly_add(wx, wy, mod)))
        self.mul_polys.append(close(self.mul_polys, poly_mul(wx, wy, mod)))
        self.neg_polys.append(close(self.neg_polys, poly_scale(wx, -1, mod)))


_tables: Dict[int, WittPolyTable] = {}
_tables_lock = threading.Lock()


def get_table(p: int) -> WittPolyTable:
    with _tables_lock:
        if p not in _tables:
            _tables[p] = WittPolyTable(p)
        return _tables[p]


def _hs_pow(s: HahnSeries, e: int, p: int) -> HahnSeries:
    """s**e (e >= 1) in characteristic p, using Frobenius for the p-power part."""
    out = None
    k = 0
    while e:
        e, r = divmod(e, p)
        if r:
            f = s.frobenius_iter(k) ** r
            out = f if out is None else out * f
        k += 1
    return out


def eval_poly(poly: Poly, xs: List[HahnSeries], ys: List[HahnSeries],
              p: int, group: str,
              powers: Optional[Dict[Tuple[Var, int], Optional[HahnSeries]]] = None
              ) -> HahnSeries:
    """Evaluate a mod-p table polynomial on Witt coordinates.

    ``powers`` caches each factor power by ``((side, i), e)``; pass the same
    dict to every call that reads the same ``xs`` and ``ys``.  An exactly
    zero coordinate is cached as ``None`` and its monomials are skipped: an
    exact zero factor makes the monomial exactly zero.  A zero that carries
    a cap is multiplied like any other factor, so its cap propagates.
    """
    if powers is None:
        powers = {}
    # The monomials are summed in one construction at the end; that equals
    # adding them one at a time, since coefficients merge mod p and a
    # running cap can only fall to the least cap.
    terms: List[Tuple[GammaElt, int]] = []
    prec = None
    for mono, coeff in poly.items():
        coeff %= p
        if not coeff:
            continue
        term = None
        for factor in mono:
            if factor in powers:
                f = powers[factor]
            else:
                (side, i), e = factor
                s = xs[i] if side == "x" else ys[i]
                f = None if s.is_zero() and s.is_exact() else _hs_pow(s, e, p)
                powers[factor] = f
            if f is None:
                break
            term = f if term is None else term * f
        else:
            if term is None:  # the constant monomial
                term = HahnSeries.one(p, group)
            terms.extend((g, c * coeff) for g, c in term.terms)
            if term.prec is not None:
                prec = term.prec if prec is None else min(prec, term.prec)
    return HahnSeries(p, group, tuple(terms), prec)
