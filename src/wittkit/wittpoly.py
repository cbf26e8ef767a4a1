"""Universal p-typical Witt polynomials, reduced mod p.

The addition, multiplication and negation laws are computed from the ghost
recursion: with w_n = sum_{i<=n} p^i X_i^(p^(n-i)),

    S_n = (w_n(X) + w_n(Y) - sum_{i<n} p^i S_i^(p^(n-i))) / p^n
    P_n = (w_n(X) * w_n(Y) - sum_{i<n} p^i P_i^(p^(n-i))) / p^n
    N_n = (-w_n(X)         - sum_{i<n} p^i N_i^(p^(n-i))) / p^n

The division is exact; we assert this during construction.  Only the mod-p
reductions are stored.  N_n is built for p = 2 only: for odd p, [-1] = -1,
so ``witt_neg`` negates coordinatewise and reads no table, and each odd-p
level stores an empty negation entry in its place.

Level n needs the sum only mod p^(n+1), hence S_i^(p^(n-i)) only mod
p^(n-i+1).  As (A + p^k B)^p = A^p mod p^(k+1), a polynomial known mod p^k
fixes its p-th power mod p^(k+1); so each family keeps the Frobenius chain
links S_i^(p^k) mod p^(k+1) and raises each to the p-th power once per level.

While building, a monomial is an int with one exponent field per variable
(x_i in field 2i, y_i in field 2i+1), so a monomial product is an integer
addition.  No exponent at level n exceeds p^n (x_i has weight p^i, and no
polynomial has weight above p^n in either side); a field holds p^n and a
guard bit that each product must leave clear, so no exponent carries into
the next field.  Levels are stored with the tuple keys below.  The
products are ``hahn._mul`` and ``_power``, with the guard.

Tables are memoized process-wide, one per prime, and grown lazily up to a
level cap of 6.  Only operands with a capped coordinate reach them: exact
operands compute as Hahn series over Z/p^N (see ``witt``), so the cap
bounds only operands with a cap, and ``witt`` imports this module only when
such an operation runs.

``eval_poly`` reads Teichmuller coordinates c_i as series on int keys
(``hahn.KeySeries``), packed once per operation by ``witt``: the Witt
coordinate X_i is c_i^(p^i), so the factor X_i^e is c_i^(e p^i), which
``hahn._key_pow`` raises by Frobenius, a key multiplication, on the digits
of e p^i.  It computes each factor power once: it takes a power cache, and
one ring operation shares a single cache across all of its levels, since
every level reads the same coordinates.  Products are ``hahn._key_mul``,
with the series cap rule, and the value is returned on keys too.  No
monomial of a table is constant, as S_n(0, 0) = P_n(0, 0) = N_n(0) = 0, so
every monomial ``eval_poly`` reads has a factor.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import TableCapError
from .hahn import KeySeries, Packed, _key_mul, _key_pow, _mul, _power

# A monomial is a sorted tuple of ((side, index), exponent) pairs with
# side in {"x", "y"}; a polynomial maps monomials to coefficients in 1..p-1.
Var = Tuple[str, int]
Monomial = Tuple[Tuple[Var, int], ...]
Poly = Dict[Monomial, int]


def table_level_cap() -> int:
    """The most levels a table grows to."""
    return 6


def _width(p: int, n: int) -> int:
    """Bits per exponent field at level n: room for p^n, then a guard bit."""
    return (p ** n).bit_length() + 1


def _repack(a: Packed, fields: int, old: int, new: int) -> Packed:
    """Move every exponent field from width ``old`` to width ``new``."""
    mask = (1 << old) - 1
    return {sum(((m >> (f * old)) & mask) << (f * new) for f in range(fields)): c
            for m, c in a.items()}


def _unpack(a: Packed, n: int, width: int) -> Poly:
    mask = (1 << width) - 1
    shifts = [((side, i), (2 * i + s) * width)
              for s, side in enumerate("xy") for i in range(n + 1)]
    return {tuple((v, e) for v, sh in shifts if (e := (m >> sh) & mask)): c
            for m, c in a.items()}


class WittPolyTable:
    """Lazily grown mod-p Witt structure polynomials for one prime."""

    def __init__(self, p: int):
        self.p = p
        self.add_polys: List[Poly] = []
        self.mul_polys: List[Poly] = []
        self.neg_polys: List[Poly] = []
        # Per family, link i is S_i^(p^k) mod p^(k+1) at k = levels built - 1 - i.
        self._chains: Tuple[List[Packed], ...] = ([], [], [])
        self._lock = threading.Lock()

    def ensure(self, levels: int) -> None:
        """Make levels 0..levels-1 of every family available."""
        cap = table_level_cap()
        if levels > cap:
            raise TableCapError(f"requested {levels} Witt levels, cap is {cap}")
        with self._lock:
            while len(self.add_polys) < levels:
                self._build_level(len(self.add_polys))

    def _build_level(self, n: int) -> None:
        p = self.p
        mod, pn = p ** (n + 1), p ** n
        width = _width(p, n)
        guard = sum(1 << (f * width + width - 1) for f in range(2 * n + 2))
        for chain in self._chains:
            for i, link in enumerate(chain):
                link = _repack(link, 2 * n, _width(p, n - 1), width)
                chain[i] = _power(link, p, p ** (n - i + 1), guard)
        wx = {p ** (n - i) << (2 * i * width): p ** i for i in range(n + 1)}
        wy = {p ** (n - i) << ((2 * i + 1) * width): p ** i for i in range(n + 1)}
        targets = [{**wx, **wy}, _mul(wx, wy, mod, guard)]
        if p == 2:
            targets.append({m: mod - c for m, c in wx.items()})
        else:  # witt_neg reads no table: keep one entry per level
            self.neg_polys.append({})
        for polys, chain, target in zip(
                (self.add_polys, self.mul_polys, self.neg_polys),
                self._chains, targets):
            acc = dict(target)
            for i, link in enumerate(chain):
                pi = p ** i
                for m, c in link.items():
                    acc[m] = acc.get(m, 0) - pi * c
            acc = {m: c % mod for m, c in acc.items()}
            assert not any(c % pn for c in acc.values()), \
                "ghost recursion division not exact"
            new = {m: c // pn for m, c in acc.items() if c}
            chain.append(new)
            polys.append(_unpack(new, n, width))


_tables: Dict[int, WittPolyTable] = {}
_tables_lock = threading.Lock()


def get_table(p: int) -> WittPolyTable:
    with _tables_lock:
        if p not in _tables:
            _tables[p] = WittPolyTable(p)
        return _tables[p]


def eval_poly(poly: Poly, xs: Sequence[Optional[KeySeries]],
              ys: Sequence[Optional[KeySeries]], p: int,
              powers: Dict[Tuple[Var, int], Union[KeySeries, int]]
              ) -> Tuple[List[Tuple[int, int]], Optional[int]]:
    """Evaluate a mod-p table polynomial on Teichmuller coordinates given as
    key series (``hahn.KeySeries``), None for an exact zero: the factor
    ``((side, i), e)`` is c_i^(e p^i), c_i = xs[i] or ys[i].  Returns the
    sorted (key, coefficient) terms and the cap key of the value.

    ``powers`` caches each factor power by ``((side, i), e)``, an exact zero
    as 0; pass the same dict to every call that reads the same ``xs`` and
    ``ys``.  A monomial with an exactly zero factor is skipped: it is
    exactly zero.  A zero that carries a cap is multiplied like any other
    factor, so its cap propagates.  The monomials add into one dict, which
    is reduced mod p and cut at the least of their caps.
    """
    acc: Packed = {}
    get, cached = acc.get, powers.get
    cap = None
    for mono, coeff in poly.items():
        term = None
        for factor in mono:
            f = cached(factor)
            if f is None:
                (side, i), e = factor
                s = xs[i] if side == "x" else ys[i]
                # an exactly zero factor power is cached as 0
                f = powers[factor] = 0 if s is None else _key_pow(s, e * p ** i, p)
            if not f:
                break
            term = f if term is None else _key_mul(term, f, p)
        else:
            terms, c = term
            for k, v in terms.items():
                acc[k] = get(k, 0) + coeff * v
            if c is not None and (cap is None or c < cap):
                cap = c
    return sorted([(k, r) for k, v in acc.items()
                   if (r := v % p) and (cap is None or k < cap)]), cap
