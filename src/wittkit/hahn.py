"""Finite-support Hahn series over F_p with exact group-valued exponents.

A series is a finite strictly-increasing list of ``(exponent, coefficient)``
terms with coefficients in F_p \\ {0}, plus an optional exponent cap ``prec``:
the element is known modulo t**prec.  ``prec is None`` means the series is
exact.  The model is perfect: Frobenius scales exponents by p and admits an
exact p-th root.  ``invert`` is the package's one series inverse.

:class:`Keys` owns the int key format of exponents, which the Witt kernels
use too.  A product, a power or an inverse computes on keys and builds its
result and the exponents it keeps by ``_of``, unchecked; a product of two
exact monomials adds its two exponents and packs nothing.  Negation,
Frobenius and the zero are built by ``_of`` too; a sum, which merges terms,
and the public constructors run ``__post_init__``.

``_mul`` and ``_power`` multiply series on int keys whose coefficients are
taken mod p^k, as dicts: the exact Witt kernel ``witt._Digits`` computes in
(Z/p^N)((t^Gamma)) with them, and the table builder ``wittpoly``, on
monomials packed into ints, with a guard against field overflow.
``_key_mul`` and ``_key_pow`` are the product and power of series over F_p
on keys with a cap, the one home of the cap rule: ``HahnSeries.__mul__``,
``__pow__`` and ``invert`` pack by ``Keys``, call them and unpack, and
``wittpoly.eval_poly`` evaluates the structure polynomials with them.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, Iterable, Optional, Tuple

from .errors import GroupMismatchError, PrecisionError, ZeroSeriesError
from .values import (Frozen, GammaElt, Lex, Rat, Zp1, _reduced, _set_slots,
                     _variant, gamma_from_json, gamma_scale_int, gamma_zero,
                     is_prime)

Term = Tuple[GammaElt, int]
# key -> coefficient mod p^k, the operands of ``_mul`` and ``_power``
Packed = Dict[int, int]
# (key -> coefficient in 1..p-1, cap key or None): a series on keys, the
# operands of ``_key_mul`` and ``_key_pow``
KeySeries = Tuple[Packed, Optional[int]]


def _min_prec(a: Optional[GammaElt], b: Optional[GammaElt]) -> Optional[GammaElt]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _mul(a: Packed, b: Packed, mod: int, guard: int = 0,
         stop: Optional[int] = None) -> Packed:
    """a * b mod ``mod``, a square visiting each unordered pair once; every
    key formed must leave the bits of ``guard`` clear, and no key at or
    above ``stop`` is kept."""
    acc: Packed = {}
    get = acc.get
    if a is b:
        items = list(a.items())
        for k, (ma, ca) in enumerate(items):
            m = ma + ma
            acc[m] = get(m, 0) + ca * ca
            ca += ca
            for mb, cb in items[k + 1:]:
                m = ma + mb
                acc[m] = get(m, 0) + ca * cb
    else:
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                acc[m] = get(m, 0) + ca * cb
    assert not guard or not any(m & guard for m in acc), \
        "exponent overflowed its field"
    if stop is None:
        return {m: r for m, c in acc.items() if (r := c % mod)}
    return {m: r for m, c in acc.items() if m < stop and (r := c % mod)}


def _power(a: Packed, e: int, mod: int, guard: int = 0) -> Packed:
    """a^e mod ``mod`` by squaring, for e >= 1."""
    if e == 1:
        return a
    half = _power(a, e // 2, mod, guard)
    sq = _mul(half, half, mod, guard)
    return _mul(sq, a, mod, guard) if e & 1 else sq


def _key_mul(a: KeySeries, b: KeySeries, p: int,
             stop: Optional[int] = None) -> KeySeries:
    """a * b over F_p on keys.  Error propagation: a cap on one factor is
    shifted by the other factor's floor (its least key, or its cap when it
    is zero up to the cap), and an exactly zero factor kills the error; no
    key at or above the cap is kept, nor any at or above ``stop``, which
    leaves the cap as it is."""
    (ta, ca), (tb, cb) = a, b
    cap = None
    if ca is not None and (tb or cb is not None):
        cap = ca + (min(tb) if tb else cb)
    if cb is not None and (ta or ca is not None):
        c = cb + (min(ta) if ta else ca)
        if cap is None or c < cap:
            cap = c
    if stop is None or (cap is not None and cap < stop):
        stop = cap
    return _mul(ta, tb, p, 0, stop), cap


def _key_pow(a: KeySeries, e: int, p: int) -> KeySeries:
    """a^e for e >= 1 by the base-p digits of e: a^(r p^k) is the Frobenius
    image of a, keys and cap times p^k, to the r, which keeps the whole cap
    where more products would not."""
    out = None
    pk = 1
    while e:
        e, r = divmod(e, p)
        if r:
            base = a
            if pk > 1:
                terms, cap = a
                base = ({k * pk: c for k, c in terms.items()},
                        None if cap is None else cap * pk)
            while r:
                if r & 1:
                    out = base if out is None else _key_mul(out, base, p)
                r >>= 1
                if r:
                    base = _key_mul(base, base, p)
        pk *= p
    return out


class HahnSeries(Frozen):
    p: int
    group: str  # "Zp1" | "Rat" | "Lex"
    terms: Tuple[Term, ...]
    prec: Optional[GammaElt]
    __slots__ = ("p", "group", "terms", "prec")

    def __init__(self, p, group, terms, prec=None):
        _set_p(self, p)
        _set_group(self, group)
        _set_terms(self, terms)
        _set_prec(self, prec)
        self.__post_init__()

    @staticmethod
    def _of(p: int, group: str, terms: Tuple[Term, ...],
            prec: Optional[GammaElt] = None) -> "HahnSeries":
        """The series of terms that are already canonical: exponents of the
        group, strictly increasing, below ``prec``, coefficients in 1..p-1.
        Built without ``__post_init__``, which would check each term
        again."""
        self = object.__new__(HahnSeries)
        _set_p(self, p)
        _set_group(self, group)
        _set_terms(self, terms)
        _set_prec(self, prec)
        return self

    def __post_init__(self):
        """Runs once per construction: checks every term's group and prime,
        merges and sorts non-canonical terms, and drops terms at or above
        prec.  A product computes on keys that do not carry the prime, so
        no series may hold an exponent of another one."""
        p, group = self.p, self.group
        canonical = True
        prev = None
        for g, c in self.terms:
            if g.variant != group or g.p != p:
                raise GroupMismatchError(
                    f"exponent {g!r} over p={g.p} in a series of {group} "
                    f"over p={p}")
            if canonical and not (0 < c < p and (prev is None or prev < g)):
                canonical = False
            prev = g
        kept = self.terms
        if not canonical:
            merged = {}
            for g, c in kept:
                merged[g] = (merged.get(g, 0) + c) % p
            kept = sorted(
                ((g, c) for g, c in merged.items() if c != 0),
                key=lambda t: t[0],
            )
        if self.prec is not None:
            kept = [(g, c) for g, c in kept if g < self.prec]
        _set_terms(self, tuple(kept))

    __setstate__ = _set_slots

    def __eq__(self, other):
        if type(other) is not HahnSeries:
            return NotImplemented
        return (self.p == other.p and self.group == other.group
                and self.terms == other.terms and self.prec == other.prec)

    def __hash__(self):
        return hash((self.p, self.group, self.terms, self.prec))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(p: int, group: str, prec: Optional[GammaElt] = None) -> "HahnSeries":
        return HahnSeries._of(p, group, (), prec)

    @staticmethod
    def one(p: int, group: str) -> "HahnSeries":
        return HahnSeries._of(p, group, ((gamma_zero(group, p), 1),))

    @staticmethod
    def t_pow(p: int, gamma: GammaElt, coeff: int = 1) -> "HahnSeries":
        """The monomial coeff * t**gamma."""
        return HahnSeries(p, gamma.variant, ((gamma, coeff % p),))

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        """Zero at the stored precision (exactly zero when prec is None)."""
        return not self.terms

    def is_exact(self) -> bool:
        return self.prec is None

    def valuation(self) -> Optional[GammaElt]:
        """Least exponent, or None for a series that is zero at precision."""
        return self.terms[0][0] if self.terms else None

    def val_ge_zero(self) -> Optional[bool]:
        """Three-valued v(self) >= 0; None when the cap hides the sign."""
        if self.terms:
            return self.terms[0][0].sign() >= 0
        if self.prec is None:
            return True
        return True if self.prec.sign() >= 0 else None

    def val_gt_zero(self) -> Optional[bool]:
        if self.terms:
            return self.terms[0][0].sign() > 0
        if self.prec is None:
            return True
        return True if self.prec.sign() > 0 else None

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "HahnSeries") -> None:
        if self.p != other.p or self.group != other.group:
            raise GroupMismatchError(
                f"cannot combine series over (p={self.p},{self.group}) "
                f"and (p={other.p},{other.group})"
            )

    def __add__(self, other: "HahnSeries") -> "HahnSeries":
        self._check(other)
        return HahnSeries(
            self.p, self.group, self.terms + other.terms, _min_prec(self.prec, other.prec)
        )

    def __neg__(self) -> "HahnSeries":
        p = self.p
        return HahnSeries._of(p, self.group, tuple([(g, p - c) for g, c in self.terms]),
                              self.prec)

    def __sub__(self, other: "HahnSeries") -> "HahnSeries":
        return self + (-other)

    def __mul__(self, other: "HahnSeries") -> "HahnSeries":
        """The product: t^(g+h) with coefficient c d for exact monomials,
        otherwise ``_key_mul`` on the keys of one ``Keys``."""
        self._check(other)
        p, a, b = self.p, self.terms, other.terms
        if (len(a) == 1 and len(b) == 1 and self.prec is None
                and other.prec is None):
            (g, c), = a
            (h, d), = b
            return HahnSeries._of(p, self.group, ((g + h, c * d % p),))
        keys = Keys(p, self.group, (self, other))
        terms, cap = _key_mul(keys.keyed(self), keys.keyed(other), p)
        return keys.series(sorted(terms.items()), cap)

    def __pow__(self, e: int) -> "HahnSeries":
        """self**e by ``_key_pow``; the 0th power is the exact one."""
        if e < 0:
            raise ValueError("negative powers: use invert()")
        if not e:
            return HahnSeries.one(self.p, self.group)
        keys = Keys(self.p, self.group, (self,), sums=e)
        terms, cap = _key_pow(keys.keyed(self), e, self.p)
        return keys.series(sorted(terms.items()), cap)

    def invert(self, gamma_prec: Optional[GammaElt] = None,
               refs: Iterable["HahnSeries"] = ()) -> "HahnSeries":
        """Inverse b of self: exact when self is an exact monomial, otherwise
        known modulo t**(gamma_prec - v(self)), so self*b == 1 modulo
        t**gamma_prec.  Without gamma_prec the target is ``inverse_target``
        of self against the caller's reference coordinates ``refs``.

        Factors out the leading monomial, self = c0 t^g0 (1 + u) with
        v(u) > 0, and sums the geometric series of -u on the int keys of one
        ``Keys`` over self's exponents, its cap and the target: u is
        self's keys moved by g0's, each power is one ``_key_mul`` cut at the
        target, and the powers add into one dict whose cap is the least
        power cap seen.  The series stops at the first power with no key
        below the target, whose cap counts too: a capped zero still caps
        the sum, and a power with terms at or above the target has its cap
        above them, where the target cuts anyway.  The sum is moved back by
        -g0, cut at min(cap, gamma_prec - g0) and read back by
        ``Keys.series``.  Over ``Lex`` the keys take 2 n + 2 exponents per
        key for the n powers of u that can fall below the target
        (``_lex_steps``): a key of u sums two, the n-th power's
        keys moved back by -g0 sum 2 n + 1, and the power after it, the
        first with no key below the target, 2 n + 2; a capped zero u counts
        as one power, as its cap moved back sums three.

        Raises ZeroSeriesError for the exact zero, and PrecisionError when a
        cap hides the leading term or no power of the tail reaches the
        target (an infinitesimal tail on Lex).
        """
        if self.is_zero():
            if self.is_exact():
                raise ZeroSeriesError("cannot invert the zero series")
            raise PrecisionError(f"leading term hidden by the cap t^({self.prec!r})")
        p, group, terms, prec = self.p, self.group, self.terms, self.prec
        g0, c0 = terms[0]
        c0_inv = pow(c0, -1, p)
        if len(terms) == 1 and prec is None:
            return HahnSeries._of(p, group, ((-g0, c0_inv),))  # exact, no cap needed
        if gamma_prec is None:
            gamma_prec = inverse_target(self, refs)
        g0._check(gamma_prec)
        steps = 1  # u a capped zero
        if len(terms) > 1:
            v = terms[1][0] - g0  # v(u)
            if not v.reaches(gamma_prec):
                raise PrecisionError(
                    f"no power of t^({v!r}) reaches t^({gamma_prec!r})")
            if group == "Lex":
                steps = _lex_steps(v, gamma_prec)
        keys = Keys(p, group, (self,), sums=2 * steps + 2, extra=(gamma_prec,))
        key = keys.key
        k0 = key(g0)
        neg_u = ({key(g) - k0: -c * c0_inv % p for g, c in terms[1:]},
                 None if prec is None else key(prec) - k0)
        target = key(gamma_prec)
        acc, cap, power = {0: 1}, None, ({0: 1}, None)
        get = acc.get
        while True:
            power = _key_mul(neg_u, power, p, target)
            found, c = power
            if c is not None and (cap is None or c < cap):
                cap = c
            if not found:
                break
            for k, x in found.items():
                acc[k] = get(k, 0) + x
        if cap is None or target < cap:
            cap = target
        return keys.series([(k - k0, r) for k in sorted(acc)
                            if k < cap and (r := acc[k] * c0_inv % p)], cap - k0)

    # -- perfectness -------------------------------------------------------

    def frobenius_iter(self, n: int) -> "HahnSeries":
        """Frobenius applied n times: exponents and cap scaled by p^n (n may
        be negative for p-th roots), which keeps their order."""
        terms = tuple([(g.scale_p(n), c) for g, c in self.terms])
        prec = None if self.prec is None else self.prec.scale_p(n)
        return HahnSeries._of(self.p, self.group, terms, prec)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "p": self.p,
            "group": self.group,
            "terms": [[g.to_json(), c] for g, c in self.terms],
            "prec": "exact" if self.prec is None else self.prec.to_json(),
        }

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            body = " + ".join(f"{c}*t^({g!r})" for g, c in self.terms)
        cap = "" if self.prec is None else f" mod t^({self.prec!r})"
        return f"<{body}{cap}>"


_set_p, _set_group = HahnSeries.p.__set__, HahnSeries.group.__set__
_set_terms, _set_prec = HahnSeries.terms.__set__, HahnSeries.prec.__set__


class Keys:
    """The int keys of one computation on exponents of one group and prime:
    the package's one packing of exponents into ints.

    ``Keys(p, group, series, factor, sums, extra)`` is sized for keys that
    sum at most ``sums`` of the exponents and caps of ``series`` and the
    exponents ``extra``, their differences included.  The key of t^gamma
    is gamma * D over a rank-1 group, and hi * D * M + lo * D for a ``Lex``
    exponent (hi, lo).  D is the lcm of the exponents' denominators times
    ``factor``, so every gamma * D is an int and every key / D, reduced,
    has a denominator of the group.  M is 1 over a rank-1 group and
    2 * sums * b + 1 over ``Lex``, b the largest |lo * D| among the
    exponents: a key summing at most ``sums`` of them has |lo * D| <=
    sums * b < M / 2, so lo * D is the residue of the key mod M nearest 0,
    and keys add and sort as the exponents do.

    Each exponent packed or unpacked is kept under its key, so a result
    term at a known key reuses its object; any other is built from its
    reduced pair by ``_of``, unchecked, once: D is a denominator of the
    group.  One is built per computation and fills ``gammas`` as it runs:
    a plain class, not a ``Frozen`` record, whose fields are slots, which
    the kernels read faster than a ``__dict__``."""

    p: int
    group: str
    scale: int  # D
    radix: int  # M
    gammas: Dict  # key -> exponent, for this computation only
    __slots__ = ("p", "group", "scale", "radix", "gammas")

    def __init__(self, p: int, group: str, series: Iterable[HahnSeries],
                 factor: int = 1, sums: int = 2, extra: Tuple = ()):
        # plain loops: a series product sizes a handful of exponents, where
        # building a set, a generator or one more list costs more than the lcm
        exps = [g for x in series for g, _ in x.terms]
        for x in series:
            if x.prec is not None:
                exps.append(x.prec)
        exps += extra
        scale, radix = 1, 1
        if group == "Lex":
            for g in exps:
                for x in (g.hi, g.lo):
                    if scale % x.den:
                        scale = lcm(scale, x.den)
            scale *= factor
            b = max([abs(g.lo.num) * (scale // g.lo.den) for g in exps], default=0)
            radix = 2 * sums * b + 1
        else:
            for g in exps:
                if scale % g.den:
                    scale = lcm(scale, g.den)
            scale *= factor
        self.p, self.group, self.scale, self.radix = p, group, scale, radix
        self.gammas = {}

    def key(self, g: GammaElt) -> int:
        """The key of exponent g, under which g is kept."""
        scale = self.scale
        if type(g) is Lex:
            hi, lo = g.hi, g.lo
            k = hi.num * (scale // hi.den) * self.radix + lo.num * (scale // lo.den)
        else:
            k = g.num * (scale // g.den)
        self.gammas[k] = g
        return k

    def keyed(self, s: HahnSeries) -> KeySeries:
        """The key series of s."""
        key = self.key
        return ({key(g): c for g, c in s.terms},
                None if s.prec is None else key(s.prec))

    def gamma(self, k: int) -> GammaElt:
        """The exponent of key k, built from its reduced pair, unchecked,
        and kept under k; callers look in ``gammas`` first."""
        p, scale = self.p, self.scale
        if self.group == "Lex":
            radix = self.radix
            hi = (k + radix // 2) // radix
            g = Lex._of(Zp1._of(*_reduced(hi, scale), p),
                        Zp1._of(*_reduced(k - hi * radix, scale), p))
        else:
            d = gcd(k, scale)  # _reduced inline: every result exponent comes here
            g = (Zp1 if self.group == "Zp1" else Rat)._of(k // d, scale // d, p)
        self.gammas[k] = g
        return g

    def divides(self, terms, e: int) -> bool:
        """Whether, for every key k of the (key, coefficient) ``terms``, e
        divides each coordinate of k's exponent times D, so that k // e is
        the key of that exponent over e."""
        radix = self.radix
        half = radix // 2
        return all(k % e == 0 and (k + half) // radix % e == 0 for k, _ in terms)

    def series(self, terms, cap: Optional[int]) -> HahnSeries:
        """The series of (key, coefficient) ``terms``, sorted by key, with
        coefficients in 1..p-1 and below the cap key ``cap`` (None: exact),
        built by ``HahnSeries._of``."""
        known, gamma = self.gammas.get, self.gamma
        return HahnSeries._of(self.p, self.group, tuple([
            (known(k) or gamma(k), c) for k, c in terms]),
            None if cap is None else known(cap) or gamma(cap))


def _lex_steps(v: GammaElt, target: GammaElt) -> int:
    """How many powers u^n, n >= 1, of a Lex u with v(u) = v > 0 can fall
    below a target that v reaches: those with n v.hi <= target.hi, or
    n v.lo <= target.lo when both hi are 0; an infinitesimal v is already
    above a target with hi < 0."""
    a, b = v.hi, target.hi
    if not a.num:
        if b.num:
            return 0
        a, b = v.lo, target.lo
    return max(0, b.num * a.den // (b.den * a.num))


def inverse_target(c: HahnSeries, refs: Iterable[HahnSeries] = ()) -> GammaElt:
    """Relative target precision for inverting c, from the caller's reference
    coordinates ``refs`` and c itself: the largest cap among them minus v(c);
    when all are exact, the cap is their largest exponent plus 4 times their
    exponent spread."""
    refs = (c, *refs)
    caps = [x.prec for x in refs if x.prec is not None]
    if caps:
        cap = max(caps)
    else:
        exps = [g for x in refs for g, _ in x.terms]
        cap = max(exps) + gamma_scale_int(max(exps) - min(exps), 4)
    return cap - c.valuation()


def hahn_from_json(obj) -> HahnSeries:
    """Parse ``to_json`` output; malformed input raises ``ValueError``."""
    if not (isinstance(obj, dict) and is_prime(obj.get("p"))
            and isinstance(obj.get("terms"), list)
            and all(isinstance(t, list) and len(t) == 2 and type(t[1]) is int
                    for t in obj["terms"])):
        raise ValueError(f"expected a Hahn series {{'p': prime, 'group': str, "
                         f"'terms': [[gamma, int], ...]}}, got {obj!r}")
    p, group = obj["p"], obj["group"]
    _variant(group)  # a series without terms checks its group nowhere else
    terms = tuple((gamma_from_json(g, group, p), c) for g, c in obj["terms"])
    prec = None if obj.get("prec", "exact") == "exact" else gamma_from_json(obj["prec"], group, p)
    return HahnSeries(p, group, terms, prec)
