"""Exact arithmetic in the totally ordered abelian groups used as value groups.

Three variants are supported:

* ``Rat``  -- arbitrary rationals;
* ``Zp1``  -- the subclass of ``Rat`` whose denominators are powers of p (the
  group Z[1/p]); it adds only that check;
* ``Lex``  -- ordered pairs of Z[1/p] elements compared lexicographically,
  first coordinate dominant (rank-2 value group with one infinitesimal level).

All values are immutable; mixing variants (or primes) raises
:class:`GroupMismatchError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from math import isqrt
from typing import Union

from .errors import GroupMismatchError


def is_prime(p) -> bool:
    """True iff p is an int (not a bool) and a prime: the check every parser
    of a prime runs, since p < 2 loops the Z[1/p] test."""
    return type(p) is int and p >= 2 and all(p % k for k in range(2, isqrt(p) + 1))


def _is_power_of(n: int, p: int) -> bool:
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def in_value_group(x: Fraction, p: int) -> bool:
    """True iff the reduced rational x lies in Z[1/p]."""
    if type(x) is not Fraction:
        x = Fraction(x)
    return _is_power_of(x.denominator, p)


@total_ordering
@dataclass(frozen=True)
class Rat:
    """Arbitrary exact rational group element.

    Arithmetic returns ``type(self)`` and refuses operands of another exact
    type, so a subclass that narrows the group (``Zp1``) stays closed.
    """

    value: Fraction
    p: int
    variant = "Rat"

    def __post_init__(self):
        if type(self.value) is not Fraction:
            object.__setattr__(self, "value", Fraction(self.value))

    @classmethod
    def from_fraction(cls, q, p: int) -> "Rat":
        return cls(Fraction(q), p)

    @classmethod
    def from_json(cls, obj, p: int) -> "Rat":
        if not (isinstance(obj, dict) and type(obj.get("num")) is int
                and type(obj.get("den")) is int and obj["den"] != 0):
            raise ValueError(f"expected {{'num': int, 'den': nonzero int}}, got {obj!r}")
        return cls(Fraction(obj["num"], obj["den"]), p)

    def _check(self, other: "Rat") -> None:
        if type(other) is not type(self) or other.p != self.p:
            raise GroupMismatchError(f"cannot combine {self!r} with {other!r}")

    def __add__(self, other: "Rat") -> "Rat":
        self._check(other)
        return type(self)(self.value + other.value, self.p)

    def __sub__(self, other: "Rat") -> "Rat":
        self._check(other)
        return type(self)(self.value - other.value, self.p)

    def __neg__(self) -> "Rat":
        return type(self)(-self.value, self.p)

    def __lt__(self, other: "Rat") -> bool:
        self._check(other)
        return self.value < other.value

    def scale_p(self, e: int) -> "Rat":
        """Multiply by p**e (Z[1/p] is closed under this for any e)."""
        q, p = self.value, self.p
        return type(self)(q * p ** e if e >= 0 else q / p ** -e, p)

    def reaches(self, target: "Rat") -> bool:
        """For self > 0: whether some k*self (k >= 1) is >= target."""
        return True

    def is_zero(self) -> bool:
        return self.value == 0

    def sign(self) -> int:
        return (self.value > 0) - (self.value < 0)

    def as_fractions(self) -> tuple:
        return (self.value,)

    def to_json(self):
        return {"num": self.value.numerator, "den": self.value.denominator}

    def __repr__(self):
        return f"{self.variant}({self.value})"


class Zp1(Rat):
    """Element of Z[1/p]: a ``Rat`` whose reduced denominator is a power of p."""

    variant = "Zp1"

    def __post_init__(self):  # repeats Rat's, so one call per construction
        if type(self.value) is not Fraction:
            object.__setattr__(self, "value", Fraction(self.value))
        if not in_value_group(self.value, self.p):
            raise ValueError(f"{self.value} is not in Z[1/{self.p}]")


@total_ordering
@dataclass(frozen=True)
class Lex:
    """Lexicographic pair of Z[1/p] elements; the first coordinate dominates."""

    hi: Zp1
    lo: Zp1
    variant = "Lex"

    def __post_init__(self):
        if self.hi.p != self.lo.p:
            raise GroupMismatchError("lex coordinates must share the prime")

    @property
    def p(self) -> int:
        return self.hi.p

    @classmethod
    def from_fraction(cls, q, p: int) -> "Lex":
        return cls(Zp1(q, p), Zp1(0, p))

    @classmethod
    def from_json(cls, obj, p: int) -> "Lex":
        if not isinstance(obj, dict):
            raise ValueError(f"expected {{'hi': ..., 'lo': ...}}, got {obj!r}")
        return cls(Zp1.from_json(obj.get("hi"), p), Zp1.from_json(obj.get("lo"), p))

    _check = Rat._check

    def __add__(self, other: "Lex") -> "Lex":
        self._check(other)
        return Lex(self.hi + other.hi, self.lo + other.lo)

    def __sub__(self, other: "Lex") -> "Lex":
        self._check(other)
        return Lex(self.hi - other.hi, self.lo - other.lo)

    def __neg__(self) -> "Lex":
        return Lex(-self.hi, -self.lo)

    def __lt__(self, other: "Lex") -> bool:
        self._check(other)
        return (self.hi.value, self.lo.value) < (other.hi.value, other.lo.value)

    def scale_p(self, e: int) -> "Lex":
        return Lex(self.hi.scale_p(e), self.lo.scale_p(e))

    def reaches(self, target: "Lex") -> bool:
        """For self > 0: whether some k*self (k >= 1) is >= target.  An
        infinitesimal self (hi == 0) never reaches a target with hi > 0."""
        return self.hi.sign() > 0 or target.hi.sign() <= 0

    def is_zero(self) -> bool:
        return self.hi.is_zero() and self.lo.is_zero()

    def sign(self) -> int:
        s = self.hi.sign()
        return s if s != 0 else self.lo.sign()

    def as_fractions(self) -> tuple:
        return (self.hi.value, self.lo.value)

    def to_json(self):
        return {"hi": self.hi.to_json(), "lo": self.lo.to_json()}

    def __repr__(self):
        return f"Lex({self.hi.value},{self.lo.value})"


GammaElt = Union[Zp1, Rat, Lex]


def gamma_cmp(x: GammaElt, y: GammaElt) -> int:
    """Total-order comparison; returns -1, 0 or 1."""
    if x < y:
        return -1
    if y < x:
        return 1
    return 0


def gamma_scale_int(x: GammaElt, k: int) -> GammaElt:
    """k-fold sum of x for a nonnegative integer k."""
    if k < 0:
        raise ValueError("nonnegative multiplier required")
    out = gamma_zero(x.variant, x.p)
    for _ in range(k):
        out = out + x
    return out


_VARIANTS = {"Zp1": Zp1, "Rat": Rat, "Lex": Lex}


def _variant(name: str):
    try:
        return _VARIANTS[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown variant {name!r}") from None


@lru_cache(maxsize=None)
def gamma_zero(variant: str, p: int) -> GammaElt:
    """The group's zero; memoised, since group elements are immutable."""
    return _variant(variant).from_fraction(0, p)


def gamma_from_fraction(q, variant: str, p: int) -> GammaElt:
    """Build a scalar group element from a rational (hi coordinate for Lex)."""
    return _variant(variant).from_fraction(q, p)


def lex(hi, lo, p: int) -> Lex:
    return Lex(Zp1(Fraction(hi), p), Zp1(Fraction(lo), p))


def gamma_from_json(obj, variant: str, p: int) -> GammaElt:
    """Parse ``to_json`` output; malformed input raises ``ValueError``."""
    return _variant(variant).from_json(obj, p)
