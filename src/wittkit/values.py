"""Exact arithmetic in the totally ordered abelian groups used as value groups.

Three variants are supported:

* ``Rat``  -- arbitrary rationals;
* ``Zp1``  -- the subclass of ``Rat`` whose denominators are powers of p (the
  group Z[1/p]); it adds only that check, run on every construction;
* ``Lex``  -- ordered pairs of Z[1/p] elements compared lexicographically,
  first coordinate dominant (rank-2 value group with one infinitesimal level).

A ``Rat`` or ``Zp1`` is a reduced pair of ints ``num``/``den`` with den > 0,
so sums, comparisons and hashes are integer operations; ``Fraction`` only
parses constructor input and gives the derived ``value``.  All values are
immutable; mixing variants (or primes) raises :class:`GroupMismatchError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from math import gcd, isqrt
from typing import Tuple, Union

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


def _reduced(num: int, den: int) -> Tuple[int, int]:
    """num/den in lowest terms, for den > 0."""
    g = gcd(num, den)
    return (num, den) if g == 1 else (num // g, den // g)


def _sum(a: int, b: int, c: int, d: int) -> Tuple[int, int]:
    """a/b + c/d in lowest terms, for reduced operands with b, d > 0."""
    if b == d:
        return (a + c, 1) if b == 1 else _reduced(a + c, b)
    return _reduced(a * d + b * c, b * d)


@total_ordering
@dataclass(frozen=True, init=False)
class Rat:
    """Arbitrary exact rational group element num/den, stored reduced with
    den > 0, so the generated equality and hash compare the pair.

    Arithmetic returns ``type(self)`` and refuses operands of another exact
    type, so a subclass that narrows the group (``Zp1``) stays closed.
    """

    num: int
    den: int
    p: int
    variant = "Rat"

    def __init__(self, value, p: int):
        q = Fraction(value)
        fields = self.__dict__  # frozen: written here and in _of only, once
        fields["num"], fields["den"], fields["p"] = q.numerator, q.denominator, p
        self.__post_init__()

    @classmethod
    def _of(cls, num: int, den: int, p: int) -> "Rat":
        """The element num/den from a reduced pair with den > 0: every
        arithmetic result is built here, without parsing."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["num"], fields["den"], fields["p"] = num, den, p
        self.__post_init__()
        return self

    def __post_init__(self):
        """Runs once per construction; ``Zp1`` checks its group here."""

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    @classmethod
    def from_fraction(cls, q, p: int) -> "Rat":
        return cls(q, p)

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
        # _check's test inline: these run for every exponent sum and compare
        if type(other) is not type(self) or other.p != self.p:
            self._check(other)
        return self._of(*_sum(self.num, self.den, other.num, other.den), self.p)

    def __sub__(self, other: "Rat") -> "Rat":
        if type(other) is not type(self) or other.p != self.p:
            self._check(other)
        return self._of(*_sum(self.num, self.den, -other.num, other.den), self.p)

    def __neg__(self) -> "Rat":
        return self._of(-self.num, self.den, self.p)

    def __lt__(self, other: "Rat") -> bool:
        if type(other) is not type(self) or other.p != self.p:
            self._check(other)
        return self.num * other.den < other.num * self.den

    def scale_p(self, e: int) -> "Rat":
        """Multiply by p**e (Z[1/p] is closed under this for any e)."""
        if e == 0:
            return self
        num, den, p = self.num, self.den, self.p
        if e > 0:
            return self._of(*_reduced(num * p ** e, den), p)
        return self._of(*_reduced(num, den * p ** -e), p)

    def reaches(self, target: "Rat") -> bool:
        """For self > 0: whether some k*self (k >= 1) is >= target."""
        return True

    def is_zero(self) -> bool:
        return self.num == 0

    def sign(self) -> int:
        return (self.num > 0) - (self.num < 0)

    def as_fractions(self) -> tuple:
        return (self.value,)

    def to_json(self):
        return {"num": self.num, "den": self.den}

    def _text(self) -> str:
        """As ``str`` of the equal Fraction: ``num`` or ``num/den``."""
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"

    def __repr__(self):
        return f"{self.variant}({self._text()})"


class Zp1(Rat):
    """Element of Z[1/p]: a ``Rat`` whose reduced denominator is a power of p."""

    variant = "Zp1"

    def __post_init__(self):  # replaces Rat's, so one call per construction
        if not _is_power_of(self.den, self.p):
            raise ValueError(f"{self._text()} is not in Z[1/{self.p}]")


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
        return (self.hi, self.lo) < (other.hi, other.lo)

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
        return f"Lex({self.hi._text()},{self.lo._text()})"


GammaElt = Union[Zp1, Rat, Lex]


def gamma_cmp(x: GammaElt, y: GammaElt) -> int:
    """Total-order comparison; returns -1, 0 or 1."""
    if x < y:
        return -1
    if y < x:
        return 1
    return 0


def gamma_scale_int(x: GammaElt, k: int) -> GammaElt:
    """k-fold sum of x for a nonnegative integer k: one multiplication of
    the numerator (of each coordinate for Lex)."""
    if k < 0:
        raise ValueError("nonnegative multiplier required")
    if type(x) is Lex:
        return Lex(gamma_scale_int(x.hi, k), gamma_scale_int(x.lo, k))
    return x._of(*_reduced(x.num * k, x.den), x.p)


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
    return Lex(Zp1(hi, p), Zp1(lo, p))


def gamma_from_json(obj, variant: str, p: int) -> GammaElt:
    """Parse ``to_json`` output; malformed input raises ``ValueError``."""
    return _variant(variant).from_json(obj, p)
