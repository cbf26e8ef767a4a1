"""Exact arithmetic in the totally ordered abelian groups used as value groups.

Three variants are supported:

* ``Zp1``  -- rationals whose denominator is a power of p (the group Z[1/p]);
* ``Rat``  -- arbitrary rationals;
* ``Lex``  -- ordered pairs of Z[1/p] elements compared lexicographically,
  first coordinate dominant (rank-2 value group with one infinitesimal level).

All values are immutable; mixing variants (or primes) raises
:class:`GroupMismatchError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Union

from .errors import GroupMismatchError


def _is_power_of(n: int, p: int) -> bool:
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def _times_p_power(q: Fraction, p: int, e: int) -> Fraction:
    """q * p**e for any integer e, with integer operands only."""
    return q * p ** e if e >= 0 else q / p ** -e


def in_value_group(x: Fraction, p: int) -> bool:
    """True iff the reduced rational x lies in Z[1/p]."""
    if type(x) is not Fraction:
        x = Fraction(x)
    return _is_power_of(x.denominator, p)


@total_ordering
@dataclass(frozen=True)
class Zp1:
    """Element of Z[1/p], stored as a reduced Fraction with p-power denominator."""

    value: Fraction
    p: int

    def __post_init__(self):
        if type(self.value) is not Fraction:
            object.__setattr__(self, "value", Fraction(self.value))
        if not in_value_group(self.value, self.p):
            raise ValueError(f"{self.value} is not in Z[1/{self.p}]")

    @property
    def variant(self) -> str:
        return "Zp1"

    def _check(self, other: "Zp1") -> None:
        if not isinstance(other, Zp1) or other.p != self.p:
            raise GroupMismatchError(f"cannot combine {self!r} with {other!r}")

    def __add__(self, other: "Zp1") -> "Zp1":
        self._check(other)
        return Zp1(self.value + other.value, self.p)

    def __sub__(self, other: "Zp1") -> "Zp1":
        self._check(other)
        return Zp1(self.value - other.value, self.p)

    def __neg__(self) -> "Zp1":
        return Zp1(-self.value, self.p)

    def __lt__(self, other: "Zp1") -> bool:
        self._check(other)
        return self.value < other.value

    def scale_p(self, e: int) -> "Zp1":
        """Multiply by p**e (Z[1/p] is closed under this for any e)."""
        return Zp1(_times_p_power(self.value, self.p, e), self.p)

    def is_zero(self) -> bool:
        return self.value == 0

    def sign(self) -> int:
        return (self.value > 0) - (self.value < 0)

    def as_fractions(self) -> tuple:
        return (self.value,)

    def to_json(self):
        return {"num": self.value.numerator, "den": self.value.denominator}

    def __repr__(self):
        return f"Zp1({self.value})"


@total_ordering
@dataclass(frozen=True)
class Rat:
    """Arbitrary exact rational group element."""

    value: Fraction
    p: int

    def __post_init__(self):
        if type(self.value) is not Fraction:
            object.__setattr__(self, "value", Fraction(self.value))

    @property
    def variant(self) -> str:
        return "Rat"

    def _check(self, other: "Rat") -> None:
        if not isinstance(other, Rat) or other.p != self.p:
            raise GroupMismatchError(f"cannot combine {self!r} with {other!r}")

    def __add__(self, other: "Rat") -> "Rat":
        self._check(other)
        return Rat(self.value + other.value, self.p)

    def __sub__(self, other: "Rat") -> "Rat":
        self._check(other)
        return Rat(self.value - other.value, self.p)

    def __neg__(self) -> "Rat":
        return Rat(-self.value, self.p)

    def __lt__(self, other: "Rat") -> bool:
        self._check(other)
        return self.value < other.value

    def scale_p(self, e: int) -> "Rat":
        return Rat(_times_p_power(self.value, self.p, e), self.p)

    def is_zero(self) -> bool:
        return self.value == 0

    def sign(self) -> int:
        return (self.value > 0) - (self.value < 0)

    def as_fractions(self) -> tuple:
        return (self.value,)

    def to_json(self):
        return {"num": self.value.numerator, "den": self.value.denominator}

    def __repr__(self):
        return f"Rat({self.value})"


@total_ordering
@dataclass(frozen=True)
class Lex:
    """Lexicographic pair of Z[1/p] elements; the first coordinate dominates."""

    hi: Zp1
    lo: Zp1

    def __post_init__(self):
        if self.hi.p != self.lo.p:
            raise GroupMismatchError("lex coordinates must share the prime")

    @property
    def p(self) -> int:
        return self.hi.p

    @property
    def variant(self) -> str:
        return "Lex"

    def _check(self, other: "Lex") -> None:
        if not isinstance(other, Lex) or other.p != self.p:
            raise GroupMismatchError(f"cannot combine {self!r} with {other!r}")

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


@lru_cache(maxsize=None)
def gamma_zero(variant: str, p: int) -> GammaElt:
    """The group's zero; memoised, since group elements are immutable."""
    if variant == "Zp1":
        return Zp1(Fraction(0), p)
    if variant == "Rat":
        return Rat(Fraction(0), p)
    if variant == "Lex":
        return Lex(Zp1(Fraction(0), p), Zp1(Fraction(0), p))
    raise ValueError(f"unknown variant {variant!r}")


def gamma_from_fraction(q, variant: str, p: int) -> GammaElt:
    """Build a scalar group element from a rational (hi coordinate for Lex)."""
    q = Fraction(q)
    if variant == "Zp1":
        return Zp1(q, p)
    if variant == "Rat":
        return Rat(q, p)
    if variant == "Lex":
        return Lex(Zp1(q, p), Zp1(Fraction(0), p))
    raise ValueError(f"unknown variant {variant!r}")


def lex(hi, lo, p: int) -> Lex:
    return Lex(Zp1(Fraction(hi), p), Zp1(Fraction(lo), p))


def gamma_from_json(obj, variant: str, p: int) -> GammaElt:
    if variant == "Lex":
        return Lex(
            Zp1(Fraction(obj["hi"]["num"], obj["hi"]["den"]), p),
            Zp1(Fraction(obj["lo"]["num"], obj["lo"]["den"]), p),
        )
    q = Fraction(obj["num"], obj["den"])
    return Zp1(q, p) if variant == "Zp1" else Rat(q, p)
