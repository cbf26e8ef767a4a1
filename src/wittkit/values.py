"""Exact arithmetic in the totally ordered abelian groups used as value groups.

Three variants are supported:

* ``Rat``  -- arbitrary rationals;
* ``Zp1``  -- the subclass of ``Rat`` whose denominators are powers of p (the
  group Z[1/p]); it adds only that check;
* ``Lex``  -- ordered pairs of Z[1/p] elements compared lexicographically,
  first coordinate dominant (rank-2 value group with one infinitesimal level).

A ``Rat`` or ``Zp1`` is a reduced pair of ints ``num``/``den`` with den > 0,
so sums, comparisons and hashes are integer operations; ``Fraction`` only
parses constructor input and gives the derived ``value``.  All values are
immutable (:class:`Frozen`); mixing variants (or primes) raises
:class:`GroupMismatchError`.

Each hot record has two builders.  Its public constructor checks input (a
``Rat`` its prime, a ``Zp1`` its denominator, a ``Lex`` its coordinates'
prime, a ``HahnSeries`` its terms, a ``WittVec`` its coordinates' field); the
parsers, the CLI and library callers use it.  ``_of`` builds from fields
that are already valid, without ``__post_init__``, and builds every result
of an operation on valid records: each value group is closed under +, -,
negation, p-scaling and integer multiples, so such a result is valid by
construction.

No class of the package is generated by the standard library's class
decorator, whose import loads ``inspect`` and which compiles code per class
in every fresh process.  A record declares its fields once, as annotations
read by :class:`Frozen`'s ``__init__``; only the classes built per exponent
or term (``Rat``, ``Lex``, ``HahnSeries``, ``WittVec``, ``Monomial``) write
their own.  Equality, hashing and ``repr`` exist only where used.

Those five hot classes keep their fields in ``__slots__``: exactly their
annotations, and an empty one for ``Zp1``.  So their instances have no
``__dict__``.  On CPython 3.11 a field is read from a slot about four times
faster than from an instance dict, and these reads fill the inner loops of
series products, ``eval_poly`` and the Witt digit kernel.  Their
constructors write the slots through module-level aliases of the slot
descriptors' ``__set__``, since :class:`Frozen` refuses ``setattr``, and
pickle and ``copy`` restore them by ``_set_slots``.  ``hahn.Keys`` and
``witt._Digits`` are slotted but no :class:`Frozen` records: they are
built per computation and fill a cache as it runs.  Every other record keeps a
``__dict__``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, total_ordering
from math import gcd, isqrt
from typing import Tuple, Union

from .errors import GroupMismatchError


def is_prime(p) -> bool:
    """True iff p is an int (not a bool) and a prime: the check every parser
    of a prime runs, since p < 2 loops the Z[1/p] test."""
    return type(p) is int and p >= 2 and all(p % k for k in range(2, isqrt(p) + 1))


def _require_prime(p) -> None:
    if not is_prime(p):
        raise ValueError(f"p = {p!r} is not a prime")


def _is_power_of(n: int, p: int) -> bool:
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def in_value_group(x: Fraction, p: int) -> bool:
    """True iff the reduced rational x lies in Z[1/p], for a prime p."""
    _require_prime(p)
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


class Frozen:
    """Base of the immutable classes.  A record's fields are its class
    annotations: ``__init__`` takes them by position or name, a field left
    out takes the class attribute of its name, and an unknown, repeated,
    surplus or missing field raises ``TypeError``.  Only ``__init__`` (and a
    ``cached_property``, once) writes ``__dict__``; later assignment or
    deletion raises ``AttributeError``.  The slotted hot records (see the
    module docstring) do not use this ``__init__``: their own constructors
    write each slot once, through its descriptor."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = tuple(cls.__annotations__)
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, "
                            f"got {len(args)}")
        fields = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
            if name in fields:
                raise TypeError(f"{cls.__name__} got field {name!r} twice")
            fields[name] = value
        for name in names:
            if name not in fields:
                if not hasattr(cls, name):
                    raise TypeError(f"{cls.__name__} is missing field {name!r}")
                fields[name] = getattr(cls, name)
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _set_slots(self, state) -> None:
    """``__setstate__`` of the slotted records, run by pickle and ``copy``:
    their default restores each slot by ``setattr``, which :class:`Frozen`
    refuses, so the slot values are written through the slot descriptors."""
    cls = type(self)
    for name, value in state[1].items():
        getattr(cls, name).__set__(self, value)


@total_ordering
class Rat(Frozen):
    """Arbitrary exact rational group element num/den, stored reduced with
    den > 0, so equality and hash compare the pair (and the prime).

    Arithmetic returns ``type(self)`` and refuses operands of another exact
    type, so a subclass that narrows the group (``Zp1``) stays closed.
    """

    num: int
    den: int
    p: int
    __slots__ = ("num", "den", "p")
    variant = "Rat"

    def __init__(self, value, p: int):
        _require_prime(p)
        q = Fraction(value)
        # frozen: the slots are written here and in _of only, once
        _set_num(self, q.numerator)
        _set_den(self, q.denominator)
        _set_p(self, p)
        self.__post_init__()

    @classmethod
    def _of(cls, num: int, den: int, p: int) -> "Rat":
        """The element num/den of the group from a reduced pair with
        den > 0, built without parsing or ``__post_init__``."""
        self = object.__new__(cls)
        _set_num(self, num)
        _set_den(self, den)
        _set_p(self, p)
        return self

    def __post_init__(self):
        """Runs once per public construction; ``Zp1`` checks its group
        here."""

    __setstate__ = _set_slots

    def __eq__(self, other):
        # a Rat never equals a Zp1: they are elements of different groups
        if type(other) is not type(self):
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.p == other.p

    def __hash__(self):
        return hash((self.num, self.den, self.p))

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

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

    __slots__ = ()  # without it, every Zp1 would get a __dict__ back
    variant = "Zp1"

    def __post_init__(self):  # replaces Rat's, so one call per construction
        if not _is_power_of(self.den, self.p):
            raise ValueError(f"{self._text()} is not in Z[1/{self.p}]")


@total_ordering
class Lex(Frozen):
    """Lexicographic pair of Z[1/p] elements; the first coordinate dominates."""

    hi: Zp1
    lo: Zp1
    __slots__ = ("hi", "lo")
    variant = "Lex"

    def __init__(self, hi, lo):
        _set_hi(self, hi)
        _set_lo(self, lo)
        self.__post_init__()

    @staticmethod
    def _of(hi: Zp1, lo: Zp1) -> "Lex":
        """The pair (hi, lo) of one prime, without ``__post_init__``."""
        self = object.__new__(Lex)
        _set_hi(self, hi)
        _set_lo(self, lo)
        return self

    def __post_init__(self):
        if self.hi.p != self.lo.p:
            raise GroupMismatchError("lex coordinates must share the prime")

    __setstate__ = _set_slots

    def __eq__(self, other):
        if type(other) is not Lex:
            return NotImplemented
        return self.hi == other.hi and self.lo == other.lo

    def __hash__(self):
        return hash((self.hi, self.lo))

    @property
    def p(self) -> int:
        return self.hi.p

    @classmethod
    def from_json(cls, obj, p: int) -> "Lex":
        if not isinstance(obj, dict):
            raise ValueError(f"expected {{'hi': ..., 'lo': ...}}, got {obj!r}")
        return cls(Zp1.from_json(obj.get("hi"), p), Zp1.from_json(obj.get("lo"), p))

    _check = Rat._check

    def __add__(self, other: "Lex") -> "Lex":
        self._check(other)
        return Lex._of(self.hi + other.hi, self.lo + other.lo)

    def __sub__(self, other: "Lex") -> "Lex":
        self._check(other)
        return Lex._of(self.hi - other.hi, self.lo - other.lo)

    def __neg__(self) -> "Lex":
        return Lex._of(-self.hi, -self.lo)

    def __lt__(self, other: "Lex") -> bool:
        self._check(other)
        return (self.hi, self.lo) < (other.hi, other.lo)

    def scale_p(self, e: int) -> "Lex":
        return Lex._of(self.hi.scale_p(e), self.lo.scale_p(e))

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


_set_num, _set_den, _set_p = Rat.num.__set__, Rat.den.__set__, Rat.p.__set__
_set_hi, _set_lo = Lex.hi.__set__, Lex.lo.__set__

GammaElt = Union[Zp1, Rat, Lex]


def gamma_scale_int(x: GammaElt, k: int) -> GammaElt:
    """k-fold sum of x for a nonnegative integer k: one multiplication of
    the numerator (of each coordinate for Lex)."""
    if k < 0:
        raise ValueError("nonnegative multiplier required")
    if type(x) is Lex:
        return Lex._of(gamma_scale_int(x.hi, k), gamma_scale_int(x.lo, k))
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
    return gamma_from_fraction(0, variant, p)


def gamma_from_fraction(q, variant: str, p: int) -> GammaElt:
    """Build a scalar group element from a rational (hi coordinate for Lex)."""
    cls = _variant(variant)
    return lex(q, 0, p) if cls is Lex else cls(q, p)


def lex(hi, lo, p: int) -> Lex:
    return Lex(Zp1(hi, p), Zp1(lo, p))


def gamma_from_json(obj, variant: str, p: int) -> GammaElt:
    """Parse ``to_json`` output; malformed input raises ``ValueError``."""
    return _variant(variant).from_json(obj, p)
