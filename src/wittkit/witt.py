"""p-typical Witt vectors over the Hahn-series field model, at finite precision.

An element is stored by its Teichmuller expansion sum_{n>=p_min} p^n [c_n]
with coordinates c_n Hahn series, known modulo p^N.  Negative p_min encodes
localization at p.  Ring operations convert Teichmuller coordinates to Witt
coordinates (exact, by perfectness), evaluate the universal structure
polynomials, and convert back; negation for odd p is coordinatewise and
reads no table, and so does a subtraction whose operands agree exactly on
their window (its difference is the exact zero, whatever the length, so a
division that cancels its remainder exactly needs no table level past the
cap).  Prime-field vectors, whose coordinates are all exact F_p constants,
lie in W(F_p) = Z_p, the unique strict p-ring with residue field F_p (Serre,
*Local Fields*, II 4-5): they compute as integers mod p^N, at any length,
and read no table either.  Each operation that does read one looks up the
one memoised table of its operands' prime (``get_table``), so no function
here takes a table.
Divisions invert a leading coordinate with ``HahnSeries.invert``;
``witt_equal_at_precision`` is the equality test.

Membership predicates are three-valued: ``True``/``False`` when certified at
the stored t-precision, ``None`` when a coordinate's valuation sign is hidden
by its cap.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .errors import GroupMismatchError, PrecisionError, ZeroSeriesError
from .hahn import HahnSeries, hahn_from_json
from .values import Frozen, gamma_zero
from .wittpoly import eval_poly, get_table

RING_TAGS = ("A", "A[1/p]", "W(K)", "W(K)[1/p]", "W(m_K)")


def _and3(*vals: Optional[bool]) -> Optional[bool]:
    """Three-valued conjunction: False dominates, then None."""
    if any(v is False for v in vals):
        return False
    if any(v is None for v in vals):
        return None
    return True


class WittVec(Frozen):
    p: int
    group: str
    p_min: int
    coords: Tuple[HahnSeries, ...]

    def __init__(self, p, group, p_min, coords):
        for c in coords:
            if c.p != p or c.group != group:
                raise GroupMismatchError("coordinate field mismatch")
        fields = self.__dict__
        fields["p"], fields["group"] = p, group
        fields["p_min"], fields["coords"] = p_min, coords

    # -- structure ---------------------------------------------------------

    @property
    def prec_n(self) -> int:
        """p-adic precision bound N: the element is known modulo p^N."""
        return self.p_min + len(self.coords)

    def coord(self, level: int) -> HahnSeries:
        """Teichmuller coordinate at an absolute level (exact zero below p_min)."""
        if level < self.p_min:
            return HahnSeries.zero(self.p, self.group)
        if level >= self.prec_n:
            raise PrecisionError(f"level {level} beyond precision {self.prec_n}")
        return self.coords[level - self.p_min]

    def normalized(self) -> "WittVec":
        """Strip exactly-zero leading coordinates, raising p_min."""
        coords = list(self.coords)
        p_min = self.p_min
        while coords and coords[0].is_zero() and coords[0].is_exact():
            coords.pop(0)
            p_min += 1
        return WittVec(self.p, self.group, p_min, tuple(coords))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def pshift(self, k: int) -> "WittVec":
        """Multiply by p**k (exact: shifts every level by k)."""
        return WittVec(self.p, self.group, self.p_min + k, self.coords)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(p: int, group: str, prec_n: int) -> "WittVec":
        return WittVec(p, group, 0,
                       tuple(HahnSeries.zero(p, group) for _ in range(prec_n)))

    @staticmethod
    def one(p: int, group: str, prec_n: int) -> "WittVec":
        return teichmuller(HahnSeries.one(p, group), prec_n)

    @staticmethod
    def p_power(p: int, group: str, e: int, prec_n: int) -> "WittVec":
        return WittVec.one(p, group, prec_n).pshift(e)

    def to_json(self):
        return {
            "p_min": self.p_min,
            "N": self.prec_n,
            "coords": [c.to_json() for c in self.coords],
        }

    def __repr__(self):
        parts = [f"p^{self.p_min + i}[{c!r}]" for i, c in enumerate(self.coords)]
        return f"Witt({' + '.join(parts) or '0'}; N={self.prec_n})"


def teichmuller(c: HahnSeries, prec_n: int) -> WittVec:
    """[c] at p-adic precision prec_n."""
    coords = (c,) + tuple(HahnSeries.zero(c.p, c.group) for _ in range(prec_n - 1))
    return WittVec(c.p, c.group, 0, coords)


def witt_from_json(obj) -> WittVec:
    if not (isinstance(obj, dict) and type(obj.get("p_min")) is int
            and isinstance(obj.get("coords"), list) and obj["coords"]):
        raise ValueError(f"expected a Witt vector {{'p_min': int, "
                         f"'coords': [series, ...]}}, got {obj!r}")
    coords = tuple(hahn_from_json(c) for c in obj["coords"])
    return WittVec(coords[0].p, coords[0].group, obj["p_min"], coords)


def _aligned(a: WittVec, b: WittVec) -> Tuple[int, int, WittVec, WittVec]:
    if a.p != b.p or a.group != b.group:
        raise GroupMismatchError("Witt vectors over different base fields")
    p_min = min(a.p_min, b.p_min)
    n = min(a.prec_n, b.prec_n)
    length = n - p_min
    if length <= 0:
        raise PrecisionError("no common p-adic precision after alignment")

    def pad(v: WittVec) -> WittVec:
        extra = tuple(HahnSeries.zero(v.p, v.group) for _ in range(v.p_min - p_min))
        return WittVec(v.p, v.group, p_min, extra + v.coords)

    return p_min, length, pad(a), pad(b)


# -- ring operations -------------------------------------------------------


def _zp_value(coords: Tuple[HahnSeries, ...], p: int) -> Optional[int]:
    """sum_n p^n [c_n] mod p^L, L = len(coords), when every coordinate is an
    exact F_p constant (the exact zero, or one term at exponent 0); else
    None.  The Teichmuller lift [c] is c^(p^(k-1)) mod p^k."""
    length = len(coords)
    x = 0
    for n, c in enumerate(coords):
        if c.prec is not None or len(c.terms) > 1:
            return None
        if c.terms:
            g, d = c.terms[0]
            if not g.is_zero():
                return None
            k = length - n
            x += p ** n * pow(d, p ** (k - 1), p ** k)
    return x


def _zp_coords(x: int, p: int, group: str, length: int) -> Tuple[HahnSeries, ...]:
    """Teichmuller coordinates of x mod p^length: c_n = x mod p, then
    x <- (x - [c_n]) / p."""
    zero, g0 = HahnSeries.zero(p, group), gamma_zero(group, p)
    coords = []
    for n in range(length):
        k = length - n
        x %= p ** k
        c = x % p
        coords.append(HahnSeries(p, group, ((g0, c),)) if c else zero)
        x = (x - pow(c, p ** (k - 1), p ** k)) // p
    return tuple(coords)


def _apply_law(law: str, a: WittVec, b: Optional[WittVec],
               length: int) -> Tuple[HahnSeries, ...]:
    """Teichmuller coordinates of the table law ``law`` ("add_polys",
    "mul_polys" or "neg_polys") on the first ``length`` coordinates of a and
    b, with b None for negation.

    When every coordinate of both windows is an exact F_p constant, the
    operands lie in W(F_p) = Z_p, and the law is +, * or negation of
    integers mod p^length: no table is read, at any length.  Otherwise each
    coordinate c_k goes to the Witt coordinate c_k^(p^k), through the
    structure polynomials, and back.  ``eval_poly`` is read as a module
    global at each call, so a rebinding of ``witt.eval_poly`` sees every
    call."""
    x = _zp_value(a.coords[:length], a.p)
    if x is not None:
        y = 0 if b is None else _zp_value(b.coords[:length], a.p)
        if y is not None:
            z = x + y if law == "add_polys" else x * y if law == "mul_polys" else -x
            return _zp_coords(z, a.p, a.group, length)
    table = get_table(a.p)
    table.ensure(length)
    polys = getattr(table, law)
    xs = [c.frobenius_iter(k) for k, c in enumerate(a.coords[:length])]
    if b is None:
        ys = [HahnSeries.zero(a.p, a.group)] * length
    else:
        ys = [c.frobenius_iter(k) for k, c in enumerate(b.coords[:length])]
    powers = {}  # one power cache for all levels: xs and ys do not change
    return tuple(eval_poly(polys[k], xs, ys, a.p, a.group, powers).frobenius_iter(-k)
                 for k in range(length))


def witt_add(a: WittVec, b: WittVec) -> WittVec:
    p_min, length, a2, b2 = _aligned(a, b)
    return WittVec(a.p, a.group, p_min, _apply_law("add_polys", a2, b2, length))


def witt_neg(a: WittVec) -> WittVec:
    """-a.  For odd p, [-1] = -1, so by Teichmuller multiplicativity
    -sum p^n [c_n] = sum p^n [-c_n]: coordinatewise, with no table."""
    if a.p != 2:
        return WittVec(a.p, a.group, a.p_min, tuple(-c for c in a.coords))
    if not a.coords:
        return a
    return WittVec(a.p, a.group, a.p_min,
                   _apply_law("neg_polys", a, None, len(a.coords)))


def witt_sub(a: WittVec, b: WittVec) -> WittVec:
    """a - b.  Operands that agree exactly on the common window (every
    coordinate there exact, terms equal) give the exact zero and read no
    table; a capped coordinate always takes the table path."""
    p_min, length, a2, b2 = _aligned(a, b)
    xs = a2.coords[:length]
    if xs == b2.coords[:length] and all(c.prec is None for c in xs):
        return WittVec(a.p, a.group, p_min,
                       (HahnSeries.zero(a.p, a.group),) * length)
    return witt_add(a, witt_neg(b))


def witt_mul(a: WittVec, b: WittVec) -> WittVec:
    if a.p != b.p or a.group != b.group:
        raise GroupMismatchError("Witt vectors over different base fields")
    length = min(len(a.coords), len(b.coords))
    if length <= 0:
        raise PrecisionError("no common p-adic precision for product")
    return WittVec(a.p, a.group, a.p_min + b.p_min,
                   _apply_law("mul_polys", a, b, length))


def mul_teichmuller(h: WittVec, c: HahnSeries) -> WittVec:
    """h * [c], exact coordinatewise (Teichmuller multiplicativity)."""
    return WittVec(h.p, h.group, h.p_min, tuple(x * c for x in h.coords))


def divide_exact_teichmuller(h: WittVec, c: HahnSeries) -> WittVec:
    """h / [c] coordinatewise.

    Exact when c is an exact monomial; otherwise multiplies by the inverse of
    c at ``inverse_target`` against h's coordinates.
    """
    return mul_teichmuller(h, c.invert(refs=h.coords))


def witt_equal_at_precision(a: WittVec, b: WittVec) -> bool:
    """Equality on the common window: Teichmuller expansions are canonical,
    so it is coordinatewise, comparing terms exactly (caps are not compared)."""
    an, bn = a.normalized(), b.normalized()
    for level in range(min(an.p_min, bn.p_min), min(an.prec_n, bn.prec_n)):
        ta = an.coord(level).terms if level >= an.p_min else ()
        tb = bn.coord(level).terms if level >= bn.p_min else ()
        if ta != tb:
            return False
    return True


# -- division and membership ----------------------------------------------


def witt_divide_with_precision(h: WittVec, g: WittVec) -> WittVec:
    """Quotient q with h = g*q modulo (p^N, t-precision), computed level by level.

    Requires the normalized leading Teichmuller coordinate of g to be nonzero
    at its precision (g a unit of W(K) after dividing out its p-power).
    """
    gn = g.normalized()
    if not gn.coords:
        raise ZeroSeriesError("division by zero Witt vector")
    g0_inv = gn.coords[0].invert(refs=h.coords + gn.coords)

    mh, mg = h.p_min, gn.p_min
    mq = mh - mg
    rem = h
    q_coords: List[HahnSeries] = []
    for j in range(len(h.coords)):
        level = mh + j
        if rem.prec_n <= level:
            break
        qj = rem.coord(level) * g0_inv
        q_coords.append(qj)
        if qj.is_zero() and qj.is_exact():
            continue
        term = mul_teichmuller(gn, qj).pshift(mq + j)
        # The difference is known below min(rem.prec_n, term.prec_n) only;
        # when no later level lies there (always so on h's last level),
        # nothing reads it.
        if min(rem.prec_n, term.prec_n) <= level + 1:
            break
        rem = witt_sub(rem, term)
    if not q_coords:
        raise PrecisionError("no quotient levels computable at this precision")
    return WittVec(h.p, h.group, mq, tuple(q_coords))


def ring_membership(h: WittVec, tag: str) -> Optional[bool]:
    """Three-valued membership of h in one of the model rings."""
    if tag not in RING_TAGS:
        raise ValueError(f"unknown ring tag {tag!r}; expected one of {RING_TAGS}")
    if tag == "W(K)[1/p]":
        return True
    hn = h.normalized()

    def no_p_denominator() -> Optional[bool]:
        checks = []
        for i, c in enumerate(hn.coords):
            if hn.p_min + i >= 0:
                break
            if not c.is_zero():
                return False
            checks.append(None)  # zero at a cap below level 0: undecidable
        if hn.p_min >= 0:
            return True
        return None if checks else True

    if tag == "W(K)":
        return no_p_denominator()
    if tag == "A[1/p]":
        return _and3(*(c.val_ge_zero() for c in hn.coords))
    if tag == "A":
        return _and3(no_p_denominator(),
                     *(c.val_ge_zero() for c in hn.coords))
    # W(m_K)
    return _and3(no_p_denominator(),
                 *(c.val_gt_zero() for c in hn.coords))


def witt_unit_inverse(h: WittVec) -> WittVec:
    """Inverse of h in W(K)[1/p] at precision: 1 / h by
    ``witt_divide_with_precision``, at h's p-adic length.

    h must be a unit: after stripping its p-power, the leading Teichmuller
    coordinate is nonzero at precision.
    """
    hn = h.normalized()
    if not hn.coords:
        raise ZeroSeriesError("not a unit: zero at precision")
    return witt_divide_with_precision(WittVec.one(h.p, h.group, len(hn.coords)),
                                      hn)
