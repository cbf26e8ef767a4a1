"""p-typical Witt vectors over the Hahn-series field model, at finite precision.

An element is stored by its Teichmuller expansion sum_{n>=p_min} p^n [c_n]
with coordinates c_n Hahn series, known modulo p^N.  Negative p_min encodes
localization at p.

Every ring law runs on coordinate windows, tuples of equal length, through
one entry, ``_law``; the public operations cut their operands to windows
(``_aligned`` pads the later-starting one with exact zeros) and build the
result by ``WittVec._of``: its coordinates already have the operands' prime
and group.

Windows whose coordinates are all exact compute in B = (Z/p^N)((t^Gamma)):
W(R) of a perfect F_p-algebra R is the unique p-adically complete,
p-torsion-free ring with residue ring R (Serre, *Local Fields*, II 4-5), so
the element is sum_n p^n [c_n] in B, the ring operations are B's, and the
digits are read back in place.  Each exponent of B is one int key of
``hahn.Keys``, the keys series products use, and B multiplies by
``hahn._mul`` and ``_power`` (see ``_Digits``).  No table is read, at any
length, and nothing outlives the operation; an exact division by a divisor
with a monomial leading coordinate is a Horner loop in B, and the unit
inverse is that division of 1.  Windows with a capped coordinate evaluate
the universal structure polynomials of ``wittpoly`` on their Teichmuller
coordinates, packed once into one ``Keys`` with their caps, and read the
Witt coordinates back by p-th roots (exact, by perfectness), a division of
keys; each such operation imports ``wittpoly`` and looks up the one
memoised table of its operands' prime (``get_table``), so no function here
takes a table, and exact arithmetic never loads the tables.  A capped
subtraction adds the negated subtrahend window (``_neg``); negation for odd
p is coordinatewise and reads no table.  The level-by-level division
inverts a leading coordinate with ``HahnSeries.invert`` and subtracts
windows: at level l only the window from l on, which is all that later
levels read, as the coordinates of sum_{n<j} p^n [r_n] + p^j X from level
j on are X's (Teichmuller expansions are unique), so each subtraction runs
at the length left, not at the full length.  ``witt_equal_at_precision`` is
the equality test.

Membership predicates are three-valued: ``True``/``False`` when certified at
the stored t-precision, ``None`` when a coordinate's valuation sign is hidden
by its cap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import GroupMismatchError, PrecisionError, ZeroSeriesError
from .hahn import HahnSeries, Keys, _mul, _power, hahn_from_json
from .values import Frozen, _set_slots

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
    __slots__ = ("p", "group", "p_min", "coords")

    def __init__(self, p, group, p_min, coords):
        for c in coords:
            if c.p != p or c.group != group:
                raise GroupMismatchError("coordinate field mismatch")
        _set_p(self, p)
        _set_group(self, group)
        _set_p_min(self, p_min)
        _set_coords(self, coords)

    @staticmethod
    def _of(p: int, group: str, p_min: int,
            coords: Tuple[HahnSeries, ...]) -> "WittVec":
        """The vector of coordinates that already have prime p and group
        ``group``, as every ring operation's result has: built without the
        coordinate check."""
        self = object.__new__(WittVec)
        _set_p(self, p)
        _set_group(self, group)
        _set_p_min(self, p_min)
        _set_coords(self, coords)
        return self

    __setstate__ = _set_slots

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
        """Strip exactly-zero leading coordinates, raising p_min; a vector
        with none is returned as it is."""
        coords = self.coords
        k = 0
        while k < len(coords) and not coords[k].terms and coords[k].prec is None:
            k += 1
        if not k:
            return self
        return WittVec._of(self.p, self.group, self.p_min + k, coords[k:])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def pshift(self, k: int) -> "WittVec":
        """Multiply by p**k (exact: shifts every level by k), built by
        ``_of``: the coordinates are self's."""
        return WittVec._of(self.p, self.group, self.p_min + k, self.coords)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(p: int, group: str, prec_n: int) -> "WittVec":
        return WittVec._of(p, group, 0, (HahnSeries.zero(p, group),) * prec_n)

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


_set_p, _set_group = WittVec.p.__set__, WittVec.group.__set__
_set_p_min, _set_coords = WittVec.p_min.__set__, WittVec.coords.__set__


def teichmuller(c: HahnSeries, prec_n: int) -> WittVec:
    """[c] at p-adic precision prec_n: every coordinate has c's prime and
    group, so the vector is built unchecked, its zeros one series."""
    zero = HahnSeries.zero(c.p, c.group)
    return WittVec._of(c.p, c.group, 0, (c,) + (zero,) * (prec_n - 1))


def witt_from_json(obj) -> WittVec:
    if not (isinstance(obj, dict) and type(obj.get("p_min")) is int
            and isinstance(obj.get("coords"), list) and obj["coords"]):
        raise ValueError(f"expected a Witt vector {{'p_min': int, "
                         f"'coords': [series, ...]}}, got {obj!r}")
    coords = tuple(hahn_from_json(c) for c in obj["coords"])
    return WittVec(coords[0].p, coords[0].group, obj["p_min"], coords)


def _aligned(a: WittVec, b: WittVec) -> Tuple[int, Tuple[HahnSeries, ...],
                                               Tuple[HahnSeries, ...]]:
    """(p_min, xs, ys): the common window of a and b, from their lower p_min
    to their lower precision, the later-starting one padded with exact
    zeros."""
    if a.p != b.p or a.group != b.group:
        raise GroupMismatchError("Witt vectors over different base fields")
    p_min = min(a.p_min, b.p_min)
    length = min(a.prec_n, b.prec_n) - p_min
    if length <= 0:
        raise PrecisionError("no common p-adic precision after alignment")
    zero = HahnSeries.zero(a.p, a.group)
    xs, ys = (((zero,) * (v.p_min - p_min) + v.coords)[:length] for v in (a, b))
    return p_min, xs, ys


# -- ring operations -------------------------------------------------------


class _Digits:
    """B = (Z/p^L)((t^Gamma)) at length L, in which an operation on exact
    operands computes (see the module docstring), on the keys of the
    ``hahn.Keys`` it holds: not a subclass, since series products share
    the ``Keys`` methods, whose attribute caches would miss if they saw two
    types.

    A series of B is a dict from exponent key to nonzero coefficient mod
    p^L, updated in place.  The keys are sized over the operands'
    exponents with the factor p^(L-1), so every p^k-th root that the
    Teichmuller lifts below take is an int, and for sums of 2 L exponents:
    a lift stays in the hull of its operand's keys, a product of two lifts
    sums at most two exponents, and the quotient's Horner loop, from keys
    moved by the divisor's, at most 2 L.

    The powers p^0 .. p^L are computed once.  One is built per operation,
    a plain class with slots, as ``Keys`` is."""

    keys: Keys
    length: int
    pw: List[int]  # p^0 .. p^L
    __slots__ = ("keys", "length", "pw")

    def __init__(self, p: int, group: str, length: int,
                 coords: Tuple[HahnSeries, ...]):
        """The B of one operation at length ``length`` on operands with
        these exact coordinates."""
        pw = [p ** k for k in range(length + 1)]
        self.keys = Keys(p, group, coords, pw[-2], 2 * length)
        self.length, self.pw = length, pw

    def add_lift(self, x: Dict, terms, n: int, sign: int, exact: int = 1) -> None:
        """x <- x + sign p^n [c] mod p^L in place, for c = sum of u t^key over
        the (key, u) pairs ``terms``, two or more (``into`` and ``out`` lift
        a monomial themselves); every coefficient touched must be divisible
        by ``exact``.  With k = L - n, [c] mod p^k is (a lift of
        c^(1/p^(k-1)))^(p^(k-1)), by k - 1 p-th powers, the modulus rising
        from p^2 to p^k."""
        p, pw, k = self.keys.p, self.pw, self.length - n
        e = pw[k - 1]
        assert self.keys.divides(terms, e), "exponent root not exact"
        y = {key // e: u for key, u in terms}
        for j in range(2, k + 1):
            y = _power(y, p, pw[j])
        m, mod = sign * pw[n], pw[-1]
        get = x.get
        for key, v in y.items():
            c = (get(key, 0) + m * v) % mod
            assert c % exact == 0, "digit not exact"
            if c:
                x[key] = c
            else:
                del x[key]

    def into(self, coords: Tuple[HahnSeries, ...], x: Dict, sign: int = 1,
             start: int = 0) -> Dict:
        """x + sign * sum_n p^n [c_n] mod p^L, accumulated in x, with c_n the
        coordinate at level n = start, start + 1, ...  A monomial u t^g
        lifts here, to omega(u) t^g by one ``pow``."""
        key, pw, last = self.keys.key, self.pw, self.length
        mod = pw[last]
        for n, c in enumerate(coords, start):
            terms = c.terms
            if len(terms) == 1:
                (g, u), = terms
                k = key(g)
                v = (x.get(k, 0) + sign * pw[n] * pow(u, pw[last - n - 1],
                                                      pw[last - n])) % mod
                if v:
                    x[k] = v
                else:
                    del x[k]
            elif terms:
                self.add_lift(x, [(key(g), u) for g, u in terms], n, sign)
        return x

    def out(self, x: Dict) -> Tuple[HahnSeries, ...]:
        """Teichmuller coordinates of x, consumed in place: digit n is
        (x_key // p^n) mod p, then x <- x - p^n [c_n], which leaves every
        coefficient divisible by p^(n+1); a one-term digit u t^key is
        subtracted here, as omega(u) t^key by one ``pow``.  A digit's terms
        are canonical as read (sorted keys, coefficients 1..p-1), so its
        series is built by ``HahnSeries._of``, without the term check.
        Empty digits share one exact zero."""
        keys, pw = self.keys, self.pw
        p, group, gamma, known = keys.p, keys.group, keys.gamma, keys.gammas.get
        length, mod = self.length, pw[-1]
        coords, zero = [], None
        for n in range(length):
            pn = pw[n]
            digit = [(key, d) for key, c in x.items() if (d := c // pn % p)]
            if not digit:
                zero = zero or HahnSeries.zero(p, group)
                coords.append(zero)
                continue
            if len(digit) == 1:
                (key, d), = digit
                coords.append(HahnSeries._of(p, group,
                                             ((known(key) or gamma(key), d),)))
                if n + 1 < length:
                    c = (x[key] - pn * pow(d, pw[length - n - 1],
                                           pw[length - n])) % mod
                    assert c % pw[n + 1] == 0, "digit not exact"
                    if c:
                        x[key] = c
                    else:
                        del x[key]
                continue
            digit.sort()
            coords.append(HahnSeries._of(p, group, tuple([
                (known(key) or gamma(key), d) for key, d in digit])))
            if n + 1 < length:
                self.add_lift(x, digit, n, -1, pw[n + 1])
        return tuple(coords)

    def apply(self, op: str, xs: Tuple[HahnSeries, ...],
              ys: Tuple[HahnSeries, ...]) -> Tuple[HahnSeries, ...]:
        """Teichmuller coordinates of x op y ("add", "sub" or "mul"), or of
        -x ("neg")."""
        if op == "mul":
            return self.out(_mul(self.into(xs, {}), self.into(ys, {}), self.pw[-1]))
        if op == "neg":
            return self.out(self.into(xs, {}, -1))
        return self.out(self.into(ys, self.into(xs, {}), 1 if op == "add" else -1))

    def quotient(self, hs: Tuple[HahnSeries, ...],
                 gs: Tuple[HahnSeries, ...]) -> Tuple[HahnSeries, ...]:
        """Teichmuller coordinates of H / G for gs[0] an exact monomial
        u t^g0, in Horner form: with w = [g0^-1], H' = w H and
        r = 1 - w G = -w (G - [g0]) in pB, q <- H' + r q, L - 1 times from
        q = H'.  Multiplying by the monomial w moves keys."""
        (g0, u), = gs[0].terms
        p, pw, mod = self.keys.p, self.pw, self.pw[-1]
        k0 = self.keys.key(g0)
        w = pow(pow(u, -1, p), pw[-2], mod)
        h = {key - k0: c * w % mod for key, c in self.into(hs, {}).items()}
        r = {key - k0: -c * w % mod
             for key, c in self.into(gs[1:], {}, start=1).items()}
        q = h
        if r:  # r = 0: G is [g0], whose inverse is w
            for _ in range(self.length - 1):
                q = _mul(r, q, mod)
                for key, c in h.items():
                    q[key] = (q.get(key, 0) + c) % mod
        return self.out(q)


def _exact(*windows: Tuple[HahnSeries, ...]) -> bool:
    """Whether every coordinate of every window is exact."""
    for w in windows:
        for c in w:
            if c.prec is not None:
                return False
    return True


def _law(law: str, p: int, group: str, xs: Tuple[HahnSeries, ...],
         ys: Tuple[HahnSeries, ...]) -> Tuple[HahnSeries, ...]:
    """Teichmuller coordinates of ``law`` ("add", "sub", "mul" or "neg") on
    the coordinate windows xs and ys, of equal length, at that length; ys
    is not read for negation.

    When every coordinate of both windows is exact, the law is computed in
    B (``_Digits``): no table is read, at any length.  A capped subtraction
    is the sum of xs and the negated window ys (``_neg``).  Otherwise the
    structure polynomials are evaluated on the Teichmuller coordinates,
    exact zeros as None, packed once with their caps by one ``hahn.Keys``,
    and the Witt coordinate z_k of level k is read back as z_k^(1/p^k), its
    keys over p^k; N_n has no y factor.  The keys have the factor p^(L-1),
    so each such root is a division of ints, and are sized for sums of
    2 p^(L-1) exponents: a level-(L-1) monomial has x-weight and y-weight
    p^(L-1) at most, and its cap is one factor's cap plus the others'
    floors, so no key that ``wittpoly.eval_poly`` forms sums more.  Only
    this branch imports ``wittpoly``, and it reads ``eval_poly`` from that
    module at each call, so a rebinding of ``wittpoly.eval_poly`` sees
    every call."""
    length = len(xs)
    if _exact(xs, ys):
        return _Digits(p, group, length, xs + ys).apply(law, xs, ys)
    if law == "sub":
        return _law("add", p, group, xs, _neg(p, group, ys))
    from .wittpoly import eval_poly, get_table
    table = get_table(p)
    table.ensure(length)
    polys = getattr(table, law + "_polys")
    top = p ** (length - 1)
    keys = Keys(p, group, xs + ys, top, 2 * top)
    kx, ky = ([None if not c.terms and c.prec is None else keys.keyed(c)
               for c in w] for w in (xs, ys))
    powers = {}  # one power cache for all levels: xs and ys do not change
    levels = (eval_poly(polys[k], kx, ky, p, powers) for k in range(length))
    return tuple(keys.series([(key // p ** k, c) for key, c in terms],
                             None if cap is None else cap // p ** k)
                 for k, (terms, cap) in enumerate(levels))


def _neg(p: int, group: str, xs: Tuple[HahnSeries, ...]) -> Tuple[HahnSeries, ...]:
    """Teichmuller coordinates of -x on the window xs.  For odd p, [-1] = -1,
    so by Teichmuller multiplicativity -sum p^n [c_n] = sum p^n [-c_n]:
    coordinatewise, with no table; for p = 2 the law "neg", on a window
    that is not empty."""
    if p != 2:
        return tuple([-c for c in xs])
    return _law("neg", p, group, xs, ()) if xs else xs


def witt_add(a: WittVec, b: WittVec) -> WittVec:
    p_min, xs, ys = _aligned(a, b)
    return WittVec._of(a.p, a.group, p_min, _law("add", a.p, a.group, xs, ys))


def witt_neg(a: WittVec) -> WittVec:
    """-a, by ``_neg``."""
    return WittVec._of(a.p, a.group, a.p_min, _neg(a.p, a.group, a.coords))


def witt_sub(a: WittVec, b: WittVec) -> WittVec:
    """a - b on the common window."""
    p_min, xs, ys = _aligned(a, b)
    return WittVec._of(a.p, a.group, p_min, _law("sub", a.p, a.group, xs, ys))


def witt_mul(a: WittVec, b: WittVec) -> WittVec:
    if a.p != b.p or a.group != b.group:
        raise GroupMismatchError("Witt vectors over different base fields")
    length = min(len(a.coords), len(b.coords))
    if length <= 0:
        raise PrecisionError("no common p-adic precision for product")
    return WittVec._of(a.p, a.group, a.p_min + b.p_min, _law(
        "mul", a.p, a.group, a.coords[:length], b.coords[:length]))


def mul_teichmuller(h: WittVec, c: HahnSeries) -> WittVec:
    """h * [c], exact coordinatewise (Teichmuller multiplicativity), built
    by ``WittVec._of``: each product checks c against h's prime and group."""
    return WittVec._of(h.p, h.group, h.p_min, tuple(x * c for x in h.coords))


def divide_exact_teichmuller(h: WittVec, c: HahnSeries) -> WittVec:
    """h / [c] coordinatewise.

    Exact when c is an exact monomial; otherwise multiplies by the inverse of
    c at ``inverse_target`` against h's coordinates.
    """
    return mul_teichmuller(h, c.invert(refs=h.coords))


def witt_equal_at_precision(a: WittVec, b: WittVec) -> bool:
    """Equality on the common window of ``_aligned``, which checks the field:
    Teichmuller expansions are canonical, so it is coordinatewise, comparing
    terms exactly (caps are not compared)."""
    _, xs, ys = _aligned(a, b)
    return all(x.terms == y.terms for x, y in zip(xs, ys))


# -- division and membership ----------------------------------------------


def witt_divide_with_precision(h: WittVec, g: WittVec) -> WittVec:
    """Quotient q with h = g*q modulo (p^N, t-precision).

    Requires the normalized leading Teichmuller coordinate of g to be nonzero
    at its precision (g a unit of W(K) after dividing out its p-power).
    With j1 the index of h's first coordinate that is not the exact zero,
    q is known at min(len h, j1 + len g) levels.  When h and g are exact
    and g's leading coordinate is a monomial, q is H * G^-1 in B, in one
    pass; otherwise it is computed level by level, one subtraction per
    level that a later level reads.

    The remainder is a coordinate window, from level l = p_min(h) + j on.
    The subtraction at level l is ``_law("sub")`` on the window that later
    levels read: the remainder minus (gn_0 q_j, gn_1 q_j, ...), which is
    p^(p_min(q) + j) [q_j] gn from level l on, both cut to the shorter
    length; the difference from level l + 1 on is the next remainder.  So
    a division at length N subtracts at lengths N - 1, ..., 1, not N each
    time, and builds no ``WittVec`` per level.  This is
    exact: Teichmuller expansions are unique, so sum_{n<j} p^n [r_n] +
    p^j X has coordinates (r_0 .. r_{j-1}, x_0, x_1, ...), and, as
    polynomials, S_n(x, (0^j, y)) = S_{n-j}(x_{>=j}, y_{>=j}) for n >= j;
    no monomial that survives the exactly zero y coordinates reads a
    coordinate below the window, so terms and caps are those of the
    full-length subtraction.
    """
    gn = g if g.coords and g.coords[0].terms else g.normalized()
    if not gn.coords:
        raise ZeroSeriesError("division by zero Witt vector")
    hs, gs = h.coords, gn.coords
    if len(gs[0].terms) == 1 and _exact(gs, hs):
        j1 = 0
        while j1 < len(hs) and not hs[j1].terms:
            j1 += 1
        length = min(len(hs), j1 + len(gs))
        if not length:
            raise PrecisionError("no quotient levels computable at this precision")
        hs, gs = hs[:length], gs[:length]
        return WittVec._of(h.p, h.group, h.p_min - gn.p_min,
                           _Digits(h.p, h.group, length, hs + gs).quotient(hs, gs))
    g0_inv = gs[0].invert(refs=hs + gs)
    p, group = h.p, h.group
    rem = hs  # the remainder's coordinates from the current level on
    q_coords: List[HahnSeries] = []
    while rem:
        qj = rem[0] * g0_inv
        q_coords.append(qj)
        if qj.is_zero() and qj.is_exact():
            rem = rem[1:]
            continue
        # The difference is known on w levels only; when no later level
        # lies there (always so on h's last level), nothing reads it.
        w = min(len(rem), len(gs))
        if w <= 1:
            break
        rem = _law("sub", p, group, rem[:w], tuple([x * qj for x in gs[:w]]))[1:]
    if not q_coords:
        raise PrecisionError("no quotient levels computable at this precision")
    return WittVec._of(p, group, h.p_min - gn.p_min, tuple(q_coords))


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
    """Inverse of h in W(K)[1/p] at precision: 1 / h, at h's p-adic length.

    h must be a unit: after stripping its p-power, the leading Teichmuller
    coordinate is nonzero at precision.  The inverse is
    ``witt_divide_with_precision`` of ``WittVec.one`` by the stripped h: one
    quotient in B when h is exact and that coordinate is a monomial.
    """
    hn = h.normalized()
    if not hn.coords:
        raise ZeroSeriesError("not a unit: zero at precision")
    return witt_divide_with_precision(WittVec.one(h.p, h.group, len(hn.coords)), hn)
