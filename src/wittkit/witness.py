"""Executable non-coherence witnesses and the factorization obstruction.

Three constructions are provided, each self-validating:

* an archimedean witness: a strictly decreasing valuation sequence with a
  limit outside Z[1/p], giving a principal-ideal intersection whose image in
  the valuation ring is not finitely generated at any finite stage;
* a non-archimedean (rank-2 lex) witness with divergent exponent sums;
* the rapidly-decaying-sequence element of W(m_K) that is not a product of
  two elements of W(m_K), with a finite "irrational at height H" certificate
  via Liouville-style approximation gaps.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
import math
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import NotAFactorizationError, PrecisionError, ZeroSeriesError
from .hahn import HahnSeries
from .newton import newton_polygon
from .values import Frozen, Rat, Zp1, in_value_group, lex
from .witt import (WittVec, divide_exact_teichmuller, mul_teichmuller,
                   ring_membership, teichmuller, witt_mul,
                   witt_divide_with_precision, witt_equal_at_precision, _and3)


def _in_out(ok: Optional[bool]) -> str:
    return "in" if ok is True else ("out" if ok is False else "indeterminate")


# -- archimedean branch ----------------------------------------------------


class ArchimedeanWitness(Frozen):
    p: int
    a_seq: Tuple[Fraction, ...]  # a_n = v of the n-th Teichmuller coordinate
    r: Fraction  # limit of a_seq, outside Z[1/p]
    f: WittVec
    g: WittVec

    kind = "archimedean"

    @property
    def bound(self) -> Fraction:
        return 2 * self.a_seq[0] - self.r

    def chain(self, k_max: int):
        """(h_k, expected leading valuation v_k) for k = 1..k_max."""
        for v_k in chain_valuations(self, k_max):
            yield chain_element(self, v_k), Zp1(v_k, self.p)

    def validate(self) -> None:
        a = self.a_seq
        assert all(in_value_group(x, self.p) for x in a), "a_n must lie in Z[1/p]"
        assert all(x > y for x, y in zip(a, a[1:])), "a_n must strictly decrease"
        assert all(x > self.r for x in a), "a_n must stay above the limit"
        diffs = [x - y for x, y in zip(a, a[1:])]
        assert all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:])), \
            "valuation differences must strictly decrease"
        assert not in_value_group(self.r, self.p), "limit must avoid Z[1/p]"


def build_archimedean_witness(p: int = 2, depth: int = 5) -> ArchimedeanWitness:
    """a_0 = 1, steps 4^-k, limit r = 2/3 (for p = 2)."""
    q = Fraction(p * p)
    a_seq = [Fraction(1)]
    for k in range(1, depth):
        a_seq.append(a_seq[-1] - q ** (-k))
    # limit of 1 - sum 4^-k = 1 - 1/(q-1)
    r = 1 - Fraction(1, q - 1)
    f = teichmuller(HahnSeries.t_pow(p, Zp1(a_seq[0], p)), depth)
    g = WittVec(p, "Zp1", 0,
                tuple(HahnSeries.t_pow(p, Zp1(a, p)) for a in a_seq))
    w = ArchimedeanWitness(p, tuple(a_seq), r, f, g)
    w.validate()
    return w


def chain_valuations(w: ArchimedeanWitness, k_max: int) -> List[Fraction]:
    """Leading valuations v_k = ceil(bound * m_k) / m_k, m_k = p^(2k-1).

    Strictly decreasing, all above the bound, with infimum the bound.
    """
    out = []
    for k in range(1, k_max + 1):
        m = w.p ** (2 * k - 1)
        out.append(Fraction(math.ceil(w.bound * m), m))
    assert all(x > y for x, y in zip(out, out[1:])), "chain must strictly decrease"
    assert all(x > w.bound for x in out), "chain must stay above the bound"
    return out


def chain_element(w: ArchimedeanWitness, v_k: Fraction) -> WittVec:
    """h_k = g * [t^(v_k)] / [t^(a_0)], an element of (f) cap (g)."""
    shift = Zp1(v_k - w.a_seq[0], w.p)
    return mul_teichmuller(w.g, HahnSeries.t_pow(w.p, shift))


# -- non-archimedean branch ------------------------------------------------


class NonArchWitness(Frozen):
    p: int
    r_seq: Tuple[Fraction, ...]  # r_1, r_2, ... positive, decreasing, divergent sum
    f: WittVec  # [x] with v(x) = (1, 0)
    g: WittVec  # sum p^n [x / y^(r_1+...+r_n)]

    kind = "nonarchimedean"
    bound = None

    def chain(self, k_max: int):
        """(h_k, expected leading valuation (2, -k)) for k = 1..k_max."""
        for k in range(1, k_max + 1):
            yield nonarch_chain_element(self, k), lex(2, -k, self.p)

    def validate(self) -> None:
        rs = self.r_seq
        assert all(x > 0 for x in rs), "r_n must be positive"
        assert all(in_value_group(x, self.p) for x in rs), "r_n must lie in Z[1/p]"
        assert all(x > y for x, y in zip(rs, rs[1:])), "r_n must strictly decrease"
        # divergence of the defaults: every term at least 1
        assert sum(rs) >= len(rs), "partial sums must grow without bound"


def build_nonarchimedean_witness(p: int = 2, depth: int = 5) -> NonArchWitness:
    """r_n = 1 + p^-n: decreasing in Z[1/p], divergent sum."""
    r_seq = [1 + Fraction(1, p ** n) for n in range(1, depth + 1)]
    f = teichmuller(HahnSeries.t_pow(p, lex(1, 0, p)), depth)
    sums = [Fraction(0)]
    for r in r_seq[:depth - 1]:
        sums.append(sums[-1] + r)
    g = WittVec(p, "Lex", 0,
                tuple(HahnSeries.t_pow(p, lex(1, -s, p)) for s in sums))
    w = NonArchWitness(p, tuple(r_seq), f, g)
    w.validate()
    return w


def nonarch_chain_element(w: NonArchWitness, k: int) -> WittVec:
    """h_k = g * [x^2 y^-k] / [x], with leading valuation (2, -k)."""
    return mul_teichmuller(w.g, HahnSeries.t_pow(w.p, lex(1, -k, w.p)))


# -- membership and chain reports ------------------------------------------


class MembershipCertificate(Frozen):
    q_by_f: WittVec
    q_by_g: WittVec
    q_by_f_in_a: Optional[bool]
    q_by_g_in_a: Optional[bool]

    @property
    def ok(self) -> Optional[bool]:
        return _and3(self.q_by_f_in_a, self.q_by_g_in_a)

    def to_json(self):
        return {
            "verdict": _in_out(self.ok),
            "q_by_f_in_A": _in_out(self.q_by_f_in_a),
            "q_by_g_in_A": _in_out(self.q_by_g_in_a),
            "q_by_f": self.q_by_f.to_json(),
            "q_by_g": self.q_by_g.to_json(),
        }


def intersection_membership(h: WittVec, witness) -> MembershipCertificate:
    """Certified membership of h in (f) cap (g) inside A."""
    qf = divide_exact_teichmuller(h, witness.f.coords[0])
    qg = witt_divide_with_precision(h, witness.g)
    return MembershipCertificate(qf, qg, ring_membership(qf, "A"),
                                 ring_membership(qg, "A"))


class ChainReport(Frozen):
    kind: str  # "archimedean" | "nonarchimedean"
    bound: Optional[Fraction]
    entries: List[dict]
    members_ok: Optional[bool]  # every h_k in (f) cap (g)
    strictly_decreasing: bool

    @property
    def ok(self) -> Optional[bool]:
        return _and3(self.strictly_decreasing, self.members_ok)

    def to_json(self):
        return {
            "kind": self.kind,
            "bound": None if self.bound is None else
                     {"num": self.bound.numerator, "den": self.bound.denominator},
            "entries": self.entries,
            "all_in": self.members_ok is True,
            "strictly_decreasing": self.strictly_decreasing,
        }


def ideal_chain_report(witness, k_max: int) -> ChainReport:
    """Chain h_1..h_k_max in (f) cap (g) with strictly decreasing leading
    valuations; finite-stage evidence of non-finite-generation."""
    entries, oks, leads = [], [], []
    for k, (h_k, want) in enumerate(witness.chain(k_max), start=1):
        lead = h_k.coords[0].valuation()
        assert lead == want
        cert = intersection_membership(h_k, witness)
        entries.append({"k": k, "leading_valuation": lead.to_json(),
                        "membership": cert.to_json()})
        oks.append(cert.ok)
        leads.append(lead)
    return ChainReport(witness.kind, witness.bound, entries, _and3(*oks),
                       all(x > y for x, y in zip(leads, leads[1:])))


# -- rapidly decaying sequences (factorization obstruction) ----------------


class ScholzeElement(Frozen):
    p: int
    s_seq: Tuple[Fraction, ...]
    x: WittVec

    @cached_property
    def x_slopes(self) -> Counter:
        """The certified slope multiset of x, stored in full: computed on
        first use and kept, since every candidate factorization of x
        compares with it."""
        return newton_polygon(self.x, complete=True).certified_slope_multiset()

    def validate(self) -> None:
        s = self.s_seq
        assert s[0] == 1
        assert all(a > b > 0 for a, b in zip(s, s[1:])), "s_n must decrease to 0"
        assert all(b <= a * a for a, b in zip(s, s[1:])), \
            "gap condition s_{n+1} <= s_n^2 violated"


def build_rapid_sequence(depth: int) -> List[Fraction]:
    """s_k = 2^-(2^k - 1): doubly exponential decay, s_0 = 1."""
    return [Fraction(1, 2 ** (2 ** k - 1)) for k in range(depth + 1)]


def build_scholze_element(p: int, depth: int) -> ScholzeElement:
    s_seq = build_rapid_sequence(depth)
    x = WittVec(p, "Rat", 0,
                tuple(HahnSeries.t_pow(p, Rat(s, p)) for s in s_seq))
    el = ScholzeElement(p, tuple(s_seq), x)
    el.validate()
    assert ring_membership(el.x, "W(m_K)") is True
    return el


def regrouped_subsequence(s_seq: List[Fraction]) -> List[Fraction]:
    """Even-block regrouping s_{2j} - s_{2j+1}: the consecutive-gap sums of an
    infinite subsequence with infinite complement."""
    out = []
    j = 0
    while 2 * j + 1 < len(s_seq):
        out.append(s_seq[2 * j] - s_seq[2 * j + 1])
        j += 1
    return out


class LiouvilleResult(Frozen):
    ok: Optional[bool]  # True, or None: a finite window never shows rationality
    height: int
    reason: str
    failing_rational: Optional[Fraction] = None
    interval: Optional[Tuple[Fraction, Fraction]] = None

    def to_json(self):
        frac = None
        if self.failing_rational is not None:
            frac = {"num": self.failing_rational.numerator,
                    "den": self.failing_rational.denominator}
        iv = None
        if self.interval is not None:
            iv = [{"num": q.numerator, "den": q.denominator} for q in self.interval]
        return {"certified": self.ok, "height": self.height,
                "reason": self.reason, "failing_rational": frac, "interval": iv}


def liouville_certificate(terms: List[Fraction], height: int) -> LiouvilleResult:
    """Finite certificate that the (tail-completed) sum of ``terms`` is not a
    rational of denominator <= height.

    Requires terms positive, strictly decreasing, with the gap condition
    t_{j+1} <= t_j^2 and t_last <= 1/2; then the full sum lies in the open
    interval (S, S + T] with S the window sum and T = 2 * t_last^2 the tail
    bound, and the certificate checks no rational of bounded height lands in
    [S, S + T].
    """
    terms = [Fraction(t) for t in terms]
    if not terms:
        return LiouvilleResult(None, height, "empty term selection")
    if any(t <= 0 for t in terms) or any(a <= b for a, b in zip(terms, terms[1:])):
        return LiouvilleResult(None, height,
                               "terms must be positive and strictly decreasing")
    s_window = sum(terms)
    gap_ok = all(b <= a * a for a, b in zip(terms, terms[1:])) and terms[-1] <= Fraction(1, 2)
    # The loops compare a/b with lo = ln/ld and hi = hn/hd in ints.
    if not gap_ok:
        # naive tail bound used only to name a failing rational when refusing
        lo, hi = s_window, s_window + 2 * terms[-1]
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        for b in range(1, height + 1):
            # largest integer a with a/b <= hi; in the interval iff a/b >= lo
            a = hn * b // hd
            if a * ld >= ln * b:
                return LiouvilleResult(None, height, "gap condition violated",
                                       Fraction(a, b), (lo, hi))
        return LiouvilleResult(None, height, "gap condition violated")
    lo, hi = s_window, s_window + 2 * terms[-1] ** 2
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    for b in range(1, height + 1):
        # smallest integer a with a/b >= lo; in the interval iff a/b <= hi
        a = -(-ln * b // ld)
        if a * hd <= hn * b:
            return LiouvilleResult(None, height, "rational inside tail interval",
                                   Fraction(a, b), (lo, hi))
    return LiouvilleResult(True, height,
                           f"no rational of denominator <= {height} in the tail interval",
                           None, (lo, hi))


# -- factorization obstruction checker -------------------------------------


class ObstructionReport(Frozen):
    violations: List[dict]

    @property
    def ok(self) -> Optional[bool]:
        """True when a violated requirement is certified, else None."""
        return True if self.violations else None


def _teich_coord(v: WittVec) -> Optional[HahnSeries]:
    """The series c when v = [c], else None."""
    vn = v.normalized()
    if vn.p_min == 0 and vn.coords and vn.coords[0].terms \
            and all(c.is_zero() for c in vn.coords[1:]):
        return vn.coords[0]
    return None


def factorization_obstruction_check(x_elt: ScholzeElement, y: WittVec,
                                    z: WittVec) -> ObstructionReport:
    """Given a claimed factorization x = y*z, certify at least one violated
    requirement for y, z in W(m_K)."""
    cy, cz = _teich_coord(y), _teich_coord(z)
    if cy is not None:
        prod = mul_teichmuller(z, cy)
    elif cz is not None:
        prod = mul_teichmuller(y, cz)
    else:
        prod = witt_mul(y, z)
    if not witt_equal_at_precision(prod, x_elt.x):
        raise NotAFactorizationError("y*z does not reproduce x at precision")

    violations: List[dict] = []
    normal = {"y": y.normalized(), "z": z.normalized()}
    for name, factor in normal.items():
        if ring_membership(factor, "W(m_K)") is False:
            violations.append(
                {"kind": "factor_not_in_W_mK", "factor": name})

    # Slope multiset: certified slopes of y and z must combine to x's.
    try:
        sx = x_elt.x_slopes
        sy = newton_polygon(y).certified_slope_multiset()
        sz = newton_polygon(z).certified_slope_multiset()
        if (sy + sz) - sx:
            violations.append(
                {"kind": "slope_multiset_mismatch",
                 "detail": "certified factor slopes not contained in x's slopes"})
    except (PrecisionError, ZeroSeriesError):
        pass  # slopes not certified at this precision: no violation here

    # Bounded-below coordinate valuations against v(x_n) -> 0.
    for name, factor in normal.items():
        floors = [c.valuation() for c in factor.coords if c.terms]
        if floors and len(floors) == len(factor.coords):
            c_min = min(floors)
            if c_min.sign() > 0:
                bound = c_min.as_fractions()[0]
                below = [i for i, s in enumerate(x_elt.s_seq) if s < bound]
                if below:
                    violations.append(
                        {"kind": "valuations_bounded_below",
                         "factor": name,
                         "bound": {"num": bound.numerator,
                                   "den": bound.denominator},
                         "x_level_below": below[0]})
    return ObstructionReport(violations)
