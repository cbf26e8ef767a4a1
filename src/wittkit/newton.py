"""Newton polygons and Gauss norms of Witt expansions.

The polygon of h = sum p^n [c_n] is the lower convex hull of the points
(n, v(c_n)).  At finite precision only a prefix of the hull can be certified:
coordinates hidden by a t-precision cap, and coordinates beyond the p-adic
precision, are modelled as admissible points with valuation at least a floor,
and a hull face is certified only if no such point could cut below it.

Slopes are stored with their sign as-is: the face from (n, v(c_n)) to
(n+1, v(c_{n+1})) has slope v(c_{n+1}) - v(c_n), which is the negative of
the coordinate-ratio valuation v(c_n/c_{n+1}).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm
from typing import List, Optional, Tuple

from .errors import UnsupportedFormError, ZeroSeriesError
from .values import Frozen, GammaElt, Lex, gamma_zero
from .witt import WittVec

SlopeKey = Tuple[Fraction, ...]  # per-unit slope, one entry per group coordinate


class Face(Frozen):
    slope: SlopeKey
    width: int
    rise: GammaElt  # total height change over the face


class NewtonPolygon(Frozen):
    p: int
    group: str
    vertices: Tuple[Tuple[int, GammaElt], ...]
    faces: Tuple[Face, ...]
    certified_width: int  # faces are certified left-to-right up to this width
    complete: bool  # True when the expansion is known in full

    def certified_faces(self) -> Tuple[Face, ...]:
        out, acc = [], 0
        for f in self.faces:
            if acc + f.width > self.certified_width:
                break
            out.append(f)
            acc += f.width
        return tuple(out)

    def certified_slope_multiset(self) -> Counter:
        c: Counter = Counter()
        for f in self.certified_faces():
            c[f.slope] += f.width
        return c

    def to_json(self):
        return {
            "vertices": [[n, h.to_json()] for n, h in self.vertices],
            "faces": [
                {"slope": [[s.numerator, s.denominator] for s in f.slope],
                 "width": f.width}
                for f in self.faces
            ],
            "certified_prefix": self.vertices[0][0] + self.certified_width,
            "complete": self.complete,
        }


def _parts(v: GammaElt) -> Tuple[Tuple[int, int], ...]:
    """(numerator, denominator) of each group coordinate of v."""
    if type(v) is Lex:
        return ((v.hi.num, v.hi.den), (v.lo.num, v.lo.den))
    return ((v.num, v.den),)


def _cross_sign(p1, p2, p3) -> int:
    """Lexicographic sign of the cross product (p2-p1) x (p3-p1).

    Heights are tuples of ints (length 1 for scalar groups, 2 for lex);
    positive means p3 lies above the line p1-p2 (left turn).
    """
    x1, y1 = p1
    x2, y2 = p2
    x3, y3 = p3
    dx12, dx13 = x2 - x1, x3 - x1
    val = tuple(dx12 * (c3 - c1) - dx13 * (c2 - c1)
                for c1, c2, c3 in zip(y1, y2, y3))
    for v in val:
        if v:
            return 1 if v > 0 else -1
    return 0


def _lower_hull(points: List[Tuple[int, Tuple[int, ...]]]):
    pts = sorted(points)
    hull = []
    for pt in pts:
        while len(hull) >= 2 and _cross_sign(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    return hull


def newton_polygon(h: WittVec, tail_floor: Optional[GammaElt] = None,
                   complete: bool = False) -> NewtonPolygon:
    """Certified prefix of the lower convex hull of {(n, v(c_n))}.

    ``tail_floor`` bounds from below the valuations of coordinates that are
    invisible (capped to zero, or beyond the p-adic precision).  By default
    it is min(0, smallest visible valuation floor).  With ``complete=True``
    the stored coordinates are taken to be the entire expansion and the whole
    hull is certified.
    """
    known: List[Tuple[int, GammaElt]] = []
    threats: List[Tuple[int, GammaElt]] = []
    zero = gamma_zero(h.group, h.p)
    for i, c in enumerate(h.coords):
        level = h.p_min + i
        if c.terms:
            known.append((level, c.valuation()))
        elif not c.is_exact():
            threats.append((level, c.prec))
    if not known:
        raise ZeroSeriesError("Newton polygon of an element that is zero at precision")

    if tail_floor is None:
        cands = [zero] + [v for _, v in known] + [b for _, b in threats]
        tail_floor = min(cands)
    if not complete:
        threats.append((h.prec_n, tail_floor))
    else:
        threats = []

    # Hull and certificate compare heights times the common denominator d
    # of every point: scaling by d > 0 keeps each cross-product sign, and
    # the heights are ints.
    d = lcm(*(den for _, v in known + threats for _, den in _parts(v)))

    def height(v: GammaElt) -> Tuple[int, ...]:
        return tuple(num * (d // den) for num, den in _parts(v))

    hull_pts = _lower_hull([(n, height(v)) for n, v in known])
    val_by_level = {n: v for n, v in known}
    vertices = tuple((n, val_by_level[n]) for n, _ in hull_pts)

    faces: List[Face] = []
    for (n1, v1), (n2, v2) in zip(vertices, vertices[1:]):
        rise = v2 - v1
        width = n2 - n1
        slope = tuple(r / width for r in rise.as_fractions())
        faces.append(Face(slope, width, rise))

    # A face is certified iff every threat point lies weakly above its line;
    # complete=True leaves no threat, so it certifies every face.
    # The tail is a ray (valuations >= tail_floor at every level from prec_n
    # on), and a rising line eventually passes above it: no rising face is.
    threat_pts = [(tn, height(tv)) for tn, tv in threats]
    certified_width = 0
    for f, a, b in zip(faces, hull_pts, hull_pts[1:]):
        if threats and f.rise.sign() > 0:
            break
        if any(_cross_sign(a, b, t) < 0 for t in threat_pts):
            break
        certified_width += f.width

    return NewtonPolygon(h.p, h.group, vertices, tuple(faces),
                         certified_width, complete)


def np_minkowski(np1: NewtonPolygon, np2: NewtonPolygon) -> NewtonPolygon:
    """Polygon with slope multiset the disjoint union (the product oracle)."""
    if np1.p != np2.p or np1.group != np2.group:
        raise UnsupportedFormError("polygons over different groups")
    faces = sorted(np1.faces + np2.faces, key=lambda f: f.slope)
    n0 = np1.vertices[0][0] + np2.vertices[0][0]
    h0 = np1.vertices[0][1] + np2.vertices[0][1]
    vertices = [(n0, h0)]
    merged: List[Face] = []
    for f in faces:
        if merged and merged[-1].slope == f.slope:
            prev = merged.pop()
            f = Face(f.slope, prev.width + f.width, prev.rise + f.rise)
        merged.append(f)
    n, hgt = n0, h0
    for f in merged:
        n, hgt = n + f.width, hgt + f.rise
        vertices.append((n, hgt))
    complete = np1.complete and np2.complete
    cert = min(np1.certified_width + np2.certified_width,
               sum(f.width for f in merged))
    return NewtonPolygon(np1.p, np1.group, tuple(vertices), tuple(merged),
                         cert, complete)


def gauss_norm(h: WittVec, s: Fraction) -> Tuple[Fraction, bool]:
    """w_s(h) = min_n (n + s*v(c_n)); returns (value, exact).

    exact is False when a capped coordinate could push the minimum lower,
    in which case the value is a certified lower bound.
    """
    if h.group == "Lex":
        raise UnsupportedFormError("Gauss norms need a rank-1 value group")
    s = Fraction(s)
    best: Optional[Fraction] = None
    exact = True
    bounds: List[Fraction] = []
    for i, c in enumerate(h.coords):
        n = h.p_min + i
        if c.terms:
            w = n + s * c.valuation().as_fractions()[0]
            if best is None or w < best:
                best = w
        elif not c.is_exact():
            bounds.append(n + s * c.prec.as_fractions()[0])
    if best is None and not bounds:
        raise ZeroSeriesError("Gauss norm of zero element")
    for b in bounds:
        if best is None or b < best:
            best = b
            exact = False
    return best, exact


def ascii_plot(np: NewtonPolygon) -> str:
    """Crude ASCII rendering of the hull (first group coordinate only), on a
    grid of 12 by 40 cells."""
    rows, cols = 12, 40
    xs = [n for n, _ in np.vertices]
    ys = [v.as_fractions()[0] for _, v in np.vertices]
    if len(xs) == 1:
        return f"*  (single vertex at level {xs[0]}, height {ys[0]})"
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if ymax == ymin:
        ymax = ymin + 1
    grid = [[" "] * (cols + 1) for _ in range(rows + 1)]
    for (x1, y1), (x2, y2) in zip(zip(xs, ys), list(zip(xs, ys))[1:]):
        steps = max(2 * cols // max(1, len(xs) - 1), 2)
        for k in range(steps + 1):
            t = Fraction(k, steps)
            x = x1 + t * (x2 - x1)
            y = y1 + t * (y2 - y1)
            col = int((x - xmin) / (xmax - xmin) * cols)
            row = int((ymax - y) / (ymax - ymin) * rows)
            grid[row][col] = "*"
    return "\n".join("".join(r).rstrip() for r in grid if "".join(r).strip())
