from collections import Counter
from fractions import Fraction
import random

import pytest

from wittkit.errors import UnsupportedFormError, ZeroSeriesError
from wittkit.hahn import HahnSeries
from wittkit.newton import ascii_plot, gauss_norm, newton_polygon, np_minkowski
from wittkit.values import Zp1, gamma_from_fraction, gamma_zero, lex
from wittkit.witt import WittVec, witt_mul

from conftest import rand_witt


def tpow(q, p=2):
    return HahnSeries.t_pow(p, Zp1(Fraction(q), p))


def wvec(vals, p=2, p_min=0):
    coords = tuple(
        HahnSeries.zero(p, "Zp1") if v is None else tpow(Fraction(v), p)
        for v in vals)
    return WittVec(p, "Zp1", p_min, coords)


def test_single_teichmuller_polygon():
    np1 = newton_polygon(wvec([3]), complete=True)
    assert np1.vertices == ((0, Zp1(3, 2)),)
    assert np1.faces == ()
    assert np1.certified_width == 0


def test_two_point_slope():
    np1 = newton_polygon(wvec([2, 1]), complete=True)
    assert len(np1.faces) == 1
    assert np1.faces[0].slope == (Fraction(-1),)
    assert np1.faces[0].width == 1


@pytest.mark.parametrize("vals,first,last,rows", [
    ([3], "*  (single vertex at level 0, height 3)", None, 1),
    ([1, 1, 1], "*" * 41, None, 1),  # flat: the hull is one full row
    ([2, 0], "****", " " * 40 + "*", 13),
], ids=["one-coordinate", "equal-valuations", "falling"])
def test_ascii_plot_of_a_hull(vals, first, last, rows):
    lines = ascii_plot(newton_polygon(wvec(vals), complete=True)).split("\n")
    assert len(lines) == rows and lines[0] == first
    assert lines[-1] == (last or first)


def test_hull_skips_interior_points():
    # (0,0), (1,5), (2,1): the middle point lies above the hull
    np1 = newton_polygon(wvec([0, 5, 1]), complete=True)
    assert [n for n, _ in np1.vertices] == [0, 2]
    assert np1.faces[0].slope == (Fraction(1, 2),)
    assert np1.faces[0].width == 2


def test_certified_prefix_stops_at_precision():
    # without complete=True the tail beyond prec_n is a threat point
    h = wvec([0, -1])
    np1 = newton_polygon(h)
    # tail floor is -1, so a future point at level 2 could cut below the face
    assert np1.certified_width <= 1
    full = newton_polygon(h, complete=True)
    assert full.certified_width == 1


def test_capped_coordinate_is_a_threat():
    capped = HahnSeries.zero(2, "Zp1", Zp1(Fraction(-5), 2))
    h = WittVec(2, "Zp1", 0, (tpow(0), capped, tpow(1)))
    np1 = newton_polygon(h)
    assert np1.certified_width == 0


def test_zero_element_raises():
    with pytest.raises(ZeroSeriesError):
        newton_polygon(WittVec.zero(2, "Zp1", 3))


def test_minkowski_empty_is_identity():
    a = newton_polygon(wvec([0, 1]), complete=True)
    single = newton_polygon(wvec([2]), complete=True)
    s = np_minkowski(a, single)
    assert s.certified_slope_multiset() == a.certified_slope_multiset()
    assert s.vertices[0] == (0, Zp1(2, 2))


def test_minkowski_merges_slope_multisets():
    a = newton_polygon(wvec([1, 0]), complete=True)   # slope -1
    b = newton_polygon(wvec([2, 0]), complete=True)   # slope -2
    s = np_minkowski(a, b)
    assert s.certified_slope_multiset() == Counter({(Fraction(-2),): 1,
                                                    (Fraction(-1),): 1})
    assert s.certified_width == 2
    assert s.vertices[-1][1] - s.vertices[0][1] == Zp1(-3, 2)


def test_complete_polygons_certify_every_face():
    a = newton_polygon(wvec([0, 5, 1, 4]), complete=True)   # a rising face
    b = newton_polygon(wvec([3, 1, 0]), complete=True)
    for np_ in (a, b, np_minkowski(a, b)):
        assert np_.complete and np_.faces
        assert np_.certified_faces() == np_.faces
        assert np_.certified_width == sum(f.width for f in np_.faces)


def test_multiplicativity_random_pairs(rng):
    checked = 0
    for _ in range(120):
        f = rand_witt(rng, nonzero_lead=True)
        g = rand_witt(rng, nonzero_lead=True)
        try:
            npf = newton_polygon(f, complete=True)
            npg = newton_polygon(g, complete=True)
        except ZeroSeriesError:
            continue
        prod = witt_mul(f, g)
        # coordinates of the product hidden beyond the precision window have
        # valuation at least min v(f_i) + v(g_j): a sound tail floor
        floor = min(cf.valuation() + cg.valuation()
                    for cf in f.coords if cf.terms
                    for cg in g.coords if cg.terms)
        try:
            npp = newton_polygon(prod, tail_floor=floor)
        except ZeroSeriesError:
            continue
        expected = np_minkowski(npf, npg)
        got = npp.certified_slope_multiset()
        want = expected.certified_slope_multiset()
        # compare ascending slopes within the common certified prefix
        k = min(npp.certified_width, expected.certified_width)

        def prefix(ms):
            out = []
            for s in sorted(ms):
                out.extend([s] * ms[s])
            return out[:k]

        assert prefix(got) == prefix(want), (f, g)
        checked += 1
    assert checked >= 100


def test_gauss_norm_values():
    h = wvec([2, 1, 0])
    val, exact = gauss_norm(h, Fraction(1))
    # min(0+2, 1+1, 2+0) = 2
    assert val == 2 and exact
    val0, _ = gauss_norm(h, Fraction(0))
    assert val0 == 0


def test_gauss_norm_capped_zero_is_a_lower_bound():
    # h = [t] + p * (0 mod t^cap): the capped level may hold a term of any
    # valuation >= cap, so 1 + s*cap bounds w_s(h) from below
    for cap, want in ((-1, (0, False)), (5, (1, True))):
        h = WittVec(2, "Zp1", 0,
                    (tpow(1), HahnSeries.zero(2, "Zp1", Zp1(cap, 2))))
        assert gauss_norm(h, Fraction(1)) == want


def test_gauss_norm_subadditive_on_products(rng):
    for _ in range(40):
        f = rand_witt(rng, nonzero_lead=True)
        g = rand_witt(rng, nonzero_lead=True)
        prod = witt_mul(f, g)
        for s in (Fraction(1), Fraction(1, 2), Fraction(2)):
            try:
                wf, ef = gauss_norm(f, s)
                wg, eg = gauss_norm(g, s)
                wp, _ = gauss_norm(prod, s)
            except ZeroSeriesError:
                continue
            if ef and eg:
                assert wp >= wf + wg


def test_minkowski_sum_across_groups_is_refused():
    np1 = newton_polygon(wvec([3]), complete=True)
    np3 = newton_polygon(wvec([3], p=3), complete=True)
    with pytest.raises(UnsupportedFormError, match="different groups"):
        np_minkowski(np1, np3)


def test_gauss_norm_of_the_exact_zero_raises():
    with pytest.raises(ZeroSeriesError):
        gauss_norm(WittVec.zero(2, "Zp1", 3), Fraction(1))


def test_gauss_norm_rejects_lex():
    from wittkit.values import lex
    h = WittVec(2, "Lex", 0, (HahnSeries.t_pow(2, lex(1, 0, 2)),))
    with pytest.raises(UnsupportedFormError):
        gauss_norm(h, Fraction(1))


def test_rising_face_not_certified_against_tail_ray():
    # levels 0, 1 at valuations 0, 1 and floor 2: the completion with
    # valuation 2 at levels 2 and 3 has first face slope 2/3, so the slope-1
    # face is not certified, whatever the floor
    h = wvec([0, 1])
    for floor in (Zp1(0, 2), Zp1(2, 2), Zp1(100, 2)):
        assert newton_polygon(h, tail_floor=floor).certified_width == 0
    # a falling face above the floor stays certified
    assert newton_polygon(wvec([2, 1]), tail_floor=Zp1(1, 2)).certified_width == 1


def _fraction_polygon(h, tail_floor=None, complete=False):
    """Vertex levels and certified width of h's polygon, by the hull and
    face certificate on Fraction heights."""
    known = [(h.p_min + i, c.valuation()) for i, c in enumerate(h.coords) if c.terms]
    threats = [(h.p_min + i, c.prec) for i, c in enumerate(h.coords)
               if not c.terms and c.prec is not None]
    if tail_floor is None:
        tail_floor = min([gamma_zero(h.group, h.p)] + [v for _, v in known + threats])
    threats = [] if complete else threats + [(h.prec_n, tail_floor)]

    def below(a, b, c):  # c strictly below the line through a and b
        (x1, y1), (x2, y2), (x3, y3) = a, b, c
        cross = [(x2 - x1) * (c3 - c1) - (x3 - x1) * (c2 - c1)
                 for c1, c2, c3 in zip(y1, y2, y3)]
        return next((e < 0 for e in cross if e), None)

    hull = []
    for pt in sorted((n, v.as_fractions()) for n, v in known):
        while len(hull) >= 2 and below(hull[-2], hull[-1], pt) is not False:
            hull.pop()
        hull.append(pt)
    width = 0
    for a, b in zip(hull, hull[1:]):
        if threats and b[1] > a[1]:
            break
        if any(below(a, b, (n, v.as_fractions())) for n, v in threats):
            break
        width += b[0] - a[0]
    return [n for n, _ in hull], width


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("group", ["Zp1", "Rat", "Lex"])
def test_int_hull_matches_the_fraction_hull(group, p):
    rng = random.Random(f"{group}-{p}")

    def gamma():
        q = Fraction(rng.randint(-6, 6), rng.choice((1, p, p * p, 3 if group == "Rat" else 1)))
        if group == "Lex":
            return lex(q, Fraction(rng.randint(-3, 3), rng.choice((1, p))), p)
        return gamma_from_fraction(q, group, p)

    def above(g):
        if group == "Lex":
            return g + lex(rng.randint(0, 2), 1, p)
        return g + gamma_from_fraction(Fraction(rng.randint(1, 4), p), group, p)

    partial = 0
    for _ in range(150):
        coords = []
        for _ in range(rng.randint(1, 6)):
            terms = tuple((gamma(), rng.randrange(1, p)) for _ in range(rng.randint(0, 2)))
            cap = above(max([g for g, _ in terms] + [gamma()])) \
                if rng.random() < 0.4 else None
            coords.append(HahnSeries(p, group, terms, cap))
        h = WittVec(p, group, rng.randint(-2, 2), tuple(coords))
        if not any(c.terms for c in h.coords):
            continue
        for kwargs in ({}, {"tail_floor": gamma()}, {"complete": True}):
            np1 = newton_polygon(h, **kwargs)
            levels, width = _fraction_polygon(h, **kwargs)
            assert [n for n, _ in np1.vertices] == levels, (h, kwargs)
            assert np1.certified_width == width, (h, kwargs)
            assert all(v == h.coord(n).valuation() for n, v in np1.vertices)
            partial += 0 < width < levels[-1] - levels[0]
    assert partial > 10
