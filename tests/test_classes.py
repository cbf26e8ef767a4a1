"""Contracts of the package's hand-written classes: ``repr``, equality and
hash, immutability, the one record constructor, one ``__post_init__`` call
per construction, and the hot records' slots, pickling and copying."""

from collections import Counter
import copy
from fractions import Fraction
import importlib
import pickle
import pkgutil

import pytest

import wittkit
from wittkit.glueing import GlueDatum, glue_to_free, graded_lattice_basis
from wittkit.hahn import HahnSeries
from wittkit.newton import newton_polygon
from wittkit.tower import Monomial, covering_table_check
from wittkit.values import (Frozen, Lex, Rat, Zp1, gamma_from_fraction,
                            gamma_scale_int, lex)
from wittkit.witness import (build_archimedean_witness,
                             build_nonarchimedean_witness,
                             build_scholze_element,
                             factorization_obstruction_check,
                             ideal_chain_report, intersection_membership,
                             liouville_certificate)
from wittkit.witt import (WittVec, divide_exact_teichmuller, teichmuller,
                          witt_add, witt_divide_with_precision, witt_mul,
                          witt_neg, witt_sub, witt_unit_inverse)

from conftest import fields_of


def _samples():
    x = Zp1(Fraction(-3, 4), 2)
    return [
        (Rat(Fraction(-3, 4), 3), "Rat(-3/4)"),
        (Rat(5, 2), "Rat(5)"),
        (x, "Zp1(-3/4)"),
        (Zp1(7, 3), "Zp1(7)"),
        (lex(1, Fraction(-1, 2), 2), "Lex(1,-1/2)"),
        (lex(0, 3, 5), "Lex(0,3)"),
        (HahnSeries.zero(2, "Zp1"), "<0>"),
        (HahnSeries.zero(3, "Rat", Rat(Fraction(1, 2), 3)), "<0 mod t^(Rat(1/2))>"),
        (HahnSeries(3, "Zp1", ((Zp1(1, 3), 1), (Zp1(Fraction(-1, 3), 3), 2)),
                    Zp1(2, 3)),
         "<2*t^(Zp1(-1/3)) + 1*t^(Zp1(1)) mod t^(Zp1(2))>"),
        (HahnSeries.t_pow(5, lex(Fraction(1, 5), -2, 5), 3), "<3*t^(Lex(1/5,-2))>"),
        (WittVec(2, "Zp1", -1, (HahnSeries.t_pow(2, x),
                                HahnSeries.zero(2, "Zp1", Zp1(1, 2)))),
         "Witt(p^-1[<1*t^(Zp1(-3/4))>] + p^0[<0 mod t^(Zp1(1))>]; N=1)"),
        (teichmuller(HahnSeries.one(3, "Rat"), 2),
         "Witt(p^0[<1*t^(Rat(0))>] + p^1[<0>]; N=2)"),
        (WittVec(2, "Zp1", 3, ()), "Witt(0; N=3)"),
    ]


SAMPLES = _samples()


@pytest.mark.parametrize("obj,text", SAMPLES,
                         ids=[f"{type(o).__name__}-{i}" for i, (o, _) in enumerate(SAMPLES)])
def test_repr_is_unchanged(obj, text):
    assert repr(obj) == text


def _equal_pairs():
    """Pairs of equal objects, each built two different ways."""
    third = Fraction(1, 3)
    return [
        (Rat(Fraction(2, 6), 2), Rat._of(1, 3, 2)),
        (Zp1(Fraction(6, 8), 2), Zp1(Fraction(1, 4), 2) + Zp1(Fraction(1, 2), 2)),
        (lex(1, Fraction(1, 3), 3),
         Lex(Zp1(2, 3), Zp1(1, 3)) - lex(1, Fraction(2, 3), 3)),
        # unsorted input with a repeated exponent merges to the same terms
        (HahnSeries(3, "Zp1", ((Zp1(1, 3), 2), (Zp1(0, 3), 1), (Zp1(1, 3), 2))),
         HahnSeries(3, "Zp1", ((Zp1(0, 3), 1), (Zp1(1, 3), 1)))),
        (HahnSeries.t_pow(2, Rat(third, 2)) * HahnSeries.t_pow(2, Rat(third, 2)),
         HahnSeries.t_pow(2, Rat(2 * third, 2))),
        (Monomial(1, 2), Monomial(1, Fraction(4, 2))),
    ]


@pytest.mark.parametrize("x,y", _equal_pairs())
def test_equal_objects_hash_equally(x, y):
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y)
    assert {x: 1}[y] == 1


def test_a_rat_never_equals_a_zp1():
    for q in (Fraction(1, 2), 0, 3):
        r, z = Rat(q, 2), Zp1(q, 2)
        assert r != z and z != r and not r == z and not z == r
        assert len({r, z}) == 2
    assert lex(1, 0, 2) != Zp1(1, 2) and Zp1(1, 2) != lex(1, 0, 2)
    exps = [HahnSeries.t_pow(2, cls(Fraction(1, 2), 2)) for cls in (Rat, Zp1)]
    assert exps[0] != exps[1]
    assert HahnSeries.zero(2, "Zp1") != HahnSeries.zero(2, "Zp1", Zp1(1, 2))
    assert Monomial(1, 0) != Monomial(0, 1) and Monomial(1, 0) != (1, 0)


def _frozen_objects():
    h = WittVec(2, "Zp1", 0, (HahnSeries.t_pow(2, Zp1(1, 2)),
                              HahnSeries.t_pow(2, Zp1(0, 2))))
    polygon = newton_polygon(h, complete=True)
    datum = GlueDatum(2, "Zp1", 1, (("diag", ((1, Fraction(0)),)),), 3, Fraction(4))
    glue = glue_to_free(datum)
    one = WittVec.one(2, "Zp1", 1)
    arch = build_archimedean_witness(2, 3)
    scholze = build_scholze_element(2, 3)
    tg = HahnSeries.t_pow(2, Rat(min(scholze.s_seq) + Fraction(1, 4), 2))
    obstruction = factorization_obstruction_check(
        scholze, teichmuller(tg, scholze.x.prec_n),
        divide_exact_teichmuller(scholze.x, tg))
    return [
        Rat(1, 2), Zp1(1, 2), lex(1, 2, 3), HahnSeries.one(2, "Zp1"), h,
        polygon, polygon.faces[0], Monomial(1, 0), datum,
        arch, build_nonarchimedean_witness(2, 3), scholze,
        graded_lattice_basis([[one]], [[one]], datum), glue.transfer, glue,
        covering_table_check(1),
        intersection_membership(WittVec.zero(2, "Zp1", 1), arch),
        ideal_chain_report(arch, 1), liouville_certificate([Fraction(1, 2)], 1),
        obstruction,
    ]


@pytest.mark.parametrize("obj", _frozen_objects(), ids=lambda o: type(o).__name__)
def test_frozen_instances_refuse_setattr_and_delattr(obj):
    before = fields_of(obj)
    assert before
    for name in (*before, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert fields_of(obj) == before


HOT = (Rat, Zp1, Lex, HahnSeries, WittVec, Monomial)


def _hot_objects():
    x = Zp1(Fraction(-3, 4), 2)
    series = HahnSeries(2, "Zp1", ((x, 1), (Zp1(1, 2), 1)), Zp1(3, 2))
    return [
        Rat(Fraction(2, 3), 5), Rat._of(1, 3, 2), x, Zp1._of(1, 4, 2),
        lex(1, Fraction(-1, 3), 3), Lex._of(x, x),
        series, HahnSeries._of(2, "Zp1", ((x, 1),)),
        HahnSeries.zero(3, "Rat", Rat(Fraction(1, 2), 3)),
        WittVec(2, "Zp1", -1, (series, HahnSeries.zero(2, "Zp1"))),
        WittVec._of(2, "Zp1", 0, (series,)),
        Monomial(1, Fraction(1, 2)), Monomial(-2, 3),
    ]


def test_hot_records_are_slotted_with_exactly_their_fields():
    # a subclass without its own __slots__ (Zp1's is empty) gets a __dict__
    # back, and with it the slower attribute reads the slots avoid
    for cls in HOT:
        assert cls.__slots__ == tuple(vars(cls).get("__annotations__", ()))
    objs = _hot_objects()
    assert {type(obj) for obj in objs} == set(HOT)
    for obj in objs:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


@pytest.mark.parametrize("obj", _hot_objects(), ids=lambda o: type(o).__name__)
def test_hot_records_survive_pickle_and_deepcopy(obj):
    copies = [pickle.loads(pickle.dumps(obj, protocol))
              for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.deepcopy(obj), copy.copy(obj)]
    for twin in copies:
        assert type(twin) is type(obj) and not hasattr(twin, "__dict__")
        assert fields_of(twin) == fields_of(obj)
        with pytest.raises(AttributeError):
            setattr(twin, next(iter(fields_of(obj))), None)


class _Point(Frozen):
    x: int
    y: int
    label: str = "origin"


def test_frozen_init_reads_fields_from_annotations():
    assert vars(_Point(1, 2)) == {"x": 1, "y": 2, "label": "origin"}
    assert vars(_Point(1, y=2, label="a")) == {"x": 1, "y": 2, "label": "a"}
    assert vars(_Point(y=2, x=1)) == {"x": 1, "y": 2, "label": "origin"}
    for args, kwargs, message in [
        ((1, 2), {"z": 3}, "has no field 'z'"),
        ((1, 2), {"x": 3}, "got field 'x' twice"),
        ((1, 2, "a", 4), {}, "takes 3 fields, got 4"),
        ((1,), {}, "is missing field 'y'"),
    ]:
        with pytest.raises(TypeError, match=message):
            _Point(*args, **kwargs)


def _package_classes():
    for info in pkgutil.iter_modules(wittkit.__path__):
        mod = importlib.import_module(f"wittkit.{info.name}")
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                yield value


def test_every_record_is_frozen_and_only_hot_classes_write_init():
    classes = [c for c in _package_classes() if not issubclass(c, Exception)]
    others = {c.__name__ for c in classes if not issubclass(c, Frozen)}
    assert others == {"WittPolyTable", "Keys", "_Digits"}
    own_init = {c.__name__ for c in classes
                if c is not Frozen and "__init__" in vars(c)}
    assert own_init == {"WittPolyTable", "Keys", "_Digits",
                        "Rat", "Lex", "HahnSeries", "WittVec", "Monomial"}


def test_post_init_runs_once_per_construction(monkeypatch):
    # wrapped in each class's own __dict__, as the benchmark's tracer counts
    # ``values.constructed`` and ``hahn.constructed``: a public constructor
    # runs exactly one, and an operation on valid records none, as it builds
    # its result by ``_of``
    counts = Counter()
    for cls in (Rat, Zp1, Lex, HahnSeries):
        real = vars(cls)["__post_init__"]

        def counted(self, real=real, name=cls.__name__):
            counts[name] += 1
            return real(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    x, y = Zp1(Fraction(1, 2), 2), Zp1(3, 2)
    a, b = Lex(x, y), Lex(y, x)
    s, t = HahnSeries.t_pow(2, x), HahnSeries.t_pow(2, y)
    # capped three-term series, whose products pack by hahn.Keys
    quarter, one = Zp1(Fraction(1, 4), 2), Zp1(1, 2)
    f = HahnSeries(2, "Zp1", ((quarter, 1), (x, 1), (one, 1)), Zp1(4, 2))
    g = HahnSeries(2, "Zp1", ((x, 1), (one, 1), (y, 1)), Zp1(5, 2))
    u = HahnSeries(2, "Zp1", ((Zp1(0, 2), 1), (quarter, 1), (x, 1)), Zp1(4, 2))
    exact = WittVec(2, "Zp1", 0, (s, t, s))
    capped = WittVec(2, "Zp1", 0, (f, g, u))
    cases = [
        (lambda: Rat(Fraction(1, 3), 2), {"Rat": 1}),
        (lambda: Zp1(Fraction(1, 4), 2), {"Zp1": 1}),
        (lambda: Lex(x, y), {"Lex": 1}),
        (lambda: lex(1, Fraction(1, 2), 2), {"Lex": 1, "Zp1": 2}),
        (lambda: gamma_from_fraction(Fraction(1, 2), "Lex", 2), {"Lex": 1, "Zp1": 2}),
        (lambda: HahnSeries(2, "Zp1", ((x, 1), (y, 1))), {"HahnSeries": 1}),
        # not canonical: the merge and sort run inside the one call
        (lambda: HahnSeries(2, "Zp1", ((y, 1), (x, 1), (y, 1))), {"HahnSeries": 1}),
        (lambda: HahnSeries.t_pow(2, x), {"HahnSeries": 1}),
        # a sum merges terms, so it runs the check
        (lambda: f + g, {"HahnSeries": 1}),
        (lambda: Rat._of(1, 3, 2), {}),
        (lambda: Zp1._of(1, 4, 2), {}),
        (lambda: Lex._of(x, y), {}),
        (lambda: (x + y, x - y, -x, x.scale_p(2), x.scale_p(-2),
                  gamma_scale_int(x, 3)), {}),
        (lambda: (a + b, a - b, -a, a.scale_p(1), gamma_scale_int(a, 2)), {}),
        (lambda: (HahnSeries.zero(2, "Zp1"), HahnSeries.one(2, "Zp1"),
                  -f, f.frobenius_iter(2), f.frobenius_iter(-1)), {}),
        # a product builds its exponents and itself unchecked, as the exact
        # Witt kernel's digits are built
        (lambda: s * t, {}),
        (lambda: f * g, {}),
        (lambda: f ** 3, {}),
        (lambda: s.invert(), {}),
        # the target; the rest is unchecked
        (lambda: u.invert(Zp1(3, 2)), {"Zp1": 1}),
        (lambda: [law(v, w) for law in (witt_add, witt_sub, witt_mul)
                  for v in (exact, capped) for w in (exact, capped)], {}),
        (lambda: (witt_neg(exact), witt_neg(capped), WittVec.zero(2, "Zp1", 3),
                  WittVec.one(2, "Zp1", 3), witt_unit_inverse(exact),
                  witt_divide_with_precision(capped, exact)), {}),
    ]
    for make, want in cases:
        counts.clear()
        make()
        assert counts == Counter(want)
