"""Guards for what the benchmark binds by name: ``bench/tracing.py`` wraps
package functions and methods at every module that binds them, and
``bench/glue_cert.py`` calls ``glue_to_free`` with a table argument on a
datum with ``Fraction`` gammas."""

from fractions import Fraction
import importlib.util
import os

from wittkit.glueing import GlueDatum, glue_to_free
from wittkit.hahn import HahnSeries
from wittkit.values import Zp1
from wittkit.witt import WittVec
from wittkit.wittpoly import get_table

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", os.path.join(BENCH, "tracing.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def bindings(mods):
    """Every attribute of the traced modules and of the classes they define."""
    out = {}
    for name, mod in mods.items():
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_tracer_install_then_uninstall_restores_every_binding():
    tracing = load_tracing()
    mods = {name: importlib.import_module(f"wittkit.{name}")
            for name in tracing.MODULES}
    before = bindings(mods)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        changed = {k for k, v in bindings(mods).items() if v is not before[k]}
        targets = {(m, *path.split(".")) for m, path, _ in tracing.SPANS}
        targets |= {(m, cls, "__post_init__") for m, cls, _ in tracing.COUNTED}
        assert targets <= changed
        # the Witt ring operations reach eval_poly through wittpoly's rebound
        # attribute; a capped coordinate keeps them on the tables, which
        # multiply key series, not through HahnSeries.__mul__
        witt = mods["witt"]
        one = HahnSeries.t_pow(2, Zp1(0, 2))
        capped = HahnSeries(2, "Zp1", one.terms, Zp1(4, 2))
        a = WittVec(2, "Zp1", 0, (one, HahnSeries.t_pow(2, Zp1(1, 2)), capped))
        witt.witt_mul(witt.witt_add(a, a), witt.witt_neg(a))
        totals = tracer.totals()
        assert totals["wittpoly.eval.calls"] == 9
        assert totals["hahn.mul.calls"] == 0
        assert [totals[f"witt.{op}.calls"] for op in ("add", "neg", "mul")] == [1, 1, 1]
    finally:
        tracer.uninstall()
    after = bindings(mods)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_glue_to_free_takes_the_benchmark_call_shape():
    datum = GlueDatum(p=2, group="Zp1", rank=2,
                      factors=(("diag", ((1, Fraction(1)), (-1, Fraction(-2)))),),
                      prec_n=4, gamma_max=Fraction(8))
    cert = glue_to_free(datum, get_table(2))
    assert cert.ok is True
