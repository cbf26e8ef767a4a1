import importlib
import json
from fractions import Fraction
import os
import random
import subprocess
import sys

import pytest

import wittkit
from wittkit import cli
from wittkit.cli import main
from wittkit import glueing
from wittkit.glueing import (GlueCertificate, GlueDatum, glue_datum_from_json,
                             glue_to_free)
from wittkit.hahn import HahnSeries
from wittkit.values import Zp1, lex
from wittkit.witt import WittVec, teichmuller, witt_from_json
from wittkit.wittpoly import table_level_cap

from conftest import within_seconds
import digit_oracle
from ghost_oracle import oracle_add, oracle_mul, oracle_neg
from test_bench_surface import BENCH
from test_glueing import _rand_mu
from test_wittpoly import const_witt, coords_of


def tpow(q):
    return HahnSeries.t_pow(2, Zp1(Fraction(q), 2))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_selftest_passes_and_is_deterministic(capsys):
    code1, rep1 = run(capsys, "selftest", "--seed", "5")
    code2, rep2 = run(capsys, "selftest", "--seed", "5")
    assert code1 == code2 == 0
    assert rep1["hash"] == rep2["hash"]
    assert all(v["verdict"] == "pass" for v in rep1["verdicts"])


def test_witt_add_and_mul(capsys, tmp_path):
    a = teichmuller(tpow(1), 3)
    b = teichmuller(tpow(2), 3)
    path = write_json(tmp_path, "add.json",
                      {"a": a.to_json(), "b": b.to_json(), "op": "mul"})
    code, rep = run(capsys, "witt", "--input", path)
    assert code == 0
    result = rep["certificates"][0]["result"]
    # [t][t^2] = [t^3]
    assert result["coords"][0]["terms"][0][0]["num"] == 3


def test_witt_neg(capsys, tmp_path):
    a = teichmuller(tpow(0), 3)
    path = write_json(tmp_path, "neg.json", {"a": a.to_json(), "op": "neg"})
    code, rep = run(capsys, "witt", "--input", path)
    assert code == 0


ORACLES = {"add": oracle_add, "mul": oracle_mul,
           "neg": lambda xs, ys, p: oracle_neg(xs, p)}


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3)])
@pytest.mark.parametrize("op", ["add", "mul", "neg"])
def test_witt_ops_match_ghost_oracle_at_odd_p(capsys, tmp_path, p, n, op):
    # the ring operation finds the table of its operands' prime
    rng = random.Random(10 * p + n)
    vecs = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(6)]
    vecs[0] = vecs[1] = (p - 1,) * n
    for xs, ys in zip(vecs[::2], vecs[1::2]):
        obj = {"op": op, "a": const_witt(xs, p).to_json()}
        if op != "neg":
            obj["b"] = const_witt(ys, p).to_json()
        code, rep = run(capsys, "witt", "--input",
                        write_json(tmp_path, "in.json", obj))
        assert code == 0
        assert rep["verdicts"][0]["name"] == f"witt-{op}"
        out = witt_from_json(rep["certificates"][0]["result"])
        assert (out.p, out.p_min) == (p, 0)
        assert coords_of(out, p) == ORACLES[op](xs, ys, p)


def test_witt_adds_prime_field_vectors_past_the_table_cap(capsys, tmp_path):
    # F_p-constant vectors are p-adic integers and read no table level
    n = table_level_cap() + 2
    xs, ys = (1,) * n, (1, 0) * (n // 2)
    obj = {"op": "add", "a": const_witt(xs, 2).to_json(),
           "b": const_witt(ys, 2).to_json()}
    code, rep = run(capsys, "witt", "--input",
                    write_json(tmp_path, "in.json", obj))
    assert code == 0
    out = witt_from_json(rep["certificates"][0]["result"])
    assert (out.p_min, len(out.coords)) == (0, n)
    assert coords_of(out, 2) == oracle_add(xs, ys, 2)


def test_witt_past_the_table_cap_is_a_resource_limit(capsys, tmp_path):
    # a capped coordinate keeps the operation on the tables
    a = teichmuller(tpow(Fraction(1, 2)), table_level_cap() + 1)
    capped = HahnSeries(2, "Zp1", tpow(Fraction(1, 2)).terms, Zp1(3, 2))
    b = WittVec(2, "Zp1", 0, (capped,) + a.coords[1:])
    obj = {"op": "add", "a": a.to_json(), "b": b.to_json()}
    code = main(["witt", "--input", write_json(tmp_path, "in.json", obj)])
    assert code == 3
    assert "resource limit" in capsys.readouterr().err


@pytest.mark.parametrize("op", ["add", "mul"])
def test_witt_computes_exact_vectors_past_the_table_cap(capsys, tmp_path, op):
    # exact coordinates compute as Hahn series over Z/2^8: no table level
    n = table_level_cap() + 2
    half = tpow(Fraction(1, 2))
    a = WittVec(2, "Zp1", 0, (half,) * n)
    b = WittVec(2, "Zp1", 0, (half, tpow(0)) * (n // 2))
    obj = {"op": op, "a": a.to_json(), "b": b.to_json()}
    code, rep = run(capsys, "witt", "--input",
                    write_json(tmp_path, "in.json", obj))
    assert code == 0
    out = witt_from_json(rep["certificates"][0]["result"])
    oracle = {"add": digit_oracle.oracle_add, "mul": digit_oracle.oracle_mul}[op]
    assert (out.p_min, len(out.coords)) == (0, n)
    assert digit_oracle.digits(out) == oracle(digit_oracle.digits(a),
                                              digit_oracle.digits(b), 2)


A_JSON = teichmuller(tpow(1), 3).to_json()


@pytest.mark.parametrize("obj,reason", [
    ({"op": "sub", "a": A_JSON, "b": A_JSON}, "unknown op 'sub'"),
    ({"op": ["add"], "a": A_JSON, "b": A_JSON}, "unknown op ['add']"),
    ([1, 2], "expected an object"),
    ("add", "expected an object"),
    ({"op": "neg", "a": [1, 2]}, "expected a Witt vector"),
    ({"op": "add", "a": A_JSON, "b": 5}, "expected a Witt vector"),
    ({"op": "mul", "a": A_JSON}, "'b'"),
], ids=["op-sub", "op-not-a-string", "top-level-list", "top-level-string",
        "a-not-an-object", "b-not-an-object", "b-missing"])
def test_bad_witt_input_exits_three(capsys, tmp_path, obj, reason):
    path = write_json(tmp_path, "in.json", obj)
    with within_seconds(5):
        assert main(["witt", "--input", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and reason in captured.err


def test_newton_show(capsys, tmp_path):
    h = WittVec(2, "Zp1", 0, (tpow(2), tpow(0)))
    path = write_json(tmp_path, "np.json", h.to_json())
    code, rep = run(capsys, "newton", "show", "--input", path)
    assert code == 0
    cert = rep["certificates"][0]
    assert cert["faces"][0]["slope"] == [[-2, 1]]
    assert "plot" in cert


def test_witness_chains(capsys):
    code, rep = run(capsys, "witness", "arch", "--depth", "4", "--kmax", "3")
    assert code == 0
    code2, rep2 = run(capsys, "witness", "nonarch", "--depth", "4",
                      "--kmax", "3")
    assert code2 == 0
    assert rep["certificates"][0]["kind"] == "archimedean"
    assert rep2["certificates"][0]["kind"] == "nonarchimedean"


@pytest.mark.parametrize("kind", ["arch", "nonarch"])
def test_witness_chains_deeper_than_the_table_cap(capsys, kind):
    # Each chain element is g * [c_k], so dividing it by g cancels exactly
    # and reads no table: a depth past the table cap still certifies (it
    # exited 3, asking for 8 table levels against a cap of 6).
    depth = table_level_cap() + 2
    with within_seconds(10):
        code, rep = run(capsys, "witness", kind, "--depth", str(depth),
                        "--kmax", "3")
    assert code == 0
    assert rep["verdicts"][0]["verdict"] == "pass"


def test_scholze_certifies(capsys):
    code, rep = run(capsys, "scholze", "--depth", "5", "--height", "60",
                    "--candidates", "4")
    assert code in (0, 2)
    liou = next(v for v in rep["verdicts"] if v["name"] == "liouville")
    assert liou["verdict"] == "pass"


@pytest.mark.parametrize("argv", [
    ["--depth", "2", "--height", "10", "--candidates", "2"],
    ["--depth", "1", "--height", "1", "--candidates", "1"],
], ids=["depth-2", "depth-1"])
def test_scholze_shallow_depth_is_indeterminate(capsys, argv):
    # a shallow window leaves one wide gap term whose tail interval traps a
    # rational; that does not show the sum rational, so nothing is decided
    code, rep = run(capsys, "scholze", *argv)
    assert code == 2
    liou = next(v for v in rep["verdicts"] if v["name"] == "liouville")
    assert liou["verdict"] == "indeterminate"
    assert rep["certificates"][0]["liouville"]["certified"] is None


def test_glue_certificate(capsys, tmp_path):
    datum = GlueDatum(2, "Zp1", 2,
                      (("diag", ((1, Fraction(1)), (0, Fraction(-1)))),),
                      4, Fraction(8))
    path = write_json(tmp_path, "glue.json", datum.to_json())
    code, rep = run(capsys, "glue", "--input", path)
    assert code == 0
    assert rep["certificates"][0]["residual"] == "zero"


def test_glue_precision_override(capsys, tmp_path):
    datum = GlueDatum(2, "Zp1", 1, (("diag", ((1, Fraction(0)),)),), 4,
                      Fraction(8))
    path = write_json(tmp_path, "glue1.json", datum.to_json())
    code, rep = run(capsys, "glue", "--input", path, "--N", "3")
    assert code == 0
    assert rep["parameters"]["N"] == 3


def test_tower_member_and_table(capsys):
    code, rep = run(capsys, "tower", "member", "--a", "-1", "--gamma", "2",
                    "--tag", "A1")
    assert code == 0 and rep["certificates"][0]["member"] is True
    code2, rep2 = run(capsys, "tower", "table", "--window", "5")
    assert code2 == 0
    assert rep2["certificates"][0]["ok"] is True


# A fresh interpreter runs the CLI and prints the wittkit modules it loaded,
# and which of the standard library's class-generation modules.
LOADED_MODULES = """
import contextlib, io, json, sys
import wittkit.cli
argv = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    code = wittkit.cli.main(argv) if argv else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("wittkit.")
                               or m in ("dataclasses", "inspect"))]))
"""
HEAVY = {"wittkit.glueing", "wittkit.witness", "wittkit.tower"}
# The Witt core, which the tower calculus does not use.
WITT_CORE = {"wittkit.hahn", "wittkit.witt", "wittkit.wittpoly"}
# Each costs a fresh process over 10 ms: ``dataclasses`` imports ``inspect``.
CODEGEN = {"dataclasses", "inspect"}


def loaded_modules(*argv):
    src = os.path.dirname(os.path.dirname(wittkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=60).stdout
    code, modules = json.loads(out)
    return code, set(modules)


def test_subcommands_import_only_the_modules_they_run(tmp_path):
    code, mods = loaded_modules()
    assert not mods & (HEAVY | WITT_CORE | {"wittkit.newton"}), mods
    a = teichmuller(tpow(1), 3)
    witt_in = write_json(tmp_path, "add.json",
                         {"a": a.to_json(), "b": a.to_json(), "op": "add"})
    code, mods = loaded_modules("witt", "--input", witt_in)
    assert code == 0 and not mods & HEAVY, mods
    newton_in = write_json(tmp_path, "np.json", a.to_json())
    code, mods = loaded_modules("newton", "show", "--input", newton_in)
    assert code == 0 and "wittkit.newton" in mods and not mods & HEAVY, mods
    datum = GlueDatum(2, "Zp1", 1, (("diag", ((1, Fraction(0)),)),), 3,
                      Fraction(4))
    glue_in = write_json(tmp_path, "glue.json", datum.to_json())
    code, mods = loaded_modules("glue", "--input", glue_in)
    assert code == 0 and "wittkit.glueing" in mods, mods
    assert not mods & {"wittkit.witness", "wittkit.tower"}, mods
    code, mods = loaded_modules("tower", "table", "--window", "3")
    assert code == 0 and "wittkit.tower" in mods, mods
    assert not mods & (WITT_CORE | {"wittkit.newton", "wittkit.witness",
                                    "wittkit.glueing"}), mods


def test_no_subcommand_loads_dataclasses_or_inspect(tmp_path):
    a = teichmuller(tpow(1), 3)
    witt_in = write_json(tmp_path, "add.json",
                         {"a": a.to_json(), "b": a.to_json(), "op": "add"})
    newton_in = write_json(tmp_path, "np.json", a.to_json())
    datum = GlueDatum(2, "Zp1", 1, (("diag", ((1, Fraction(0)),)),), 3,
                      Fraction(4))
    glue_in = write_json(tmp_path, "glue.json", datum.to_json())
    for argv in ([], ["witt", "--input", witt_in],
                 ["newton", "show", "--input", newton_in],
                 ["glue", "--input", glue_in],
                 ["witness", "arch", "--depth", "3", "--kmax", "2"],
                 ["witness", "nonarch", "--depth", "3", "--kmax", "2"],
                 ["scholze", "--depth", "5", "--height", "60", "--candidates", "2"],
                 ["tower", "table", "--window", "2"], ["selftest"]):
        code, mods = loaded_modules(*argv)
        assert code in (0, 2) and not mods & CODEGEN, (argv, code, mods)


def test_only_an_operation_on_a_capped_coordinate_loads_the_tables(
        tmp_path, monkeypatch):
    # exact operands compute in B: no command of the benchmark's cli-cold
    # workload loads the structure-polynomial tables, and a capped
    # coordinate still does
    monkeypatch.syspath_prepend(BENCH)
    cli_cold = importlib.import_module("cli_cold")
    for name, argv in cli_cold.Inputs(0, str(tmp_path)).commands:
        code, mods = loaded_modules(*argv)
        assert code == 0 and "wittkit.wittpoly" not in mods, (name, code, mods)
    a = teichmuller(tpow(1), 3)
    capped = HahnSeries(2, "Zp1", tpow(2).terms, Zp1(5, 2))
    b = WittVec(2, "Zp1", 0, (capped,) + a.coords[1:])
    witt_in = write_json(tmp_path, "capped.json",
                         {"a": a.to_json(), "b": b.to_json(), "op": "add"})
    code, mods = loaded_modules("witt", "--input", witt_in)
    assert code == 0 and "wittkit.wittpoly" in mods, mods


def test_bad_input_exits_three(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["witt", "--input", str(bad)]) == 3
    assert main(["witt", "--input", str(tmp_path / "missing.json")]) == 3
    capsys.readouterr()


def capped_zero(cap):
    return HahnSeries(2, "Zp1", (), Zp1(Fraction(cap), 2))


@pytest.mark.parametrize("factors,code,reason", [
    # not a permutation: rejected when the datum is parsed
    ((("perm", (0, 0)),), 3, "not a permutation"),
    # the only coordinate of mu is zero below its cap, so det T is hidden
    ((("elem", 1, 0, WittVec(2, "Zp1", -1, (capped_zero(0),))),), 2,
     "determinant unit status hidden by caps"),
    # a capped level of mu blocks A[1/p] membership that no move can clear
    ((("elem", 0, 1, WittVec(2, "Zp1", 1, (tpow(Fraction(1, 2)),
                                           capped_zero(-1)))),), 2,
     "elimination stalled"),
], ids=["bad-perm", "precision-loss", "elimination-stall"])
def test_glue_error_exit_codes(capsys, tmp_path, factors, code, reason):
    datum = GlueDatum(2, "Zp1", 2, factors, 4, Fraction(8))
    path = write_json(tmp_path, "glue.json", datum.to_json())
    assert main(["glue", "--input", path]) == code
    assert reason in capsys.readouterr().err


def test_rank2_datum_singular_at_precision_is_never_a_failure(capsys, tmp_path):
    # T = [[mu, 1], [1, 0]] with mu = p^-1 [t^-2] + [t^(1/2)] is invertible
    # (det -1), but at N = 4 elimination finds row 1 singular at precision.
    # Pass and indeterminate are honest answers for it; a certified failure
    # or a usage error is not.
    mu = WittVec(2, "Zp1", -1, (tpow(-2), tpow(Fraction(1, 2))))
    datum = GlueDatum(2, "Zp1", 2, (("elem", 0, 1, mu), ("perm", (1, 0))), 4,
                      Fraction(8))
    path = write_json(tmp_path, "glue.json", datum.to_json())
    assert main(["glue", "--input", path, "--N", "4"]) in (0, 2)
    capsys.readouterr()


def det_one_products(seed, count):
    """Products of 2-4 random elementary atoms (rank 2-3, p = 2, N = 4).
    Each has determinant 1, so the glued bundle is free."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.choice([2, 3])
        atoms = []
        for _ in range(rng.randint(2, 4)):
            i, j = rng.randrange(d), rng.randrange(d)
            while j == i:
                j = rng.randrange(d)
            atoms.append(("elem", i, j, _rand_mu(rng, 4)))
        out.append(GlueDatum(2, "Zp1", d, tuple(atoms), 4, Fraction(8)))
    return out


@pytest.mark.parametrize("seed,k,reason", [
    (4, 13, "elimination cycles: step 7 repeats the matrix of step 5"),
    (2, 10, "elimination exceeded the step budget"),
    (4, 3, "elimination exceeded the step budget"),
])
def test_elimination_that_repeats_a_matrix_names_the_cycle(capsys, tmp_path,
                                                            seed, k, reason):
    # a step reads only the matrix, so a matrix seen before means the
    # elimination cycles; data that visit 120 distinct matrices keep the
    # step-budget message.  Both are indeterminate (exit 2).
    datum = det_one_products(seed, 20)[k]
    path = write_json(tmp_path, "glue.json", datum.to_json())
    assert main(["glue", "--input", path]) == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("k", [4, 13, 16])
def test_undecided_glue_certificate_exits_two(capsys, tmp_path, k):
    # the transfer step cannot decide a coefficient's membership in A: that
    # is an indeterminate certificate, not a certified failure
    datum = det_one_products(3, 20)[k]
    cert = glue_to_free(datum)
    assert cert.ok is None and cert.transfer.ok is None
    assert cert.residual_zero and cert.u_in_a1p and cert.q_in_wk
    path = write_json(tmp_path, "glue.json", datum.to_json())
    code, rep = run(capsys, "glue", "--input", path)
    assert code == 2
    assert rep["verdicts"] == [{"name": "glue-certificate",
                                "verdict": "indeterminate",
                                "reason": "coefficient membership indeterminate"}]


@pytest.mark.parametrize("change,code,reason", [
    ({"q_in_wk": None}, 2, "Q in W(K) undecided"),
    ({"residual_zero": False, "u_in_a1p": False}, 1,
     "residual T*Q - U nonzero; U in A[1/p] false"),
], ids=["q-undecided", "residual-and-u-false"])
def test_glue_reason_names_each_part_that_is_not_true(capsys, tmp_path,
                                                      monkeypatch, change,
                                                      code, reason):
    # the transfer passes, so its detail is empty: the reason must come
    # from the parts that are False or None
    real = glueing.glue_to_free

    def altered(datum):
        return GlueCertificate(**{**vars(real(datum)), **change})

    monkeypatch.setattr(glueing, "glue_to_free", altered)
    path = write_json(tmp_path, "glue.json", GLUE_DATUM)
    got, rep = run(capsys, "glue", "--input", path)
    assert rep["certificates"][0]["transfer_ok"] is True
    assert got == code
    assert rep["verdicts"][0]["reason"] == reason


def test_newton_of_zero_at_precision_exits_two(capsys, tmp_path):
    h = WittVec(2, "Zp1", 0, (capped_zero(1), capped_zero(2)))
    path = write_json(tmp_path, "zero.json", h.to_json())
    assert main(["newton", "show", "--input", path]) == 2
    assert "zero at precision" in capsys.readouterr().err


def elem_json(i, j, mu=None):
    return {"kind": "elem", "i": i, "j": j,
            "mu": (mu or WittVec(2, "Zp1", 0, (tpow(1),))).to_json()}


@pytest.mark.parametrize("atom,reason", [
    (elem_json(5, 0), "distinct indices"),
    (elem_json(1, 1), "distinct indices"),
    ({"kind": "diag", "entries": [[1, {"num": 1, "den": 1}]]}, "2 entries"),
    ({"kind": "diag", "entries": [[0, {"num": 0, "den": 1}]] * 3}, "2 entries"),
    ({"kind": "diag", "entries": [1, 2]}, "2 entries"),
    # gamma is not a {num, den} object
    ({"kind": "diag", "entries": [[1, 5], [0, {"num": 0, "den": 1}]]},
     "nonzero int}, got 5"),
    ({"kind": "diag", "entries": [[1, {"num": 1, "den": 0}],
                                  [0, {"num": 0, "den": 1}]]}, "nonzero int}"),
    # a factor that is no object, or of no known kind, raised TypeError or
    # a bare KeyError
    ([1], "is not an object of kind"),
    (5, "is not an object of kind"),
    ({"kind": "bogus"}, "is not an object of kind"),
    ({"i": 0, "j": 1}, "is not an object of kind"),
    # mu over another prime or group: a zero one certified pass
    (elem_json(0, 1, WittVec(3, "Zp1", 0, (HahnSeries.zero(3, "Zp1"),))),
     "elem atom 0: mu is over p=3, group 'Zp1', but the datum's p and group "
     "are p=2, group 'Zp1'"),
    (elem_json(0, 1, WittVec(3, "Zp1", 0, (HahnSeries.t_pow(3, Zp1(1, 3)),))),
     "elem atom 0: mu is over p=3"),
    (elem_json(0, 1, WittVec(2, "Lex", 0, (HahnSeries.t_pow(2, lex(1, 0, 2)),))),
     "elem atom 0: mu is over p=2, group 'Lex'"),
], ids=["elem-index-out-of-range", "elem-i-equals-j", "diag-too-few",
        "diag-too-many", "diag-entry-not-a-pair", "diag-gamma-not-an-object",
        "diag-gamma-zero-denominator", "atom-a-list", "atom-an-int",
        "atom-kind-unknown", "atom-kind-missing", "elem-mu-zero-other-prime",
        "elem-mu-other-prime", "elem-mu-other-group"])
def test_bad_glue_atoms_rejected_at_parse(capsys, tmp_path, atom, reason):
    obj = {"p": 2, "group": "Zp1", "rank": 2, "N": 4,
           "gamma_max": {"num": 8, "den": 1}, "factors": [atom]}
    with pytest.raises(ValueError, match=reason):
        glue_datum_from_json(obj)
    assert main(["glue", "--input", write_json(tmp_path, "g.json", obj)]) == 3
    assert reason in capsys.readouterr().err


def series_json(terms, prec="exact"):
    return {"p": 2, "group": "Zp1", "terms": terms, "prec": prec}


@pytest.mark.parametrize("obj,reason", [
    ({"p_min": 0, "N": 1, "coords": [5]}, "expected a Hahn series"),
    ({"p_min": 0, "N": 1, "coords": []}, "expected a Witt vector"),
    ({"p_min": "0", "N": 1, "coords": [series_json([])]}, "expected a Witt vector"),
    ({"p_min": 0, "N": 1, "coords": [series_json([[5, 1]])]}, "got 5"),
    ({"p_min": 0, "N": 1, "coords": [series_json([[{"num": 0, "den": 1}, "1"]])]},
     "expected a Hahn series"),
    ({"p_min": 0, "N": 1, "coords": [series_json([], prec=[1, 1])]}, "got [1, 1]"),
    # p = 1 made the Z[1/p] denominator test loop forever
    ({"p_min": 0, "N": 1, "coords": [dict(series_json([[{"num": 0, "den": 1}, 1]]), p=1)]},
     "expected a Hahn series"),
    ({"p_min": 0, "N": 1, "coords": [dict(series_json([[{"num": 0, "den": 1}, 1]]), p=4)]},
     "expected a Hahn series"),
    # an exact series with no terms names its group nowhere else
    ({"p_min": 0, "N": 1, "coords": [dict(series_json([]), group="Foo")]},
     "unknown variant 'Foo'"),
], ids=["coord-not-an-object", "no-coords", "p-min-not-an-int", "gamma-not-an-object",
        "coefficient-not-an-int", "prec-not-an-object", "p-below-two", "p-not-prime",
        "group-unknown"])
def test_bad_newton_input_rejected_at_parse(capsys, tmp_path, obj, reason):
    with within_seconds(5), pytest.raises(ValueError) as err:
        witt_from_json(obj)
    assert reason in str(err.value)
    assert main(["newton", "show", "--input", write_json(tmp_path, "w.json", obj)]) == 3
    assert reason in capsys.readouterr().err


GLUE_DATUM = {"p": 2, "group": "Zp1", "rank": 2, "N": 4,
              "gamma_max": {"num": 8, "den": 1},
              "factors": [{"kind": "diag",
                           "entries": [[1, {"num": 1, "den": 1}],
                                       [-1, {"num": -2, "den": 1}]]}]}


@pytest.mark.parametrize("change,reason", [
    ({"gamma_max": {"num": 8, "den": 0}}, "nonzero int}"),
    ({"gamma_max": 8}, "nonzero int}"),
    ({"N": "4"}, "N='4'"),
    ({"N": 0}, "N=0"),
    ({"rank": "2"}, "rank='2'"),
    ({"rank": 0}, "rank=0"),
    # p = 1 made the Z[1/p] denominator test loop forever
    ({"p": 1}, "p=1"),
    ({"p": 4}, "p=4"),
    ({"factors": 5}, "needs a list of factors, got 5"),
    ({"factors": {"kind": "perm"}}, "needs a list of factors"),
], ids=["gamma-max-zero-denominator", "gamma-max-not-an-object", "N-a-string",
        "N-zero", "rank-a-string", "rank-zero", "p-one", "p-not-prime",
        "factors-an-int", "factors-an-object"])
def test_bad_glue_datum_fields_rejected_at_parse(capsys, tmp_path, change, reason):
    obj = dict(GLUE_DATUM, **change)
    with within_seconds(5):
        with pytest.raises(ValueError, match=reason):
            glue_datum_from_json(obj)
        assert main(["glue", "--input", write_json(tmp_path, "g.json", obj)]) == 3
    assert reason in capsys.readouterr().err


def test_glue_datum_not_an_object_rejected_at_parse(capsys, tmp_path):
    # a top-level list was a TypeError, reported as exit 1, the code of a
    # certified counterexample
    obj = [GLUE_DATUM]
    with pytest.raises(ValueError, match="expected a glue datum object"):
        glue_datum_from_json(obj)
    assert main(["glue", "--input", write_json(tmp_path, "g.json", obj)]) == 3
    assert "expected a glue datum object" in capsys.readouterr().err


def test_glue_override_of_a_non_object_exits_three(capsys, tmp_path):
    # --N was set on the parsed input before the parser saw it: a list
    # raised TypeError, reported as exit 1
    path = write_json(tmp_path, "g.json", [1, 2])
    assert main(["glue", "--input", path, "--N", "5"]) == 3
    assert "expected a glue datum object" in capsys.readouterr().err


@pytest.mark.parametrize("obj,reason", [
    ({k: v for k, v in GLUE_DATUM.items() if k != "rank"},
     "glue datum has no field 'rank'"),
    (dict(GLUE_DATUM, factors=[{"kind": "perm"}]),
     "perm atom 0 has no field 'perm'"),
    (dict(GLUE_DATUM, factors=[GLUE_DATUM["factors"][0],
                               {"kind": "elem", "i": 0, "j": 1}]),
     "elem atom 1 has no field 'mu'"),
], ids=["rank", "perm-atom-perm", "elem-atom-mu"])
def test_glue_datum_missing_field_is_named(capsys, tmp_path, obj, reason):
    # a missing field was a bare KeyError, reported as the key alone
    with pytest.raises(ValueError, match=reason):
        glue_datum_from_json(obj)
    assert main(["glue", "--input", write_json(tmp_path, "g.json", obj)]) == 3
    assert reason in capsys.readouterr().err


def test_witt_missing_operand_is_named(capsys, tmp_path):
    a = teichmuller(tpow(1), 2).to_json()
    path = write_json(tmp_path, "w.json", {"a": a, "op": "add"})
    assert main(["witt", "--input", path]) == 3
    assert "witt input has no field 'b'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,reason", [
    (["tower", "member", "--gamma", "1/0"], "zero denominator"),
    (["witness", "arch", "--p", "4"], "not a prime"),
    # p = 1 made the witness loop forever
    (["witness", "nonarch", "--p", "1"], "not a prime"),
    (["scholze", "--p", "4"], "not a prime"),
    # witt reads the prime off its operands and has no --p
    (["witt", "--p", "3"], "unrecognized arguments: --p 3"),
    # counts below 1 passed vacuously: an empty chain, no candidate checked
    (["witness", "arch", "--kmax", "0"], "argument --kmax: '0' is below 1"),
    (["witness", "nonarch", "--kmax", "0"], "argument --kmax: '0' is below 1"),
    (["witness", "nonarch", "--depth", "-1"], "argument --depth: '-1' is below 1"),
    (["scholze", "--candidates", "0"], "argument --candidates: '0' is below 1"),
    (["scholze", "--height", "0"], "argument --height: '0' is below 1"),
    # depth 0 was a certified failure (exit 1) of an invalid input
    (["scholze", "--depth", "0"], "argument --depth: '0' is below 1"),
    (["tower", "table", "--window", "-1"], "argument --window: '-1' is below 0"),
], ids=["tower-gamma", "witness-p-4", "witness-p-1", "scholze-p-4",
        "witt-p-removed", "witness-arch-kmax-0", "witness-nonarch-kmax-0",
        "witness-depth-negative", "scholze-candidates-0", "scholze-height-0",
        "scholze-depth-0", "tower-window-negative"])
def test_bad_cli_arguments_exit_three(capsys, tmp_path, argv, reason):
    if argv[0] in ("glue", "witt"):
        argv = argv + ["--input", write_json(tmp_path, "in.json", GLUE_DATUM)]
    with within_seconds(5):
        assert main(argv) == 3
    assert reason in capsys.readouterr().err


def test_cli_fractions_and_primes_parse(capsys):
    code, rep = run(capsys, "tower", "member", "--a", "-1", "--gamma", "3/2",
                    "--tag", "A1")
    assert code == 0
    assert rep["certificates"][0]["monomial"]["gamma"] == {"num": 3, "den": 2}
    code, _ = run(capsys, "witness", "arch", "--p", "3", "--depth", "3",
                  "--kmax", "2")
    assert code == 0


def test_bad_usage_exits_three(capsys):
    assert main(["no-such-command"]) == 3
    capsys.readouterr()


def test_report_schema_and_hash_shape(capsys):
    code, rep = run(capsys, "tower", "member")
    assert rep["schema"] == "wittkit-report/1"
    assert len(rep["hash"]) == 64
    assert "seconds" in rep["timings"]


def test_timings_keep_sub_millisecond_times(capsys, monkeypatch, tmp_path):
    # a command timed on the monotonic clock and not rounded to ms: an
    # add of two short vectors reports its 0.4 ms, not 0.0
    clock = iter([10.0, 10.0004])
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(clock))
    a = teichmuller(tpow(1), 2)
    path = write_json(tmp_path, "add.json",
                      {"a": a.to_json(), "b": a.to_json(), "op": "add"})
    code, rep = run(capsys, "witt", "--input", path)
    assert code == 0
    assert rep["timings"]["seconds"] == pytest.approx(0.0004, abs=1e-12)


# Report hashes of the commands that read no input file.  A change that
# moves one changes the report bytes users see, so a value here changes
# only with an output change that is meant.
PINNED_HASHES = [
    (["witness", "arch"],
     "2f3f99ffd81592674c0bd5ccf6f0d41993ebe77958606d173f7bf2e3f0f6df2b"),
    (["witness", "nonarch"],
     "871feb89cf44054c5816195a1e24f4b552dc7824734f062881f7f2d4ef9bf3cd"),
    (["scholze", "--depth", "5", "--height", "60", "--candidates", "4"],
     "cbeae3b72e401e913107d1980a345975fe4d4c66253845a30ddce89a6c71a5da"),
    (["scholze", "--p", "3", "--depth", "5"],
     "a865f0f2abf3585b1bf476a4f2b55c2e39bdb16d0e4104fd7005fc4e6d7acf17"),
    (["tower", "table", "--window", "5"],
     "2f436738a91821d0001514ba3d7ec3414d73ee6eecbae7d39b37d8d4170d3821"),
    (["selftest", "--seed", "0"],
     "3dd9a8cea4e6c76df6cdd82ffd65d54e6345f790e46c5573dff78fa5ca26c84a"),
]


# The five commands without an input file, at their defaults, as cli-cold
# runs them.
DEFAULT_HASHES = [
    (["witness", "arch"],
     "2f3f99ffd81592674c0bd5ccf6f0d41993ebe77958606d173f7bf2e3f0f6df2b"),
    (["witness", "nonarch"],
     "871feb89cf44054c5816195a1e24f4b552dc7824734f062881f7f2d4ef9bf3cd"),
    (["tower", "table"],
     "f45bc0afcdfe7cbdf93223703cfcc1a32e30f2869ab8fe7962ed9673380e8d25"),
    (["selftest", "--seed", "0"],
     "3dd9a8cea4e6c76df6cdd82ffd65d54e6345f790e46c5573dff78fa5ca26c84a"),
    (["scholze"],
     "85dccd6b919e59d16d6bfd94183d38a31c235a1251737c427ca82c4869b19e6f"),
]


def test_default_report_hashes_are_pinned(capsys):
    for argv, digest in DEFAULT_HASHES:
        with within_seconds(10):
            code, rep = run(capsys, *argv)
        assert (code, rep["hash"]) == (0, digest), argv


@pytest.mark.parametrize("argv,digest", PINNED_HASHES,
                         ids=[" ".join(a[:2]) for a, _ in PINNED_HASHES])
def test_report_hash_is_pinned(capsys, argv, digest):
    with within_seconds(10):
        code, rep = run(capsys, *argv)
    assert code == 0
    assert rep["hash"] == digest


def test_newton_show_of_a_capped_lex_input_is_pinned(capsys, tmp_path,
                                                      monkeypatch):
    # A capped zero at level 0 lies above the first face; the tail floor
    # cuts the rising second face, so the certified prefix ends at level 1.
    def series(terms, cap=None):
        return HahnSeries(3, "Lex", tuple((lex(h, l, 3), c) for h, l, c in terms),
                          None if cap is None else lex(cap, 0, 3))

    h = WittVec(3, "Lex", -1, (
        series([(2, 1, 1), (3, -1, 2)]),
        series([], 5),
        series([(Fraction(-1, 3), 2, 2)], 4),
        series([(0, Fraction(5, 9), 1)]),
    ))
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, "np.json", h.to_json())
    code, rep = run(capsys, "newton", "show", "--input", "np.json")
    assert code == 0
    assert rep["certificates"][0]["certified_prefix"] == 1
    assert rep["hash"] == ("4e3440c9127514875a8abf42cd26cbf5"
                           "6a093d14fcfa04a3c4fb7c4a7369c58e")
