"""Command-line front end: JSON-in/JSON-out reports over the library.

Exit codes: 0 all checks pass; 1 a certified counterexample, which the
report carries (an entry outside the intersection, a failing table cell, a
nonzero residual); 2 any indeterminate verdict, including a run that loses
the precision it needs, whose elimination stalls, whose glue certificate
cannot decide a transfer coefficient, or that meets an element zero at its
precision where a nonzero one is needed; 3 usage or resource errors
(malformed input, Witt table cap exceeded).
Reports are deterministic for a fixed invocation and seed; the report hash
excludes timings.

Each subcommand imports the modules it runs when it runs.  Only
``errors`` and ``values`` are imported with this module, so a fresh
``wittkit tower`` process compiles no Witt core (``hahn``, ``witt``), and a
fresh ``wittkit witt`` none of ``newton``, ``witness``, ``glueing`` or
``tower``.  The structure-polynomial tables (``wittpoly``) load only when an
operation on a capped coordinate runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from .errors import (NotAFactorizationError, PrecisionError, TableCapError,
                     ZeroSeriesError, required)
from .values import is_prime

SCHEMA = "wittkit-report/1"


def _report(command: str, parameters: dict) -> dict:
    return {"schema": SCHEMA, "command": command, "parameters": parameters,
            "certificates": [], "verdicts": [], "timings": {}}


def _verdict(report: dict, name: str, ok, reason: str) -> None:
    """Record a three-valued check: False fails, None is indeterminate."""
    verdict = {True: "pass", False: "fail", None: "indeterminate"}[ok]
    report["verdicts"].append({"name": name, "verdict": verdict,
                               "reason": reason})


def _finish(report: dict, t0: float) -> int:
    report["timings"]["seconds"] = time.perf_counter() - t0
    hashed = {k: v for k, v in report.items() if k != "timings"}
    payload = json.dumps(hashed, sort_keys=True, default=str)
    report["hash"] = hashlib.sha256(payload.encode()).hexdigest()
    json.dump(report, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")
    verdicts = [v["verdict"] for v in report["verdicts"]]
    if any(v == "fail" for v in verdicts):
        return 1
    if any(v == "indeterminate" for v in verdicts):
        return 2
    return 0


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


# -- subcommands ------------------------------------------------------------


WITT_OPS = ("add", "mul", "neg")


def _cmd_witt(args) -> int:
    from .witt import witt_add, witt_from_json, witt_mul, witt_neg
    t0 = time.perf_counter()
    rep = _report("witt", {"input": args.input})
    obj = _load_json(args.input)
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object {{'op', 'a', 'b'}}, got {obj!r}")
    op = obj.get("op", "add")
    if op not in WITT_OPS:
        raise ValueError(f"unknown op {op!r}; expected one of {WITT_OPS}")
    a = witt_from_json(required(obj, "a", "witt input"))
    if op == "neg":
        out = witt_neg(a)
    else:
        b = witt_from_json(required(obj, "b", "witt input"))
        out = witt_add(a, b) if op == "add" else witt_mul(a, b)
    rep["certificates"].append({"op": op, "result": out.to_json()})
    _verdict(rep, f"witt-{op}", True, "computed at precision")
    return _finish(rep, t0)


def _cmd_newton(args) -> int:
    from .newton import ascii_plot, newton_polygon
    from .witt import witt_from_json
    t0 = time.perf_counter()
    rep = _report("newton", {"input": args.input})
    h = witt_from_json(_load_json(args.input))
    np = newton_polygon(h)
    cert = np.to_json()
    cert["plot"] = ascii_plot(np)
    rep["certificates"].append(cert)
    _verdict(rep, "newton-show", True,
             f"certified prefix width {np.certified_width}")
    return _finish(rep, t0)


def _cmd_witness(args) -> int:
    from .witness import (build_archimedean_witness,
                          build_nonarchimedean_witness, ideal_chain_report)
    t0 = time.perf_counter()
    rep = _report("witness", {"kind": args.kind, "p": args.p,
                              "depth": args.depth, "kmax": args.kmax})
    if args.kind == "arch":
        w = build_archimedean_witness(args.p, args.depth)
    else:
        w = build_nonarchimedean_witness(args.p, args.depth)
    chain = ideal_chain_report(w, args.kmax)
    rep["certificates"].append(chain.to_json())
    reason = {True: "all chain elements certified in the intersection; "
                    "leading valuations strictly decreasing",
              False: "chain check failed",
              None: "membership hidden by precision caps"}[chain.ok]
    _verdict(rep, f"witness-{args.kind}", chain.ok, reason)
    return _finish(rep, t0)


def _cmd_scholze(args) -> int:
    from .hahn import HahnSeries
    from .witness import (build_scholze_element,
                          factorization_obstruction_check,
                          liouville_certificate, regrouped_subsequence)
    from .witt import divide_exact_teichmuller, teichmuller
    t0 = time.perf_counter()
    rep = _report("scholze", {"p": args.p, "depth": args.depth,
                              "height": args.height,
                              "candidates": args.candidates})
    el = build_scholze_element(args.p, args.depth)
    terms = regrouped_subsequence(list(el.s_seq))
    liou = liouville_certificate(terms, args.height)
    rep["certificates"].append({"liouville": liou.to_json()})
    _verdict(rep, "liouville", liou.ok, liou.reason)

    violated = 0
    s_min = min(el.s_seq)
    for k in range(1, args.candidates + 1):
        gamma = s_min + Fraction(k, 4 * args.candidates)
        tg = HahnSeries.t_pow(args.p, type(el.x.coords[0].terms[0][0])(gamma, args.p))
        y = teichmuller(tg, el.x.prec_n)
        z = divide_exact_teichmuller(el.x, tg)
        violated += factorization_obstruction_check(el, y, z).ok is True
    indeterminate = args.candidates - violated
    rep["certificates"].append({"candidates": args.candidates,
                                "violated": violated,
                                "indeterminate": indeterminate})
    _verdict(rep, "obstruction-family", None if indeterminate else True,
             f"{indeterminate} candidates undecided" if indeterminate
             else f"all {violated} candidate factorizations violated")
    return _finish(rep, t0)


def _cmd_glue(args) -> int:
    from .glueing import glue_datum_from_json, glue_to_free
    t0 = time.perf_counter()
    rep = _report("glue", {"input": args.input, "N": args.N})
    obj = _load_json(args.input)
    if args.N is not None and isinstance(obj, dict):
        obj["N"] = args.N
    datum = glue_datum_from_json(obj)
    cert = glue_to_free(datum)
    rep["certificates"].append(cert.to_json())
    # the reason names each part of the certificate that is not True
    gaps = [] if cert.residual_zero else ["residual T*Q - U nonzero"]
    for part, ok in (("U in A[1/p]", cert.u_in_a1p),
                     ("Q in W(K)", cert.q_in_wk)):
        if ok is not True:
            gaps.append(f"{part} {'false' if ok is False else 'undecided'}")
    if cert.transfer.ok is not True:
        gaps.append(cert.transfer.detail)
    reason = "; ".join(gaps) or "T*Q == U at precision with membership certificates"
    _verdict(rep, "glue-certificate", cert.ok, reason)
    return _finish(rep, t0)


def _cmd_tower(args) -> int:
    from .tower import Monomial, covering_table_check, monomial_membership
    t0 = time.perf_counter()
    rep = _report("tower", {"mode": args.mode, "window": args.window})
    if args.mode == "member":
        m = Monomial(args.a, args.gamma)
        ok = monomial_membership(m, args.tag)
        rep["certificates"].append({"monomial": m.to_json(), "tag": args.tag,
                                    "member": ok})
        _verdict(rep, "tower-member", True, f"membership is {ok}")
    else:
        table_rep = covering_table_check(args.window)
        rep["certificates"].append(table_rep.to_json())
        _verdict(rep, "tower-table", table_rep.ok,
                 "all covering-table cells verified" if table_rep.ok
                 else f"{len(table_rep.failures)} failing cells")
    return _finish(rep, t0)


def _cmd_selftest(args) -> int:
    import random

    from .glueing import GlueDatum, glue_to_free
    from .hahn import HahnSeries
    from .tower import covering_table_check
    from .values import Zp1
    from .witness import build_archimedean_witness, ideal_chain_report
    from .witt import (WittVec, teichmuller, witt_add, witt_equal_at_precision,
                       witt_mul)
    t0 = time.perf_counter()
    rep = _report("selftest", {"seed": args.seed})
    rng = random.Random(args.seed)

    # Witt arithmetic sanity: [1] + [1] == p for p = 2.
    one = WittVec.one(2, "Zp1", 3)
    s = witt_add(one, one)
    ok = (s.coords[0].is_zero() and not s.coords[1].is_zero())
    rep["certificates"].append({"check": "one-plus-one", "ok": ok})
    _verdict(rep, "witt-sanity", ok, "[1]+[1] == p")

    # Archimedean witness, short chain.
    w = build_archimedean_witness(2, 4)
    chain = ideal_chain_report(w, 3)
    rep["certificates"].append({"check": "arch-chain", "ok": chain.ok})
    _verdict(rep, "witness-sanity", chain.ok,
             "chain certified and strictly decreasing")

    # Random Teichmuller multiplicativity probes.
    probes = 0
    for _ in range(20):
        e1 = Fraction(rng.randint(-4, 4), 2 ** rng.randint(0, 2))
        e2 = Fraction(rng.randint(-4, 4), 2 ** rng.randint(0, 2))
        t1 = teichmuller(HahnSeries.t_pow(2, Zp1(e1, 2)), 3)
        t2 = teichmuller(HahnSeries.t_pow(2, Zp1(e2, 2)), 3)
        prod = witt_mul(t1, t2)
        want = teichmuller(HahnSeries.t_pow(2, Zp1(e1 + e2, 2)), 3)
        probes += witt_equal_at_precision(prod, want)
    rep["certificates"].append({"check": "teichmuller-mult", "ok": probes == 20})
    _verdict(rep, "teichmuller-sanity", probes == 20, f"{probes}/20 exact")

    # Tower covering table on a small window.
    trep = covering_table_check(5)
    rep["certificates"].append({"check": "tower-table", "ok": trep.ok})
    _verdict(rep, "tower-sanity", trep.ok, "covering table verified")

    # Tiny glue round trip.
    datum = GlueDatum(2, "Zp1", 1, (("diag", ((1, Fraction(-1)),)),), 3,
                      Fraction(4))
    cert = glue_to_free(datum)
    rep["certificates"].append({"check": "glue-d1", "ok": cert.ok})
    _verdict(rep, "glue-sanity", cert.ok, "d=1 certificate complete")

    return _finish(rep, t0)


# -- argument parsing -------------------------------------------------------


def prime(text: str) -> int:
    """argparse type: a prime, by the check the JSON parsers run."""
    p = int(text)
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"{text!r} is not a prime")
    return p


def positive(text: str) -> int:
    """argparse type: a count or depth, at least 1 (0 would check nothing)."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is below 1")
    return n


def nonnegative(text: str) -> int:
    """argparse type: an int of at least 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is below 0")
    return n


def fraction(text: str) -> Fraction:
    """argparse type: a rational such as 3/2, with a nonzero denominator."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator") from None


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wittkit",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_witt = sub.add_parser("witt", help="Witt arithmetic on JSON inputs")
    p_witt.add_argument("--input", required=True)
    p_witt.set_defaults(func=_cmd_witt)

    p_newton = sub.add_parser("newton", help="Newton polygon of an element")
    p_newton.add_argument("mode", choices=["show"])
    p_newton.add_argument("--input", required=True)
    p_newton.set_defaults(func=_cmd_newton)

    p_wit = sub.add_parser("witness", help="non-coherence witness chains")
    p_wit.add_argument("kind", choices=["arch", "nonarch"])
    p_wit.add_argument("--p", type=prime, default=2)
    p_wit.add_argument("--depth", type=positive, default=5)
    p_wit.add_argument("--kmax", type=positive, default=8)
    p_wit.set_defaults(func=_cmd_witness)

    p_sch = sub.add_parser("scholze", help="rapid sequence obstruction")
    p_sch.add_argument("--p", type=prime, default=2)
    p_sch.add_argument("--depth", type=positive, default=6)
    p_sch.add_argument("--height", type=positive, default=1000)
    p_sch.add_argument("--candidates", type=positive, default=50)
    p_sch.set_defaults(func=_cmd_scholze)

    p_glue = sub.add_parser("glue", help="two-chart factorization certificate")
    p_glue.add_argument("--input", required=True)
    p_glue.add_argument("--N", type=int, default=None)
    p_glue.set_defaults(func=_cmd_glue)

    p_tow = sub.add_parser("tower", help="ring tower calculus")
    p_tow.add_argument("mode", choices=["member", "table"])
    p_tow.add_argument("--window", type=nonnegative, default=8)
    p_tow.add_argument("--a", type=int, default=0)
    p_tow.add_argument("--gamma", type=fraction, default="0")
    p_tow.add_argument("--tag", default="A")
    p_tow.set_defaults(func=_cmd_tower)

    p_self = sub.add_parser("selftest", help="deterministic invariant suite")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=_cmd_selftest)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (PrecisionError, NotAFactorizationError, ZeroSeriesError) as exc:
        print(f"wittkit: indeterminate at this precision: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"wittkit: bad input: {exc}", file=sys.stderr)
        return 3
    except TableCapError as exc:
        print(f"wittkit: resource limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
