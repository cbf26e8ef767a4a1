"""cli-cold: a fixed list of ``wittkit`` subcommands, each a fresh process.

Every request starts ``python -m wittkit.cli`` (or, in the traced run, the
benchmark's launcher around ``wittkit.cli.main``), so it pays interpreter
start, imports and table builds again.  One child runs at a time.

The Newton polygon input and the operands of the length-6 ``witt add`` are
drawn once from ``POOL_SEED``; the glue input is the README datum.  The
workload seed is the selftest seed and picks the command a run starts at.
A pass runs each command once and a run completes only two or three, so
inputs drawn afresh per seed would make runs with different seeds measure
different work.  The pool seed is fixed and was not chosen.
"""

from collections import namedtuple
from fractions import Fraction
import json
import os
import random
import subprocess
import time

import oracle
from wittkit.errors import PrecisionError
from wittkit.hahn import HahnSeries
from wittkit.values import Zp1
from wittkit.witt import WittVec

IN_PROCESS = False
TIME_LIMIT_S = 60.0
POOL_SEED = 0
P = 2
WITT_LENGTH = 6
README_DATUM = {
    "p": 2, "group": "Zp1", "rank": 2, "N": 4,
    "gamma_max": {"num": 8, "den": 1},
    "factors": [{"kind": "diag",
                 "entries": [[1, {"num": 1, "den": 1}],
                             [-1, {"num": -2, "den": 1}]]}],
}
# Exit codes the CLI documents: 0 pass, 1 certified failure, 2 indeterminate,
# 3 usage or resource error.  Every command below has the known answer pass;
# an honest indeterminate (exit 2) is undecided rather than failed.  Any
# other exit code, or a report whose verdicts disagree with it, is an error.
OUTCOME_BY_EXIT = {0: "pass", 1: "fail", 2: "indeterminate"}


def _fp_vec(digits):
    one = HahnSeries.one(P, "Zp1")
    return WittVec(P, "Zp1", 0, tuple(
        one if c else HahnSeries.zero(P, "Zp1") for c in digits))


class Inputs:
    """Input files and the command list, written under the work directory
    with paths relative to the checkout root so that report hashes do not
    depend on where the checkout lives.  The runner sets ``launcher``, the
    argv prefix that starts the CLI, and the child ``env``."""

    launcher = None
    env = None

    def __init__(self, seed, workdir):
        rng = random.Random(POOL_SEED)
        rel = os.path.relpath(workdir)
        os.makedirs(workdir, exist_ok=True)

        def write(name, obj):
            path = os.path.join(rel, name)
            with open(path, "w") as fh:
                json.dump(obj, fh)
            return path

        self.a = tuple(rng.randrange(P) for _ in range(WITT_LENGTH))
        self.b = tuple(rng.randrange(P) for _ in range(WITT_LENGTH))
        witt_in = write("witt_add.json", {"a": _fp_vec(self.a).to_json(),
                                          "b": _fp_vec(self.b).to_json(),
                                          "op": "add"})
        elt = WittVec(P, "Zp1", 0, tuple(
            HahnSeries.t_pow(P, Zp1(Fraction(rng.randint(-4, 4), 2 ** rng.randint(0, 1)), P))
            for _ in range(4)))
        newton_in = write("newton.json", elt.to_json())
        glue_in = write("readme_datum.json", README_DATUM)
        commands = (
            ("selftest", ["selftest", "--seed", str(seed)]),
            ("witness-arch", ["witness", "arch"]),
            ("witness-nonarch", ["witness", "nonarch"]),
            ("scholze", ["scholze"]),
            ("tower-table", ["tower", "table"]),
            ("newton-show", ["newton", "show", "--input", newton_in]),
            ("glue-N4", ["glue", "--input", glue_in, "--N", "4"]),
            ("glue-N9", ["glue", "--input", glue_in, "--N", "9"]),
            ("witt-add", ["witt", "--input", witt_in]),
        )
        offset = random.Random(seed).randrange(len(commands))
        self.commands = commands[offset:] + commands[:offset]


def setup(seed, workdir):
    return Inputs(seed, workdir)


Result = namedtuple("Result", "code report wall_s")


def invoke(argv, env):
    """Run one child to completion; the limit kills it on expiry."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, timeout=TIME_LIMIT_S, text=True)
    wall = time.perf_counter() - t0
    try:
        report = json.loads(proc.stdout) if proc.stdout.strip() else None
    except json.JSONDecodeError:
        report = None
    return Result(proc.returncode, report, wall)


class Chain:
    """A single request: one CLI invocation."""

    def __init__(self, inputs, name, args):
        self.inputs, self.name, self.args = inputs, name, args
        self.requests = []

    def steps(self):
        res = yield invoke, (self.inputs.launcher + self.args, self.inputs.env)
        self.requests.append((self.name, self.args, res))
        return self._grade(res)

    def _grade(self, res):
        outcome = OUTCOME_BY_EXIT.get(res.code, "error")
        if outcome == "error" or res.report is None:
            return "error"
        verdicts = {v["verdict"] for v in res.report["verdicts"]}
        if outcome not in verdicts or not verdicts <= {"pass", outcome}:
            return "error"
        if self.name == "witt-add" and outcome == "pass":
            got = res.report["certificates"][0]["result"]
            if got["p_min"] != 0 or len(got["coords"]) != WITT_LENGTH:
                return "fail"
            digits = []
            for c in got["coords"]:
                terms = c["terms"]
                if terms and (len(terms) != 1 or terms[0][0]["num"] != 0):
                    return "fail"
                digits.append(terms[0][1] if terms else 0)
            if tuple(digits) != oracle.add(self.inputs.a, self.inputs.b, P):
                return "fail"
        return outcome

    def verdicts(self, outcome):
        return [outcome for _ in self.requests]


def chains(inputs):
    while True:
        for name, args in inputs.commands:
            yield Chain(inputs, name, args)


def pass_length(inputs):
    return len(inputs.commands)


UNDECIDED = (PrecisionError,)


def child_overhead(res):
    """Wall time of the child outside the command's own timed region."""
    if res.report is None:
        return None
    return res.wall_s - res.report["timings"]["seconds"]


def canonical(res):
    """Exit code and the mathematical content of the report: certificates
    and verdicts, without timings, parameters (which name input paths) or
    the hash over them."""
    rep = res.report or {}
    return {"exit": res.code, "certificates": rep.get("certificates"),
            "verdicts": rep.get("verdicts")}
