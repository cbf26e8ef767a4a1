"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public functions and methods of ``wittkit`` by
wrappers, at every module that binds them (``witt`` binds ``eval_poly`` by
name; ``glueing``, ``witness`` and ``cli`` bind ``witt_add`` and the other
ring operations), so calls through any binding are seen.  Hot constructors
are only counted.  Every other wrapper records a span: name, start, end,
parent span and request id, kept in flat arrays until the run ends.  A
span's self time is its duration minus the time covered by its child spans.
"""

from array import array
from collections import Counter
import functools
import importlib
import time

MODULES = ("values", "hahn", "wittpoly", "witt", "newton", "witness",
           "glueing", "tower", "cli")

# (module, attribute path, span name)
SPANS = (
    ("wittpoly", "eval_poly", "wittpoly.eval"),
    ("wittpoly", "WittPolyTable._build_level", "wittpoly.build"),
    ("hahn", "HahnSeries.__mul__", "hahn.mul"),
    ("hahn", "HahnSeries.invert", "hahn.invert"),
    ("witt", "witt_add", "witt.add"),
    ("witt", "witt_sub", "witt.sub"),
    ("witt", "witt_mul", "witt.mul"),
    ("witt", "witt_neg", "witt.neg"),
    ("witt", "witt_unit_inverse", "witt.unit_inverse"),
    ("witt", "witt_divide_with_precision", "witt.divide"),
    ("glueing", "glue_to_free", "glueing.glue_to_free"),
    ("glueing", "birkhoff_factor", "glueing.birkhoff"),
    ("glueing", "mat_inverse", "glueing.mat_inverse"),
    ("glueing", "graded_lattice_basis", "glueing.graded_basis"),
    ("glueing", "transfer_generators_check", "glueing.transfer"),
    ("glueing", "GlueDatum.matrix", "glueing.matrix"),
    ("glueing", "mat_mul", "glueing.mat_mul"),
    ("glueing", "mat_sub", "glueing.mat_sub"),
    ("witness", "ideal_chain_report", "witness.chain_report"),
    ("witness", "intersection_membership", "witness.membership"),
    ("witness", "factorization_obstruction_check", "witness.obstruction"),
    ("newton", "newton_polygon", "newton.polygon"),
    ("tower", "covering_table_check", "tower.covering_table"),
)

# (module, class, counter name): constructors counted, not timed.
COUNTED = (
    ("values", "Zp1", "values.constructed"),
    ("values", "Rat", "values.constructed"),
    ("values", "Lex", "values.constructed"),
    ("hahn", "HahnSeries", "hahn.constructed"),
)

WITT_PRIMITIVES = ("witt.add", "witt.mul", "witt.neg")
MAX_WITT_LEN = 6  # AINF_TABLE_CAP default: no op runs longer


def _eval_post(counts, args, out):
    counts["wittpoly.eval.monomials"] += len(args[0])


def _build_post(counts, args, out):
    table = args[0]
    counts["wittpoly.build.levels"] += 1
    counts["wittpoly.build.monomials"] += (
        len(table.add_polys[-1]) + len(table.mul_polys[-1])
        + len(table.neg_polys[-1]))


def _witt_post(counts, args, out):
    counts[f"witt.ops.len{len(out.coords)}"] += 1


# Counters read off a call's arguments and result.
POST = {"wittpoly.eval": _eval_post, "wittpoly.build": _build_post}
POST.update((name, _witt_post) for name in WITT_PRIMITIVES)


def _modules():
    return {name: importlib.import_module(f"wittkit.{name}") for name in MODULES}


class Tracer:
    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.stack = [-1]
        self.request_id = -1
        self.counts = Counter()
        self._undo = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, post=None):
        nid = len(self.names)
        self.names.append(name)
        start, end, names, parent, request = (
            self.start, self.end, self.name_id, self.parent, self.request)
        stack, counts, clock = self.stack, self.counts, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1])
            request.append(tracer.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post is not None:
                post(counts, args, out)
            return out

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, mods, modname, path, wrap):
        """Wrap ``modname.path``; rebind every module-level alias of it."""
        owner_name, _, attr = path.rpartition(".")
        owner = mods[modname]
        if owner_name:
            owner = getattr(owner, owner_name)
        orig = owner.__dict__[attr]
        new = wrap(orig)
        targets = [(owner, attr)]
        if not owner_name:
            targets += [(m, k) for m in mods.values() if m is not owner
                        for k, v in vars(m).items() if v is orig]
        for obj, key in targets:
            setattr(obj, key, new)
            self._undo.append((obj, key, orig))

    def install(self):
        mods = _modules()
        for modname, path, name in SPANS:
            self._replace(mods, modname, path,
                          lambda fn, name=name: self._span(name, fn, POST.get(name)))
        for modname, cls, name in COUNTED:
            self._replace(mods, modname, f"{cls}.__post_init__",
                          lambda fn, name=name: self._counter(name, fn))

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def end_request(self):
        """Drop a span cut short by the time limit while the wrapper was
        recording it, and reset the stack for the next request."""
        n = min(len(self.start), len(self.end), len(self.name_id),
                len(self.parent), len(self.request))
        for arr in (self.start, self.end, self.name_id, self.parent, self.request):
            del arr[n:]
        del self.stack[1:]

    def totals(self):
        """Additive totals: per span name calls, inclusive and self seconds;
        the residual glue time; Witt ops inside certificates; counters."""
        n = len(self.start)
        dur = [max(0.0, self.end[i] - self.start[i]) for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += dur[i]
        out = Counter(self.counts)
        ids = {name: k for k, name in enumerate(self.names)}
        glue_top = ids["glueing.glue_to_free"]
        residual_parts = {ids["glueing.matrix"], ids["glueing.mat_mul"],
                          ids["glueing.mat_sub"]}
        primitives = {ids[k] for k in WITT_PRIMITIVES}
        in_glue = [False] * n  # a parent is always recorded before its children
        for i in range(n):
            nid, par = self.name_id[i], self.parent[i]
            name = self.names[nid]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += dur[i]
            out[f"{name}.self_s"] += dur[i] - child[i]
            if par >= 0:
                in_glue[i] = in_glue[par] or self.name_id[par] == glue_top
                if nid in residual_parts and self.name_id[par] == glue_top:
                    out["glueing.residual.s"] += dur[i]
            if in_glue[i] and nid in primitives:
                out["glueing.witt_ops"] += 1
        return out

    def dump(self, path):
        """Write every span as a tab-separated line:
        request, name, start, end, parent index."""
        with open(path, "w") as fh:
            fh.write("request\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.request[i]}\t{self.names[self.name_id[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n")


def per_layer(totals, requests, build_totals, processes, cli_overhead_s=0.0):
    """Layer metrics per request from summed totals; table builds per
    process, from ``build_totals`` over ``processes`` processes."""
    req = max(1, requests)
    procs = max(1, processes)
    certs = totals.get("glueing.glue_to_free.calls", 0)

    def per_cert(x):
        return x / certs if certs else 0.0

    m = {
        "values.constructed": totals.get("values.constructed", 0) / req,
        "hahn.constructed": totals.get("hahn.constructed", 0) / req,
    }
    for key in ("hahn.mul", "hahn.invert", "wittpoly.eval"):
        m[f"{key}.calls"] = totals.get(f"{key}.calls", 0) / req
        m[f"{key}.self_s"] = totals.get(f"{key}.self_s", 0.0) / req
    m["wittpoly.eval.monomials"] = totals.get("wittpoly.eval.monomials", 0) / req
    for key in ("levels", "s", "monomials"):
        m[f"wittpoly.build.{key}"] = build_totals.get(f"wittpoly.build.{key}", 0) / procs
    for op in ("add", "sub", "mul", "neg", "unit_inverse", "divide"):
        m[f"witt.{op}.calls"] = totals.get(f"witt.{op}.calls", 0) / req
        m[f"witt.{op}.s"] = totals.get(f"witt.{op}.s", 0.0) / req
    for n in range(1, MAX_WITT_LEN + 1):
        m[f"witt.ops.len{n}"] = totals.get(f"witt.ops.len{n}", 0) / req
    for stage in ("birkhoff", "mat_inverse", "graded_basis", "transfer"):
        m[f"glueing.{stage}.s"] = totals.get(f"glueing.{stage}.s", 0.0) / req
    m["glueing.residual.s"] = totals.get("glueing.residual.s", 0.0) / req
    m["glueing.mat_inverse.calls_per_cert"] = per_cert(
        totals.get("glueing.mat_inverse.calls", 0))
    m["glueing.matrix_builds_per_cert"] = per_cert(
        totals.get("glueing.matrix.calls", 0))
    m["glueing.witt_ops_per_cert"] = per_cert(totals.get("glueing.witt_ops", 0))
    for key in ("chain_report", "membership", "obstruction"):
        m[f"witness.{key}.s"] = totals.get(f"witness.{key}.s", 0.0) / req
    m["newton.polygon.calls"] = totals.get("newton.polygon.calls", 0) / req
    m["newton.polygon.s"] = totals.get("newton.polygon.s", 0.0) / req
    m["tower.covering_table.s"] = totals.get("tower.covering_table.s", 0.0) / req
    m["cli.import_s"] = totals.get("cli.import_s", 0.0) / req
    m["cli.overhead_s"] = cli_overhead_s
    return m


UNITS = {name: ("s/req" if name.endswith(("_s", ".s")) else "count/req")
         for name in per_layer({}, 1, {}, 1)}
UNITS.update({
    "wittpoly.build.levels": "count/proc",
    "wittpoly.build.s": "s/proc",
    "wittpoly.build.monomials": "count/proc",
    "glueing.mat_inverse.calls_per_cert": "count/cert",
    "glueing.matrix_builds_per_cert": "count/cert",
    "glueing.witt_ops_per_cert": "count/cert",
    "cli.overhead_s": "s/req",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
})
