"""Benchmark of the wittkit package: one workload per run, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One caller sends the next request only
after the previous one completes.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the stream untraced for half the time, then
replays the same requests with per-layer wrappers installed and prints the
per-layer metrics with the tracing overhead.  The last line of standard
output is a JSON object with the keys correct, attempted, failed, metrics;
the lines before it list every metric with its unit, the sample counts, the
outcome of the correctness checks, the environment and an output digest.

Workloads (``BENCHMARK.json`` lists the gated ones and why each is there):
  witt-arith  in-process Witt ring operations, checked by identities and by
              an integer ghost-component oracle;
  cli-cold    a fixed list of CLI subcommands, one fresh process each;
  glue-cert   in-process glue certificates, known verdict pass.  Not gated:
              with a third workload the gated runs are too short for its
              multi-second certificates to time steadily.  Run it by hand
              for changes to ``glueing``.

Each workload repeats one pass over a fixed set of inputs, so every run
measures the same work.  Times are reported in seconds at the reference
speed of ``hostspeed``: each request's measured time is scaled by how fast
the host ran a fixed reference loop in the gaps around it, which takes out
the shared host's swings and leaves the cost of the code.  The measured
times are printed beside them.  Each distinct request of the pass
is timed at the median of its repetitions in the run; latency percentiles
are taken over these, and throughput is the requests completed per second
of one pass at these latencies.  The shares of failed and decided requests
cover the full passes of a run.  Each request has a time limit; a request
that fails is charged the limit as its latency.  Set-up time is the median
over fresh processes.
"""

import argparse
from collections import Counter
import glob
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build", "wittkit-bench")
WORKLOADS = {"witt-arith": "witt_arith", "glue-cert": "glue_cert",
             "cli-cold": "cli_cold"}
SETUP_PROBES = 15
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above
OUTCOMES = ("pass", "fail", "indeterminate", "error", "timeout")
FAILED = ("fail", "error", "timeout")
DECIDED = ("pass", "fail")


class TimeLimit(BaseException):
    """Raised in the main thread when a request exceeds its time limit.
    A BaseException, so that no ``except Exception`` in the package
    swallows it."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise TimeLimit()


def child_env():
    """Environment for every child: the checkout's sources only, and the
    table level cap at its default."""
    env = {k: v for k, v in os.environ.items() if k != "AINF_TABLE_CAP"}
    env["PYTHONPATH"] = SRC
    return env


def timed_call(fn, args, limit, in_process, undecided):
    """Run one request; return (outcome, result, seconds).  The outcome is
    None when the request returned; otherwise the result is the name of
    the exception it raised, if any."""
    global _armed
    outcome, result = None, None
    t0 = time.perf_counter()
    try:
        try:
            if in_process:
                _armed = True
                signal.setitimer(signal.ITIMER_REAL, limit)
            result = fn(*args)
        finally:
            if in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
                _armed = False
    except (TimeLimit, subprocess.TimeoutExpired):
        outcome = "timeout"
    except undecided as exc:
        outcome, result = "indeterminate", type(exc).__name__
    except Exception as exc:  # any other exception from the package fails the request
        outcome, result = "error", type(exc).__name__
    return outcome, result, time.perf_counter() - t0


class Stream:
    """Closed-loop run of a workload's request chains."""

    def __init__(self, mod):
        self.mod = mod
        self.latency = []   # seconds per attempted request
        self.started = []   # perf_counter at the start of each request
        self.gaps = hostspeed.Gaps()
        self.outcome = []   # pass | fail | indeterminate | error | timeout
        self.position = []  # (chain within the pass, request within the chain)
        self.chains = 0
        self.digest = hashlib.sha256()
        self.digested = 0
        self.child_overhead = []
        self.exceptions = Counter()  # exception name -> requests
        self.passes = []  # requests at the end of each full pass

    def run(self, state, seconds, max_chains=None, tracer=None):
        mod = self.mod
        stream = mod.chains(state)
        pass_length = mod.pass_length(state)
        in_process = mod.IN_PROCESS
        self.gaps.sample(0)
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds:
            if max_chains is not None and self.chains >= max_chains:
                break
            chain = next(stream)
            self.chains += 1
            steps = chain.steps()
            first = len(self.latency)
            verdict = None
            try:
                fn, args = next(steps)
                while True:
                    if tracer is not None:
                        tracer.request_id = len(self.latency)
                    self.started.append(time.perf_counter())
                    outcome, result, dt = timed_call(
                        fn, args, mod.TIME_LIMIT_S, in_process, mod.UNDECIDED)
                    if tracer is not None:
                        tracer.end_request()
                    self.gaps.sample(dt)
                    self.position.append(((self.chains - 1) % pass_length,
                                          len(self.latency) - first))
                    self.latency.append(dt)
                    self.outcome.append(outcome)
                    if outcome is not None:
                        if result is not None:
                            self.exceptions[result] += 1
                        break
                    fn, args = steps.send(result)
            except StopIteration as stop:
                verdict = stop.value
            graded = chain.verdicts(verdict)
            done = 0
            for i in range(first, len(self.latency)):
                if self.outcome[i] is None:
                    self.outcome[i] = graded[done]
                    done += 1
            if self.chains <= pass_length:  # the digest covers the first pass
                self._digest(chain, first)
            if not in_process:
                self.child_overhead += [mod.child_overhead(r) for _, _, r in chain.requests]
            if self.chains % pass_length == 0:
                self.passes.append(len(self.latency))
        return self

    def window(self):
        """Requests the outcome shares cover: the full passes over the
        workload's inputs, which are the same work whatever the seed;
        everything when not one pass completed."""
        return self.passes[-1] if self.passes else len(self.latency)

    def _digest(self, chain, first):
        """Fold outcomes and canonical results into the digest, so that
        later changes can show their outputs are unchanged."""
        for k, i in enumerate(range(first, len(self.latency))):
            body = {"outcome": self.outcome[i]}
            if k < len(chain.requests):
                body["result"] = self.mod.canonical(chain.requests[k][2])
            self.digest.update(json.dumps(body, sort_keys=True, default=str).encode())
            self.digested += 1

    # -- statistics -------------------------------------------------------

    def charged(self, at_reference=False):
        """Latency per request, a failed request charged the time limit;
        with ``at_reference``, in seconds at the reference speed."""
        limit = self.mod.TIME_LIMIT_S
        lat = self.latency
        if at_reference:
            lat = [dt / self.gaps.slowdown(t, dt) for t, dt in zip(self.started, lat)]
        return [max(dt, limit) if out in FAILED else dt
                for dt, out in zip(lat, self.outcome)]

    def per_position(self, at_reference=False):
        """Latency of each distinct request of the pass: the median over its
        repetitions in the run.  Percentiles over these do not depend on
        how many passes a run completes."""
        repeats = {}
        for pos, dt in zip(self.position, self.charged(at_reference)):
            repeats.setdefault(pos, []).append(dt)
        return [statistics.median(v) for v in repeats.values()]

    def counts(self):
        return {k: self.outcome.count(k) for k in OUTCOMES}


def quantile(values, q, steps=16):
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass on each
    ((i-1)/n, i/n].  Request costs cluster by operation and input, and the
    plain sample quantile jumps across the gap between two clusters when
    a few latencies near it move; this estimate moves smoothly."""
    s = sorted(values)
    n = len(s)
    if n == 1:
        return s[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        xs = ((i * steps + j + 0.5) * h for j in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                                    - log_beta) for x in xs))
    return sum(w * v for w, v in zip(weights, s)) / sum(weights)


def tail(values):
    """(value, percentile) at the highest percentile that has TAIL_BEYOND
    samples above it.  With too few samples for that percentile to lie
    above the median, the maximum."""
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return max(values), 100.0
    q = (n - TAIL_BEYOND) / n
    return quantile(values, q), 100.0 * q


def setup_probe_seconds(workload, seed):
    """Median time from starting a fresh benchmark process to the end of
    its set-up, over SETUP_PROBES processes: (seconds at the reference
    speed, measured seconds of each probe)."""
    started, times = [], []
    gaps = hostspeed.Gaps()
    gaps.sample(0)
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        started.append(t0)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        gaps.sample(times[-1])
    return statistics.median(dt / gaps.slowdown(t, dt)
                             for t, dt in zip(started, times)), times


def environment(seed, table_cap_env, cpus_usable, core):
    from wittkit.wittpoly import table_level_cap
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "wittkit", "*.py"))):
        with open(path, "rb") as fh:
            src.update(os.path.basename(path).encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # an exported checkout has none
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "pinned_core": core,
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "AINF_TABLE_CAP_env": table_cap_env,
        "table_level_cap": table_level_cap(),
        "seed": seed,
    }


def emit(lines, result):
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)


def end_to_end(mod, args, stream, peak_rss_mb):
    n = stream.window()
    outcome = stream.outcome[:n]
    failed = sum(outcome.count(k) for k in FAILED)
    decided = sum(outcome.count(k) for k in DECIDED)
    lat = stream.per_position(at_reference=True)
    tail_s, tail_pct = tail(lat)
    setup_s, setup_all = setup_probe_seconds(args.workload, args.seed)
    measured = stream.per_position()
    ok_share = 1 - failed / n
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_s.p50": (quantile(lat, 0.5), "s"),
        "latency_s.tail": (tail_s, "s"),
        "throughput_per_s": (ok_share * len(lat) / sum(lat), "1/s"),
        "success_share": (ok_share, "share"),
        "decided_share": (decided / n, "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "failed_share": failed / n,
        "samples": n,
        "distinct_requests": len(lat),
        "full_passes": len(stream.passes),
        "attempted": len(stream.outcome),
        "tail_percentile": tail_pct,
        "outcomes": stream.counts(),
        "exceptions": stream.exceptions,
        "setup_probes_s": setup_all,
        "host_slowdown": stream.gaps.median_slowdown(),
        "measured": {"setup_s": statistics.median(setup_all),
                     "latency_s.p50": quantile(measured, 0.5),
                     "latency_s.tail": tail(measured)[0],
                     "throughput_per_s": ok_share * len(measured) / sum(measured)},
        "digest": stream.digest.hexdigest(),
        "digest_requests": stream.digested,
    }
    return metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    table_cap_env = os.environ.pop("AINF_TABLE_CAP", None)
    if not os.path.isfile(os.path.join(SRC, "wittkit", "__init__.py")):
        print(f"bench: no wittkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    mod = importlib.import_module(WORKLOADS[args.workload])
    import wittkit
    if not os.path.abspath(wittkit.__file__).startswith(SRC + os.sep):
        print(f"bench: imported wittkit from {wittkit.__file__}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORKDIR, args.workload)
    os.makedirs(workdir, exist_ok=True)
    os.chdir(ROOT)

    if args.setup_probe:
        mod.setup(args.seed, workdir)
        print("ready", flush=True)
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    cpus_usable = len(os.sched_getaffinity(0))
    core = hostspeed.pin()
    env = environment(args.seed, table_cap_env, cpus_usable, core)
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}",
             "environment " + json.dumps(env, sort_keys=True)]
    if args.trace:
        return traced(mod, args, workdir, lines)
    state = start(mod, args, workdir, [sys.executable, "-m", "wittkit.cli"])
    stream = Stream(mod).run(state, args.seconds)
    if mod.IN_PROCESS:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics, info = end_to_end(mod, args, stream, peak)
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<22} {value:.6g} {unit}")
    lines.append(f"  {'failed_share':<22} {info['failed_share']:.6g} share")
    lines.append("checks " + json.dumps(info, sort_keys=True))
    counts = info["outcomes"]
    emit(lines, {"correct": counts["fail"] == 0, "attempted": info["attempted"],
                 "failed": sum(counts[k] for k in FAILED),
                 "metrics": {k: {"value": v, "unit": u}
                             for k, (v, u) in metrics.items()}})
    return 0


def start(mod, args, workdir, launcher):
    """The workload's set-up; a CLI workload also gets its child command."""
    state = mod.setup(args.seed, workdir)
    if not mod.IN_PROCESS:
        state.env = child_env()
        state.launcher = launcher
    return state


def traced(mod, args, workdir, lines):
    """Untraced run for half the time, then the same requests again with
    the wrappers installed.  In-process, the set-up runs traced too, so
    table builds are measured as a fresh process pays them."""
    import tracing
    half = args.seconds / 2
    if mod.IN_PROCESS:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            state = start(mod, args, workdir, None)
        finally:
            tracer.uninstall()
        build_totals, processes = tracer.totals(), 1
        untraced = Stream(mod).run(state, half)
        state = start(mod, args, workdir, None)  # the same inputs again
        tracer = tracing.Tracer()
        tracer.install()
        try:
            replay = Stream(mod).run(state, half, max_chains=untraced.chains,
                                     tracer=tracer)
        finally:
            tracer.uninstall()
        totals = tracer.totals()
        tracer.dump(os.path.join(workdir, f"spans-seed{args.seed}.tsv"))
    else:
        state = start(mod, args, workdir, [sys.executable, "-m", "wittkit.cli"])
        untraced = Stream(mod).run(state, half)
        out = os.path.join(workdir, f"trace-seed{args.seed}.jsonl")
        if os.path.exists(out):
            os.remove(out)
        state = start(mod, args, workdir,
                      [sys.executable, os.path.join(BENCH, "launcher.py"), out])
        replay = Stream(mod).run(state, half, max_chains=untraced.chains)
        totals = {}
        with open(out) as fh:
            for line in fh:
                for k, v in json.loads(line).items():
                    totals[k] = totals.get(k, 0) + v
        build_totals, processes = totals, len(replay.latency)
    n = len(replay.latency)
    base = untraced.charged(at_reference=True)[:n]
    overhead_s = quantile(replay.charged(at_reference=True), 0.5) - quantile(base, 0.5)
    overheads = [x for x in untraced.child_overhead if x is not None]
    metrics = tracing.per_layer(totals, n, build_totals, processes,
                                statistics.mean(overheads) if overheads else 0.0)
    metrics["trace.overhead_s"] = overhead_s
    metrics["trace.overhead_share"] = overhead_s / quantile(base, 0.5)
    for name, value in metrics.items():
        lines.append(f"  {name:<36} {value:.6g} {tracing.UNITS[name]}")
    counts = {k: untraced.counts()[k] + replay.counts()[k] for k in OUTCOMES}
    lines.append("checks " + json.dumps({"untraced_samples": len(untraced.latency),
                                         "traced_samples": n, "outcomes": counts},
                                        sort_keys=True))
    emit(lines, {"correct": counts["fail"] == 0,
                 "attempted": len(untraced.latency) + n,
                 "failed": sum(counts[k] for k in FAILED),
                 "metrics": {k: {"value": v, "unit": tracing.UNITS[k]}
                             for k, v in metrics.items()}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
