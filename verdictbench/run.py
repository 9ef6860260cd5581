#!/usr/bin/env python3
"""Verdict benchmark for the substal command line.

Run from the root of a source checkout:

    python3 verdictbench/run.py --workload decide --seed 1 --seconds 40 --trace 0

One single-threaded client sends a seeded list of CLI requests, each as
``substal.cli.run(argv)``, in a closed loop, pass after pass, for about
``--seconds``.  Each pass draws fresh inputs from (seed, pass index), and
every substal cache is emptied before each request, so every request pays
what a cold CLI call pays apart from interpreter start, which ``setup_s``
measures.  Every verdict (first stdout line and exit code) is checked
against an answer the benchmark works out itself, and every printed
witness is re-checked at its point.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run.  Earlier lines give per-request rows,
the run environment and a readable summary.  See README.md beside this
file for the design.
"""

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import known  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("decide", "witness", "certify")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# stop starting passes after this long, whatever MIN_PASSES says, so one
# run ends well inside three minutes even when the program slows down
HARD_STOP_S = 120.0
SETUP_SPAWNS = 11
SPAWN_TIMEOUT_S = 60
CALIBRATION_ROUNDS = 200_000

# traced names whose call counts are reported
COUNTED = ("logic.satisfiable", "logic.prop_sat", "frames.frame_check",
           "represent.hom_report", "monoid.enumerate_monoid",
           "monoid.canonical_word")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "substal", "cli.py")):
        print("error: no substal sources under %s; run from the root of a "
              "source checkout" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    setup_spawn(root, src)  # writes bytecode; not counted
    from substal import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print("error: substal imported from %s, not %s" % (cli.__file__, src),
              file=sys.stderr)
        return 2

    bench = Bench(cli, args.workload, args.seed, root)
    if args.trace:
        result = bench.traced_run(args.seconds)
    else:
        result = bench.plain_run(args.seconds, lambda: setup_spawn(root, src))

    env = environment(root, args, bench)
    print_report(args.workload, bench, env, result)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------- set-up

def setup_spawn(root, src):
    """Wall time of one fresh interpreter importing substal.cli, the cost
    every CLI call pays."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import substal.cli"],
                            cwd=root, env=env, stdout=subprocess.DEVNULL)
    # A wait with a timeout polls in steps of up to 50 ms and so rounds the
    # time up to them; a blocking wait returns as the child ends, and the
    # watchdog ends a child that hangs.
    watchdog = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def calibrate():
    """Time of a fixed pure-Python loop: host speed, taken once per pass."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ROUNDS):
        acc += i * i % 7
    return time.perf_counter() - start


# ---------------------------------------------------------------- passes

class Bench:
    def __init__(self, cli, workload, seed, root):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.root = root
        self.caches = spans.find_caches()
        self.misses = {}        # cache name -> misses since last taken
        self.slots = None       # (family, n) at each place of the request list
        # the outcomes of each untraced pass, an outcome being (seconds,
        # exit code, first stdout line); only the last pass keeps its
        # requests, so that memory does not grow with the number of passes
        self.passes = []
        self.traced = []        # the outcomes of each traced pass
        self.last_requests = None
        self.ungated = {}       # name -> (value, unit), printed only
        self.calibration = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []
        self.absent = []
        self.started = time.perf_counter()

    def clear_caches(self):
        """Empty every substal cache, as a fresh CLI process starts with
        none, and count the misses each had."""
        for name, cache in self.caches:
            info = getattr(cache, "cache_info", None)
            if info is not None:
                self.misses[name] = self.misses.get(name, 0) + info().misses
            cache.cache_clear()

    def one_pass(self):
        """Send a freshly drawn request list once; its inputs come from
        (seed, pass index), its shape is the same in every pass."""
        index = len(self.passes) + len(self.traced)
        with tempfile.TemporaryDirectory(prefix=".verdictbench-",
                                         dir=self.root) as workdir:
            reqs = workloads.build(self.workload, self.seed, index, workdir)
            slots = [(req.family, req.n) for req in reqs]
            if self.slots is None:
                self.slots = slots
            elif slots != self.slots:
                raise RuntimeError("pass %d has another request shape" % index)
            self.calibration.append(calibrate())
            # a fresh order in each pass, so that the passes time a place at
            # unrelated moments and no slow spell of the host covers a family
            order = list(range(len(reqs)))
            random.Random("order:%d:%d" % (self.seed, index)).shuffle(order)
            cli = self.cli
            outcomes = [None] * len(reqs)
            for i in order:
                req = reqs[i]
                self.clear_caches()
                out, err = io.StringIO(), io.StringIO()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.run(list(req.argv))
                except Exception as exc:  # a crash is a failed request, not the end
                    code = None
                    err.write("%s: %s" % (type(exc).__name__, exc))
                outcomes[i] = (time.perf_counter() - t0, code, out.getvalue(),
                               err.getvalue())
            self.clear_caches()
        for req, outcome in zip(reqs, outcomes):
            self.check(req, outcome)
        self.last_requests = reqs
        return [(secs, code, out.split("\n", 1)[0])
                for secs, code, out, _ in outcomes]

    def check(self, req, outcome):
        _, code, out, err = outcome
        self.attempted += 1
        if code not in (0, 1):
            self.failed += 1
            self.note(req, "exit %r: %s" % (code, err.strip()[-200:]))
            return
        lines = out.split("\n")
        verdict = lines[0]
        problem = None
        if verdict != req.expect or code != req.expect_exit:
            problem = "got %s (exit %d), expected %s" % (verdict, code, req.expect)
        elif req.witness_of is not None and verdict in ("SAT", "INVALID"):
            try:
                wit = json.loads("\n".join(lines[1:]))
            except ValueError:
                wit = None
            if not isinstance(wit, dict):
                problem = "no JSON witness after the verdict"
            else:
                try:
                    problem = known.witness_problem(req.witness_of, wit)
                except (KeyError, TypeError, ValueError) as exc:
                    problem = "malformed witness: %r" % (exc,)
                if problem is None and req.kernel is not None and (
                        tuple(wit.get("partition", ())) != req.kernel
                        or wit.get("k") != max(req.kernel) + 1):
                    problem = "witness kernel %r, expected %r" % (
                        wit.get("partition"), req.kernel)
        if problem is not None:
            self.wrong += 1
            self.note(req, problem)

    def note(self, req, text):
        if len(self.problems) < 20:
            self.problems.append("%s n=%d %s: %s" % (
                req.family, req.n, " ".join(req.argv)[:80], text))

    def elapsed(self):
        return time.perf_counter() - self.started

    def run_until(self, deadline, minimum, sink, after_pass=None):
        """Passes until the next one would end after `deadline`."""
        while True:
            start = time.perf_counter()
            sink.append(self.one_pass())
            if after_pass is not None:
                after_pass()
            now = time.perf_counter()
            if self.elapsed() > HARD_STOP_S:
                return
            if len(sink) >= minimum and now + (now - start) > deadline:
                return

    def plain_run(self, seconds, spawn):
        """Passes for `seconds`; one set-up spawn follows each, so set-up time is
        sampled across the run like the requests."""
        setups = []
        self.run_until(time.perf_counter() + seconds, MIN_PASSES, self.passes,
                       lambda: setups.append(spawn()))
        while len(setups) < SETUP_SPAWNS:
            setups.append(spawn())
        samples = [secs for outcomes in self.passes for secs, _, _ in outcomes]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (median_pass_seconds(self.passes), "s"),
            "verdict_p50_ms": (1000 * statistics.median(samples), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        # Printed, but not on the result line: mid-sized requests slow down
        # most when the shared host is busy, and over ten seeds this
        # percentile spread past the largest regression bound BENCHMARK.json
        # may set.
        self.ungated = {"verdict_p90_ms": (1000 * p90(samples), "ms")}
        return self.result(metrics)

    def traced_run(self, seconds):
        """Untraced passes, then traced ones, each for half the time."""
        self.run_until(time.perf_counter() + seconds / 2.0, MIN_TRACED_PASSES,
                       self.passes)
        tracer = spans.Tracer()
        tracer.install()
        self.absent = tracer.absent
        self.misses.clear()
        samples = []

        def sample():
            values = layer_values(tracer)
            # tables a cold CLI call has to build, summed over the pass
            values["monoid.monoid_table.builds"] = (
                self.misses.pop("monoid.monoid_table", 0), "count")
            samples.append(values)
            tracer.reset()

        try:
            self.run_until(time.perf_counter() + seconds / 2.0,
                           MIN_TRACED_PASSES, self.traced, sample)
        finally:
            tracer.uninstall()
        metrics = {}
        for name in sorted(samples[0]):
            value = statistics.median(s[name][0] for s in samples)
            metrics[name] = (value, samples[0][name][1])
        untraced = median_pass_seconds(self.passes)
        traced = median_pass_seconds(self.traced)
        metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "share")
        return self.result(metrics)

    def slot_seconds(self, passes):
        """The median time at each place of the request list over the
        passes, for the per-request rows."""
        return [statistics.median(outcomes[i][0] for outcomes in passes)
                for i in range(len(self.slots))]

    def result(self, metrics):
        return {
            "correct": self.wrong == 0 and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in sorted(metrics.items())},
        }


def layer_values(tracer):
    """Per-layer numbers of one traced pass: name -> (value, unit)."""
    out = {}
    for mod, attr in spans.TRACED:
        name = "%s.%s" % (mod, attr)
        out[name + ".self_s"] = (tracer.self_s.get(name, 0.0), "s")
    for name in COUNTED:
        out[name + ".calls"] = (tracer.calls.get(name, 0), "count")
    calls = tracer.calls.get("logic.prop_sat", 0)
    sat = tracer.counts.get("logic.prop_sat.sat", 0)
    out["logic.prop_sat.sat_frac"] = (sat / calls if calls else 0.0, "share")
    out["frames.point_frame.worlds"] = (
        tracer.counts.get("frames.point_frame.worlds", 0), "count")
    return out


def median_pass_seconds(passes):
    """Median over the passes of the time to all verdicts of a pass.  The
    host's speed flips within seconds, so a median over the whole run is
    steadier than any one pass or the fastest time of each place."""
    return statistics.median(sum(secs for secs, _, _ in outcomes)
                             for outcomes in passes)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------- report

def environment(root, args, bench):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "calibration_s": bench.calibration,
        "calibration_median_s": statistics.median(bench.calibration),
    }


def git_commit(root):
    """HEAD of the checkout, or None outside a git repository.  The
    ceiling keeps git from taking the commit of a repository above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def print_report(workload, bench, env, result):
    passes = bench.passes + bench.traced
    seconds = bench.slot_seconds(passes)
    last = passes[-1]
    for req, secs, (_, code, verdict) in zip(bench.last_requests, seconds, last):
        print(json.dumps({"row": {
            "workload": workload, "family": req.family, "n": req.n,
            "exit": code, "verdict": verdict, "seconds": secs}}))
    families = {}
    for (family, _), secs in zip(bench.slots, seconds):
        count, total = families.get(family, (0, 0.0))
        families[family] = (count + 1, total + secs)
    print(json.dumps({"families": {
        fam: {"requests": c, "seconds": t} for fam, (c, t) in sorted(families.items())}}))
    print(json.dumps({"env": env}))
    attempted = max(bench.attempted, 1)
    print(json.dumps({"counts": {
        "requests": len(bench.slots), "passes": len(bench.passes),
        "traced_passes": len(bench.traced), "attempted": bench.attempted,
        "failed_frac": bench.failed / attempted,
        "wrong_frac": bench.wrong / attempted}}))
    print("# %s: %d requests x %d untraced + %d traced passes, fresh inputs "
          "each; verdict percentiles over the %d untraced request times"
          % (workload, len(bench.slots), len(bench.passes), len(bench.traced),
             len(bench.slots) * len(bench.passes)))
    for problem in bench.problems:
        print("# problem: %s" % problem)
    for name in bench.absent:
        print("# absent: %s (reported as 0)" % name)
    ungated = {name: {"value": value, "unit": unit}
               for name, (value, unit) in bench.ungated.items()}
    if ungated:
        print(json.dumps({"ungated": ungated}))
    for name, metric in sorted({**result["metrics"], **ungated}.items()):
        print("# %-44s %14.6f %s" % (name, metric["value"], metric["unit"]))
    if bench.traced:
        print_shares(result["metrics"])


def print_shares(metrics):
    """Self time per module as a share of all traced self time."""
    shares = {}
    for name, metric in metrics.items():
        if name.endswith(".self_s"):
            module = name.split(".")[0]
            shares[module] = shares.get(module, 0.0) + metric["value"]
    total = sum(shares.values()) or 1.0
    for module, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        print("# share %-10s %6.1f%% of traced self time" % (
            module, 100.0 * value / total))


if __name__ == "__main__":
    sys.exit(main())
