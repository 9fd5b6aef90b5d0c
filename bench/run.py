"""heunforge benchmark: one closed-loop client calling `heunforge.cli.main`.

    python3 bench/run.py --workload classify|eigen-float|eigen-exact
                         --seed N --seconds S --trace 0|1

Run from the repository root (or any copy of it holding `src/` and
`bench/`). A run serves a fixed pool of generated requests, about
`--seconds` of work at the seed, in an order set by `--seed`. Requests are
sent one at a time in this process (no threads, no worker pool), and every
output is checked.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the gated end-to-end ones; with --trace 1
they are the per-layer ones of a traced run. Lines before it give the full
report: run metadata, latency, the failure table and every metric with its
unit. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from itertools import islice
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402
from calibrate import REFERENCE_LAUNCH, REFERENCE_LAUNCH_S, SpeedGauge  # noqa: E402

SETUP_PAIRS = 11
WARMUP_REQUESTS = 8


# -- fresh-interpreter measurements ---------------------------------------------------


def _launch_s(code: str) -> float:
    """Wall time of one fresh interpreter running `code`. No timeout: with
    one, subprocess polls the child with sleeps of up to 50 ms, which
    rounds launch times up to steps of that size."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup():
    """(set-up time at reference speed, raw median set-up time) of a fresh
    interpreter importing heunforge.cli.

    Each of SETUP_PAIRS pairs times that launch and, right after it, the
    reference launch (calibrate.py). The result is the median ratio of the
    two, times REFERENCE_LAUNCH_S: a host that slows down slows both
    launches of a pair alike. One discarded launch of each first writes
    the bytecode cache, which a user pays only once."""
    code = "import sys; sys.path.insert(0, %r); import heunforge.cli" % str(SRC)
    _launch_s(code)
    _launch_s(REFERENCE_LAUNCH)
    pairs = [(_launch_s(code), _launch_s(REFERENCE_LAUNCH)) for _ in range(SETUP_PAIRS)]
    ratio = statistics.median(setup / ref for setup, ref in pairs)
    return ratio * REFERENCE_LAUNCH_S, statistics.median(setup for setup, _ in pairs)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB. ru_maxrss
    carries over from the parent across exec on Linux, so read the
    address space's own high-water mark (VmHWM) where the kernel
    provides it."""
    with contextlib.suppress(OSError):
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- serving and tallying -------------------------------------------------------------


CRASH = -1  # exit code recorded when an exception escapes cli.main


def serve(main, request):
    """(exit code, stdout, seconds, crash) of one in-process CLI call. An
    exception escaping main is a crash: exit code CRASH, and `crash` names
    the exception, which counts as the request's failure reason."""
    out = io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(list(request.argv))
        except Exception as exc:  # noqa: BLE001 - a crash is a result here
            code, crash = CRASH, "raised %s" % type(exc).__name__
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed, crash


class Tally:
    """Outcomes of the requests of one run."""

    def __init__(self, gauge):
        self.gauge = gauge
        self.attempted = 0
        self.verified = 0
        self.results = 0
        self.wrong = []
        self.timed = []  # (wall seconds, gauge sample index, verified results)
        self.cells = defaultdict(lambda: [0, 0])  # cell -> [attempted, verified]
        self.failures = Counter()  # (kind, backend, label, n, exit, reason)

    def add(self, request, code, elapsed, verdict, sample):
        """Record one request served right after gauge sample `sample`."""
        self.attempted += 1
        self.timed.append((elapsed, sample, verdict.results if verdict.ok else 0))
        counts = self.cells[cell(request)]
        counts[0] += 1
        if verdict.ok:
            counts[1] += 1
            self.verified += 1
            self.results += verdict.results
            return
        self.failures[(request.kind, request.backend, request.label, request.n,
                       code, verdict.reason)] += 1
        if verdict.wrong:
            self.wrong.append((request.argv, verdict.reason))

    @property
    def latencies(self):
        return [elapsed for elapsed, _, _ in self.timed]

    @property
    def service_s(self):
        return sum(self.latencies)

    def scaled_service_s(self):
        """Service time at reference speed."""
        return sum(e * self.gauge.scale_at(i) for e, i, _ in self.timed)

    @property
    def failed(self):
        return self.attempted - self.verified

    def result_gmean_ms(self):
        """Geometric mean over verified requests of wall time per result,
        at reference speed."""
        return math.exp(statistics.fmean(
            math.log(e * self.gauge.scale_at(i) * 1e3 / r) for e, i, r in self.timed if r))

    def by_kind(self):
        """[attempted, verified] per request kind and backend."""
        out = defaultdict(lambda: [0, 0])
        for (kind, backend, _, _), (attempted, verified) in self.cells.items():
            row = out["%s/%s" % (kind, backend)]
            row[0] += attempted
            row[1] += verified
        return dict(sorted(out.items()))

    def max_clean_degree(self):
        """Largest n such that every solve of degree <= n was verified."""
        unclean = [n for (kind, _, _, n), (attempted, verified) in self.cells.items()
                   if kind == "solve" and verified < attempted]
        return min(unclean, default=max(workloads.DEGREES) + 1) - 1


def cell(request):
    """The stratum of a request: kind, backend, class or shape, degree."""
    return (request.kind, request.backend, request.label, request.n)


def latency_summary(latencies):
    """Median and the highest listed percentile with at least ten
    requests beyond it (ms), with that percentile."""
    data = sorted(latencies)
    count = len(data)
    p50 = statistics.median(data) * 1e3
    tail_p = 50.0
    for p in (75.0, 90.0, 95.0, 99.0, 99.9):
        if count * (1 - p / 100) >= 10:
            tail_p = p
    tail = data[min(count - 1, int(count * tail_p / 100))] * 1e3
    return p50, tail, tail_p


def run_requests(main, requests, tally, tracer=None):
    """Serve requests in order, each after one reference-task timing."""
    for request in requests:
        if tracer is not None:
            tracer.kind = "repeated" if request.kind == "classify-planted" else "distinct"
        sample = tally.gauge.sample()
        code, stdout, elapsed, crash = serve(main, request)
        verdict = checks.Verdict(False, reason=crash) if crash else checks.check(
            request, code, stdout)
        tally.add(request, code, elapsed, verdict, sample)


# -- metadata ---------------------------------------------------------------------------


def metadata(workload, seed):
    sha = None
    # the ceiling stops git at this tree: a copy that is not itself a
    # repository has no sha, and nothing above it is read
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


# -- the two kinds of run -----------------------------------------------------------------


def warm_up(main, workload, seed, gauge):
    """Serve a few requests from a stream of their own, not counted."""
    warmup = workloads.requests(workload, "warmup/%d" % seed)
    run_requests(main, islice(warmup, WARMUP_REQUESTS), Tally(gauge))
    gc.collect()


def untraced_run(main, workload, seed, seconds, gauge):
    """End-to-end metrics over the workload's pool for `seconds`, in the
    seed's order, after a few warm-up requests."""
    warm_up(main, workload, seed, gauge)
    tally = Tally(gauge)
    wall_start = time.perf_counter()
    run_requests(main, workloads.ordered(workloads.pool(workload, seconds), seed), tally)
    wall_s = time.perf_counter() - wall_start
    if not tally.verified:
        return tally, None, None
    p50, tail, tail_p = latency_summary(tally.latencies)
    metrics = {
        "result_gmean_ms": (tally.result_gmean_ms(), "ms"),
        "ok_share": (tally.verified / tally.attempted, "share"),
    }
    extra = {
        "verified_per_s": (tally.results / tally.scaled_service_s(), "1/s"),
        "raw_verified_per_s": (tally.results / tally.service_s, "1/s"),
        "requests_per_s": (tally.verified / tally.service_s, "1/s"),
        "request_p50_ms": (p50, "ms"),
        "request_tail_ms": (tail, "ms"),
        "request_tail_percentile": (tail_p, "%"),
        "max_clean_degree": (tally.max_clean_degree(), "degree"),
        "service_s": (tally.service_s, "s"),
        "wall_s": (wall_s, "s"),
    }
    if workload == "classify":
        del extra["max_clean_degree"]
    return tally, metrics, extra


def traced_run(main, workload, seed, seconds, gauge):
    """Per-layer metrics: the first half of the workload's pool (at least
    one block), in the seed's order, served untraced and then traced.
    Every metric is a mean per request."""
    from tracing import Tracer

    pool = workloads.pool(workload, seconds)
    requests = workloads.ordered(pool[:max(1, len(pool) // 2)], seed)
    warm_up(main, workload, seed, gauge)
    plain = Tally(gauge)
    run_requests(main, requests, plain)
    import heunforge.cli

    tracer = Tracer()
    tracer.install()
    try:
        traced = Tally(gauge)
        run_requests(heunforge.cli.main, requests, traced, tracer=tracer)
    finally:
        tracer.uninstall()
    return plain, traced, layer_metrics(tracer, traced, plain)


LAYER_SPANS = {
    "cli.main": ("calls", "self_s"),
    "cli.build_parser": ("total_s",),
    "heun.heun_accessory": ("calls", "total_s", "self_s"),
    "heun.heun_eigenstate": ("calls", "total_s", "self_s"),
    "che.che_accessory": ("calls", "total_s", "self_s"),
    "che.che_eigenstate": ("calls", "total_s", "self_s"),
    "apps.electrons_sphere_state": ("calls", "total_s"),
    "apps.doublewell_verify": ("calls", "total_s"),
    "apps.coulomb3s_verify": ("calls", "total_s"),
    "engine.branch_from_pi": ("calls", "total_s"),
    "engine.reduce_branch": ("calls", "total_s"),
    "engine.polynomial_solution": ("calls", "total_s"),
    "engine.phi_factor": ("calls", "total_s"),
    "engine.quantization": ("calls", "total_s"),
    "oracle.termination_polynomial": ("calls", "total_s"),
    "oracle.termination_solve": ("calls", "total_s"),
    "oracle.ode_residual": ("calls", "total_s"),
    "oracle.frobenius_recurrence": ("calls", "total_s"),
    "oracle.series_coeffs": ("calls", "total_s"),
    "poly.Poly.roots": ("calls", "total_s"),
}

LAYER_COUNTS = (
    "engine.enumerate_branches.distinct.calls",
    "engine.enumerate_branches.distinct.branches",
    "engine.enumerate_branches.repeated.calls",
    "engine.enumerate_branches.repeated.branches",
    "engine.polynomial_solution.errors",
    "oracle.termination_solve.candidates",
    "oracle.termination_solve.validated",
    "poly.Poly.constructions",
    "poly.Poly.mul",
    "poly.Poly.add",
    "poly.Poly.divrem",
    "poly.Poly.sqrt_head",
    "poly.Poly.shift",
    "poly.Poly.derivative",
    "scalars.RationalComplex.constructions",
    "scalars.RationalComplex.mul",
    "scalars.RationalComplex.add",
    "scalars.RationalComplex.truediv",
)


def layer_metrics(tracer, traced, plain):
    per = 1.0 / traced.attempted
    totals = tracer.totals()
    out = {}
    for name, fields in LAYER_SPANS.items():
        row = totals.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for field in fields:
            unit = "count/req" if field == "calls" else "s/req"
            out["%s.%s" % (name, field)] = (row[field] * per, unit)
    for kind in ("distinct", "repeated"):
        name = "engine.enumerate_branches.%s.total_s" % kind
        out[name] = (tracer.seconds[name] * per, "s/req")
    for name in LAYER_COUNTS:
        out[name] = (tracer.counts[name] * per, "count/req")
    planted_tries = sum(v[0] for k, v in traced.by_kind().items()
                        if k.startswith("classify-planted"))
    missing = sum(c for key, c in traced.failures.items()
                  if key[0] == "classify-planted" and key[5] == "planted branch missing")
    out["engine.enumerate_branches.planted_found_share"] = (
        1 - missing / planted_tries if planted_tries else 0.0, "share")
    wanted = tracer.counts["oracle.termination_solve.wanted"]
    out["oracle.termination_solve.yield"] = (
        tracer.counts["oracle.termination_solve.validated"] / wanted if wanted else 0.0,
        "share")
    # overhead at reference speed, so machine-speed drift between the
    # untraced and the traced pass does not read as tracing cost
    plain_s = plain.scaled_service_s()
    extra_s = traced.scaled_service_s() - plain_s
    out["trace.overhead_s"] = (extra_s / plain.attempted, "s/req")
    out["trace.overhead_share"] = (extra_s / plain_s, "share")
    return out


# -- entry point -------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _failure_lines(tally):
    lines = ["failures (kind backend class degree exit reason: count):"]
    for key, count in sorted(tally.failures.items(), key=lambda kv: tuple(map(str, kv[0]))):
        kind, backend, label, n, code, reason = key
        lines.append("  %s %s %s %s exit=%s %s: %d" % (
            kind, backend, label or "-", n if n >= 0 else "-", code, reason, count))
    if not tally.failures:
        lines.append("  none")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "heunforge" / "cli.py").is_file():
        print("error: no heunforge source tree at %s" % SRC, file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import heunforge.cli

    if not Path(heunforge.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print("error: heunforge imported from outside %s" % SRC, file=sys.stderr)
        return 2
    meta = metadata(args.workload, args.seed)
    gauge = SpeedGauge()
    if args.trace:
        tally, traced, metrics = traced_run(heunforge.cli.main, args.workload,
                                            args.seed, args.seconds, gauge)
        extra = {}
    else:
        setup_s, raw_setup_s = measure_setup()
        tally, metrics, extra = untraced_run(heunforge.cli.main, args.workload,
                                             args.seed, args.seconds, gauge)
        if metrics is None:
            print("error: no request was verified", file=sys.stderr)
            return 1
        metrics["setup_s"] = (setup_s, "s")
        # this process is fresh and has served the whole measured stream
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
        extra["raw_setup_s"] = (raw_setup_s, "s")
        traced = None
    meta["reference_task_ms"] = gauge.median_ms()

    print("run " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in sorted({**metrics, **extra}.items()):
        print("%-52s %14.6g %s" % (name, value, unit))
    runs = [tally] if traced is None else [tally, traced]
    for t in runs:
        print("requests by kind (attempted verified): " + json.dumps(t.by_kind()))
    for line in _failure_lines(runs[-1]):
        print(line)
    wrong = [w for t in runs for w in t.wrong]
    for argv_, reason in wrong[:20]:
        print("WRONG: %s: %s" % (reason, " ".join(argv_)))
    attempted = sum(t.attempted for t in runs)
    failed = sum(t.failed for t in runs)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
