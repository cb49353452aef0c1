#!/usr/bin/env python3
"""Benchmark of the planeaut CLI: one verdict per command, checked.

    python3 perfbench/run.py --workload formula --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The workload's requests are generated from the seed and driven
through `planeaut.cli.main(argv)` in this process, as a closed loop with a
single client: the next request is sent when the previous one returns.
The request pool is replayed in whole passes for up to `--seconds`; no
pass starts that is expected to end later.  Every answer is checked
outside the timed region (see oracle.py).  Every time is reported on
the scale of a reference host (see hostspeed.py): the host's speed is
measured between requests and divided out.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1`, passes alternate between untraced and
traced, and the object holds the per-layer metrics instead.  The spans and
counters of the last traced pass are written to
`.perfbench-out/trace-<workload>-<seed>.json`.  The exit code is 0 when
every answer is right, 1 when one is wrong, 2 when the checkout has no
planeaut sources.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

# Time for a fresh interpreter to import the CLI module, measured inside
# the child so that interpreter start-up is left out, then the host speed
# in the same child, after the import so that it takes no module off it.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import planeaut.cli; "
                "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
                "import hostspeed; print(t * hostspeed.scale(hostspeed.median_loop(25)))")
SETUP_REPEATS = 15
WARMUP_REQUESTS = 8


def measure_setup() -> float:
    """Median import time over SETUP_REPEATS fresh interpreters, each on
    the reference host's scale.

    One import runs first, untimed, so that every timed one finds the
    bytecode cache written.
    """
    def once() -> float:
        done = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC),
                               str(Path(__file__).resolve().parent)],
                              capture_output=True, text=True, timeout=60, check=True)
        return float(done.stdout)

    once()
    return statistics.median(once() for _ in range(SETUP_REPEATS))


def run_pass(cli, requests, tracer=None):
    """Send every request once; return (busy seconds, [(code, stdout, seconds)],
    host scale).

    After each request, outside its timing, the reference loop runs once;
    the host scale of the pass is that of their median, and the busy
    seconds leave the loops out.  A request that raises gets its exception
    text as its code, and so fails the exit-code check.
    """
    results, loops = [], []
    clock = time.perf_counter
    start = clock()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(req.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:   # a traceback from the program is a failure
            code = f"{type(exc).__name__}: {exc}"
        results.append((code, out.getvalue(), clock() - t0))
        loops.append(hostspeed.reference_loop())
    busy = clock() - start - sum(loops)
    return busy, results, hostspeed.scale(statistics.median(loops))


class Checker:
    """Checks the first pass with the oracle and every later pass against it."""

    def __init__(self, requests, seed: int):
        self.requests = requests
        self.rng = random.Random(f"oracle:{seed}")
        self.reference = None
        self.failures: list[str] = []

    def __call__(self, results) -> list[bool]:
        """Record the failures of one pass; return which answers are right."""
        if self.reference is None:
            self.reference = [(code, out, oracle.check(req, code, out, self.rng))
                              for req, (code, out, _) in zip(self.requests, results)]
        right = []
        for i, (req, (code, out, _)) in enumerate(zip(self.requests, results)):
            ref_code, ref_out, reason = self.reference[i]
            if reason is None and (code, out) != (ref_code, ref_out):
                reason = "answer differs from the same request's earlier answer"
            right.append(reason is None)
            if reason is not None:
                self.failures.append(f"{req.kind} #{i}: {reason} "
                                     f"argv={list(req.argv)!r}"[:600])
        return right


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile; failed requests are +inf.

    A weighted mean of the order statistics, the i-th weighted by the mass
    that Beta((n+1)q, (n+1)(1-q)) puts on [(i-1)/n, i/n].  Where a single
    order statistic jumps across a gap between two request sizes whenever
    the requests next to the quantile trade places, this moves smoothly.
    A failed request counts as infinitely slow where its weight is not
    negligible.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    # the distribution function at i/n, by the trapezoid rule
    per_slot = 64
    h = 1.0 / (n * per_slot)
    cdf, acc, prev = [0.0], 0.0, density(0.0)
    for k in range(1, n * per_slot + 1):
        cur = density(k * h)
        acc += (prev + cur) * h / 2
        prev = cur
        if k % per_slot == 0:
            cdf.append(acc)
    weights = [hi - lo for lo, hi in zip(cdf, cdf[1:])]
    kept = [(w, v) for w, v in zip(weights, ordered) if w > 1e-9 * acc]
    return sum(w * v for w, v in kept) / sum(w for w, _ in kept)


def run_probes(cli, seed: int) -> int:
    """Run the known-defect probes outside any timed region; count failures."""
    probes = workloads.cap_defect_probes()
    checker = Checker(probes, seed)
    _, results, _ = run_pass(cli, probes)
    failed = len(probes) - sum(checker(results))
    print(f"known defect (search cap): {failed}/{len(probes)} probes fail")
    for line in checker.failures:
        print(f"  {line}")
    return failed


def measure(cli, requests, seconds: float, checker: Checker):
    """Whole untraced passes, at least one, while the next is expected to
    end within `seconds`.

    Returns the busy time, right-answer count and host scale of each pass,
    and per request the latency of each of its samples, +inf for a wrong
    answer; times are on the reference host's scale.
    """
    walls, rights, scales = [], [], []
    latencies = [[] for _ in requests]
    clock = time.perf_counter
    deadline = clock() + seconds
    elapsed = 0.0
    while not walls or clock() + elapsed < deadline:
        start = clock()
        busy, results, scale = run_pass(cli, requests)
        elapsed = clock() - start
        right = checker(results)
        walls.append(busy * scale)
        rights.append(sum(right))
        scales.append(scale)
        for samples, ok, (_, _, lat) in zip(latencies, right, results):
            samples.append(lat * scale if ok else math.inf)
    return walls, rights, scales, latencies


def end_to_end(cli, requests, seconds, checker, setup_s):
    """Throughput as the median over passes of each pass's rate; latency
    percentiles over the requests of the pool, each at the median of its
    samples.  The medians take out the host's swings within the run that
    the host scale misses, which would otherwise move a percentile that
    falls between two request sizes from one size to the other."""
    walls, rights, scales, latencies = measure(cli, requests, seconds, checker)
    typical = [statistics.median(samples) for samples in latencies]
    samples = sum(len(s) for s in latencies)
    failed = sum(s.count(math.inf) for s in latencies)
    metrics = {
        "verdicts_per_s": (statistics.median(r / w for r, w in zip(rights, walls)), "1/s"),
        "latency_p50_ms": (percentile(typical, 0.50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(typical, 0.90) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
    }
    print(f"passes={len(walls)} requests={len(requests)} samples={samples} "
          f"pass_s=[{min(walls):.3f}, {max(walls):.3f}] "
          f"host_scale=[{min(scales):.3f}, {max(scales):.3f}] "
          f"failed_fraction={failed / samples:.4f}")
    return samples, metrics


def per_layer(cli, requests, seconds, checker, workload, seed):
    tracer = tracing.Tracer()
    plain, traced, snapshots = [], [], []
    attempted = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    elapsed = 0.0
    # whole pairs only, and none that is expected to end past the deadline
    while not traced or clock() + elapsed < deadline:
        start = clock()
        wall, results, scale = run_pass(cli, requests)
        checker(results)
        plain.append(wall * scale)
        tracer.reset()
        tracer.install()
        try:
            wall, results, scale = run_pass(cli, requests, tracer)
        finally:
            tracer.uninstall()
        checker(results)
        traced.append(wall * scale)
        snapshots.append(layer_metrics(tracer, scale))
        attempted += 2 * len(requests)
        elapsed = clock() - start
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"trace-{workload}-{seed}.json")
    metrics = {}
    for name, (_, unit) in snapshots[0].items():
        values = [snap[name][0] for snap in snapshots]
        metrics[name] = ((values[0] if unit != "s" else statistics.median(values)), unit)
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain),
                                       "ratio")
    print(f"pairs={len(traced)} untraced_pass_s={statistics.median(plain):.3f} "
          f"traced_pass_s={statistics.median(traced):.3f}")
    return attempted, metrics


def layer_metrics(tracer, scale: float) -> dict:
    """Per-layer counts and self seconds of one traced pass, the seconds on
    the reference host's scale."""
    stats = tracer.stats

    def calls(key):
        return (stats[key][0] if key in stats else 0, "count")

    def self_s(key):
        return (stats[key][2] * scale if key in stats else 0.0, "s")

    solves = calls("linearize.solve")[0]
    reached = tracer.requests_reaching("linearize")
    out = {
        "cyclotomic.inverse.calls": calls("cyclotomic.inverse"),
        "cyclotomic.inverse.irrational_calls": (tracer.irrational_inverses, "count"),
        "cyclotomic.inverse.self_s": self_s("cyclotomic.inverse"),
        "cyclotomic.mul.calls": calls("cyclotomic.mul"),
        "cyclotomic.mul.self_s": self_s("cyclotomic.mul"),
        "cyclotomic.pow.calls": calls("cyclotomic.pow"),
        "cyclotomic.self_s": (tracer.layer("cyclotomic")[1] * scale, "s"),
        "cyclotomic.root_scan.calls": calls("cyclotomic.root_scan"),
        "cyclotomic.root_scan.self_s": self_s("cyclotomic.root_scan"),
        "linearize.solve.calls": (solves, "count"),
        "linearize.solves_per_request": (solves / reached if reached else 0.0,
                                         "solves/request"),
        "linearize.self_s": (tracer.layer("linearize")[1] * scale, "s"),
        "prufer.closed_form.calls": calls("prufer.closed_form"),
        "prufer.self_s": (tracer.layer("prufer")[1] * scale, "s"),
        "endo.compose.calls": calls("endo.compose"),
        "endo.inverse.calls": calls("endo.inverse"),
        "endo.self_s": (tracer.layer("endo")[1] * scale, "s"),
        "poly.mul.calls": calls("poly.mul"),
        "poly.substitute.calls": calls("poly.substitute"),
        "poly.self_s": (tracer.layer("poly")[1] * scale, "s"),
        "cli.requests": calls("cli.main"),
        "cli.self_s": self_s("cli.main"),
    }
    for layer in ("conjugacy", "parsing"):
        n, s = tracer.layer(layer)
        out[f"{layer}.calls"] = (n, "count")
        out[f"{layer}.self_s"] = (s * scale, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "planeaut" / "cli.py").is_file():
        print(f"error: no planeaut sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s = measure_setup() if not args.trace else None
    requests = workloads.generate(args.workload, args.seed)
    random.Random(f"order:{args.seed}").shuffle(requests)
    import planeaut.cli as cli
    run_pass(cli, requests[:WARMUP_REQUESTS])
    # The benchmark's own objects so far (request pool, modules) are moved
    # out of the collector's reach, so that they do not lengthen the
    # program's collections.
    gc.collect()
    gc.freeze()

    checker = Checker(requests, args.seed)
    if args.trace:
        attempted, metrics = per_layer(cli, requests, args.seconds, checker,
                                       args.workload, args.seed)
    else:
        attempted, metrics = end_to_end(cli, requests, args.seconds, checker, setup_s)
    probe_failures = run_probes(cli, args.seed)
    if args.trace:
        metrics["conjugacy.cap_defect_failures"] = (probe_failures, "count")
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = (rss, "MB")

    failed = len(checker.failures)
    for line in checker.failures[:50]:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
