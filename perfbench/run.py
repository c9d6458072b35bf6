"""Benchmark of the finsler_sharp library: suites, solvers and geometry workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suites --seed 0 --seconds 30 --trace 0

One client runs the workload's checks in a closed loop (each check starts
after the previous one returns), in one process with one BLAS thread.
A run builds four seeded batches of checks and cycles through them, one
pass a batch, until --seconds have elapsed and every batch has run.
A fixed reference unit of work runs between the checks, and the timings
are reported in seconds at the reference host speed (see hostspeed.py).
Every check is compared with an independent reference; if any fails the
command prints the failures to stderr and exits 1 without a result.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run adds one traced pass (and a
probe of every layer the workload bypasses) and reports per-layer
metrics, writing the spans to .perfbench/ at the checkout root.  The line
before it carries the environment and the run's details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# workloads, layertrace and hostspeed import the library or numpy, so they
# are imported inside functions: the set-up timer must cover those imports.
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "FINSLER_SHARP_THREADS")
BATCHES = 4  # distinct seeded batches a run cycles through
COLD_STARTS = 5  # setup_s is the median of this many fresh-process set-ups
SETUP_UNITS = 200  # reference units timed right after a set-up, to scale it
TAIL_BEYOND = 10  # check_tail_s leaves this many of a pass's checks above it
WORKLOADS = ("suites", "solvers", "geometry")


def pin_threads() -> None:
    """One BLAS thread and one library worker; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_library():
    """Import the library from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "finsler_sharp", "__init__.py")):
        raise SystemExit(f"error: no library sources under {SRC}")
    sys.path.insert(0, SRC)
    import finsler_sharp

    if os.path.dirname(os.path.abspath(finsler_sharp.__file__)) != os.path.join(SRC, "finsler_sharp"):
        raise SystemExit(f"error: finsler_sharp imported from {finsler_sharp.__file__}, not {SRC}")


def batch_seeds(seed: int) -> list:
    """Seeds of the run's distinct batches; distinct for distinct seeds."""
    return [seed * BATCHES + k for k in range(BATCHES)]


def setup(workload: str, seed: int):
    """Imports, input and instance construction, and one warm-up call into
    each layer the checks use (its probe); returns (batches, measured
    seconds, seconds at the reference host speed)."""
    t0 = time.perf_counter()
    import_library()
    import workloads

    batches = [workloads.build(workload, s) for s in batch_seeds(seed)]
    for probe in workloads.build_probes(seed, {c.group for b in batches for c in b}):
        outcome = probe.run()
        if not outcome.passed:
            raise SystemExit(f"error: warm-up {probe.name} failed: {outcome.note}")
    seconds = time.perf_counter() - t0
    import hostspeed

    return batches, seconds, seconds * hostspeed.factor(hostspeed.units(SETUP_UNITS))


def cold_start(workload: str, seed: int):
    """Set-up time of a fresh interpreter, measured inside it; returns
    (seconds at the reference host speed, measured seconds)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--cold-start"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed ({proc.returncode}): {proc.stderr.strip()}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(doc["setup_s"]), float(doc["measured_s"])


def run_pass(checks, tracer=None):
    """One closed-loop pass with a reference unit before each check and
    after the last; returns (latencies, per-check scales to the reference
    host speed, outcomes).  Traced spans get their check's scale."""
    import hostspeed
    from workloads import Outcome

    latencies, outcomes, unit_times, check_spans = [], [], [hostspeed.unit()], []
    for check in checks:
        span = tracer.open("check", check=check.name) if tracer else None
        check_spans.append(span)
        t0 = time.perf_counter()
        try:
            outcome = check.run()
        except Exception as ex:  # a raising check is a failed check, reported below
            outcome = Outcome(False, None, f"raised {type(ex).__name__}: {ex}")
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(span, not outcome.passed)
        outcomes.append(outcome)
        unit_times.append(hostspeed.unit())
    scales = hostspeed.local_factors(unit_times)
    if tracer:
        for k, first in enumerate(check_spans):
            last = check_spans[k + 1] if k + 1 < len(check_spans) else len(tracer.spans)
            for s in tracer.spans[first:last]:
                s.scale = scales[k]
    return latencies, scales, outcomes


def scaled(latencies, scales):
    return [t * f for t, f in zip(latencies, scales)]


def tail_rank(count: int) -> int:
    """0-based rank, among a pass's checks, of the highest order statistic
    with TAIL_BEYOND checks above it."""
    return max(count - TAIL_BEYOND - 1, 0)


def tail_quantile(checks_per_pass: int) -> float:
    """The tail rank of one pass as a quantile.  Evaluated on the latencies
    of all passes it is the same share whatever the number of passes."""
    return tail_rank(checks_per_pass) / max(checks_per_pass - 1, 1)


@dataclass
class Passes:
    walls: list  # per batch, its pass times at the reference host speed
    measured: list  # every pass's measured time, in run order
    latencies: list  # sorted latencies of every check run, at the reference speed
    results: list  # (check, outcome) of every check run

    def batch_wall(self) -> float:
        """Time of one batch at the reference speed: the mean over the
        batches of each batch's median pass."""
        return statistics.fmean(statistics.median(w) for w in self.walls)


def timed_passes(batches, seconds: float) -> Passes:
    """Cycle through the batches, one pass each, until the time is spent
    and every batch has run at least once."""
    out = Passes([[] for _ in batches], [], [], [])
    t0 = time.perf_counter()
    k = 0
    while k < len(batches) or time.perf_counter() - t0 < seconds:
        batch = batches[k % len(batches)]
        latencies, scales, outcomes = run_pass(batch)
        pass_scaled = scaled(latencies, scales)
        out.walls[k % len(batches)].append(sum(pass_scaled))
        out.measured.append(sum(latencies))
        out.latencies.extend(pass_scaled)
        out.results.extend(zip(batch, outcomes))
        k += 1
    out.latencies.sort()
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def min_digits(outcomes) -> float:
    digits = [o.digits for o in outcomes if o.digits is not None]
    return min(digits) if digits else float("nan")


def end_to_end(batches, setup_s, args):
    """setup_s is this process's (scaled, measured) set-up time; returns
    (metrics, detail, [(check, outcome)]) of the untraced run."""
    import numpy as np

    setups = [setup_s] + [cold_start(args.workload, args.seed) for _ in range(COLD_STARTS - 1)]
    passes = timed_passes(batches, args.seconds)
    per_pass = len(batches[0])
    tail_q = tail_quantile(per_pass)
    outcomes = [o for _, o in passes.results]
    failed = sum(not o.passed for o in outcomes)
    metrics = {
        "wall_s": {"value": passes.batch_wall(), "unit": "s"},
        "check_p50_s": {"value": statistics.median(passes.latencies), "unit": "s"},
        "check_tail_s": {"value": float(np.quantile(passes.latencies, tail_q)), "unit": "s"},
        "setup_s": {"value": statistics.median([s for s, _ in setups]), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "min_digits": {"value": min_digits(outcomes), "unit": "digits"},
        "passed_share": {"value": 1.0 - failed / len(outcomes), "unit": "share"},
    }
    detail = {
        "passes": len(passes.measured),
        "batch_seeds": batch_seeds(args.seed),
        "batch_pass_walls_s": passes.walls,
        "measured_pass_walls_s": passes.measured,
        "setup_samples_s": [s for s, _ in setups],
        "measured_setup_samples_s": [m for _, m in setups],
        "check_count": len(passes.latencies),
        "checks_per_pass": per_pass,
        "check_tail_rank_in_pass": tail_rank(per_pass),
        "check_tail_percentile": 100.0 * tail_q,
        "failed_share": failed / len(outcomes),
    }
    return metrics, detail, passes.results


def traced(batches, args):
    """Untraced passes, then one traced pass of the first batch and the
    layer probes; returns (metrics, detail, [(check, outcome)])."""
    import layertrace
    import workloads

    passes = timed_passes(batches, args.seconds)
    checks = batches[0]
    probes = workloads.build_probes(args.seed)
    tracer = layertrace.Tracer(args.workload)
    tracer.install()
    try:
        traced_latencies, traced_scales, traced_outcomes = run_pass(checks, tracer)
        n_workload_spans = len(tracer.spans)
        _, _, probe_outcomes = run_pass(probes, tracer)
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(spans_path)

    measured_layers = layertrace.layer_metrics(tracer.spans[:n_workload_spans], list(zip(checks, traced_outcomes)))
    # layers the workload bypasses are measured by the probes instead
    probed = layertrace.layer_metrics(tracer.spans[n_workload_spans:], list(zip(probes, probe_outcomes)))
    metrics = {**probed, **measured_layers, **layertrace.failure_metrics(tracer.spans)}
    # overhead: the measured cost of one wrapped call times the pass's layer spans
    untraced_wall = statistics.median(passes.walls[0])
    traced_wall = sum(scaled(traced_latencies, traced_scales))
    wrap_s = layertrace.wrapper_cost_s()
    layer_spans = sum(1 for s in tracer.spans[:n_workload_spans] if s.parent >= 0)
    metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.wrap_us"] = {"value": wrap_s * 1e6, "unit": "us"}
    metrics["trace.overhead_s"] = {"value": wrap_s * layer_spans, "unit": "s"}
    metrics["trace.overhead_share"] = {"value": wrap_s * layer_spans / untraced_wall, "unit": "share"}
    metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    detail = {
        "spans_file": os.path.relpath(spans_path, ROOT),
        "probed_metrics": sorted(set(probed) - set(measured_layers)),
        "measured_pass_walls_s": passes.measured,
        "measured_traced_wall_s": sum(traced_latencies),
    }
    results = passes.results + list(zip(checks, traced_outcomes)) + list(zip(probes, probe_outcomes))
    return metrics, detail, results


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=_seed, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cold-start", action="store_true",
                    help="internal: time one set-up in this fresh process and print it")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    batches, measured_s, setup_s = setup(args.workload, args.seed)
    if args.cold_start:
        print(json.dumps({"setup_s": setup_s, "measured_s": measured_s}))
        return 0
    if args.trace:
        metrics, detail, results = traced(batches, args)
    else:
        metrics, detail, results = end_to_end(batches, (setup_s, measured_s), args)
    bad = [(c.name, o.note) for c, o in results if not o.passed]
    if bad:
        for name, note in bad:
            print(f"FAILED {name}: {note}", file=sys.stderr)
        print(f"{len(bad)} of {len(results)} checks failed; no result recorded", file=sys.stderr)
        return 1
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, environment=environment())
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": True, "attempted": len(results), "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
