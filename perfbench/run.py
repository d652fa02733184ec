"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload count-narrow --seed 1 --seconds 20 --trace 0

The program is imported from the `src/` directory next to this one, never
from anywhere else; without it the run exits with code 2 and prints no
result.  Workloads: count-narrow, count-wide, predict-sweep, compare-cli
(see perfbench/README.md for what each exercises and why).

With --trace 0 the run measures the end-to-end metrics untraced.  With
--trace 1 it alternates untraced and traced passes, reports the per-layer
metrics of the traced ones (per pass) and the tracing overhead, and writes
the spans to perfbench/out/spans-<workload>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it repeat every
metric by name and unit, the run's environment, the exact-series sha256
sentinels and any failures.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import CalibratedClock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("count-narrow", "count-wide", "predict-sweep", "compare-cli")
# cold set-ups timed per run: this process plus SETUP_SAMPLES - 1 children
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "estimates_per_s": "1/s",
    "estimate_p50_us": "us",
    "estimate_p99_us": "us",
    "peak_rss_mb": "MB",
    "khintchine_log_err_max": "nats",
    "explicit_log_err_max": "nats",
}


class ProgramMissing(Exception):
    """The checkout holds no importable program next to the benchmark."""


def load_workloads():
    """Import the workloads module against ../src, refusing any other copy."""
    if not (SRC / "subexp" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {SRC / 'subexp'}")
    sys.path.insert(0, str(SRC))
    import subexp
    import workloads

    if Path(subexp.__file__).resolve().parent != SRC / "subexp":
        raise ProgramMissing(f"subexp was imported from {subexp.__file__}")
    return workloads


def environment(args) -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "dps": mpmath.mp.dps,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def child_setup_s(args) -> float:
    """Set-up time of one fresh interpreter, as that interpreter measures it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def percentile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def measure(wl, rec, seconds: float, tracer=None):
    """Repeat passes for `seconds`; return the untraced and traced passes'
    program times.

    Without a tracer every pass is untraced.  With one, passes alternate
    untraced and traced, and at least one of each runs.
    """
    plain, traced = [], []
    begun = time.perf_counter()
    while True:
        rec.busy_s = 0.0
        if tracer is not None and len(plain) > len(traced):
            with tracer.active():
                wl.run_pass(rec)
            traced.append(rec.busy_s)
        else:
            wl.run_pass(rec)
            plain.append(rec.busy_s)
        if time.perf_counter() - begun >= seconds and (tracer is None or traced):
            return plain, traced


def run(args, clock, size: str = "full", setup_samples: int = SETUP_SAMPLES):
    """One benchmark run, timed from clock's start; returns (lines, result)."""
    workloads = load_workloads()
    # the precision importing the program sets; every op must leave it so
    env = environment(args)
    wl = workloads.WORKLOADS[args.workload](args.seed, size)
    wl.setup()
    setup = [clock.now()]
    if args.setup_only:
        return [], {"setup_s": setup[0]}
    rec = workloads.Recorder(env["dps"], clock)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(clock)
    plain, traced = measure(wl, rec, args.seconds, tracer)
    wl.verify(rec)
    if tracer is not None:
        extra = {
            "cli.rows": wl.cli_rows,
            "cli.stdout_bytes": wl.cli_stdout_bytes,
            "trace.overhead_frac": (statistics.median(traced)
                                    / statistics.median(plain) - 1),
        }
        metrics = tracer.layer_metrics(len(traced), extra)
        out = HERE / "out" / f"spans-{args.workload}.json"
        tracer.write(out, {**env, "traced_passes": len(traced)})
    else:
        setup += [child_setup_s(args) for _ in range(setup_samples - 1)]
        values = {
            "run_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "estimates_per_s": len(rec.pair_s) / sum(plain),
            "estimate_p50_us": statistics.median(rec.pair_s) * 1e6,
            "estimate_p99_us": percentile(rec.pair_s, 99) * 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "khintchine_log_err_max": rec.err["khintchine"],
            "explicit_log_err_max": rec.err["explicit"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    lines = [f"env {json.dumps(env)}"]
    lines += [f"sentinel {key} sha256={digest}"
              for key, digest in sorted(rec.sentinels.items())]
    lines.append(f"passes {len(plain)} untraced"
                 + (f", {len(traced)} traced" if args.trace else "")
                 + f"; {clock.calibrations} clock calibrations")
    lines += [f"metric {name} {m['value']:.6g} {m['unit']}"
              for name, m in metrics.items()]
    lines.append(f"metric fail_frac {rec.failed / rec.attempted:.6g} frac"
                 f" ({rec.failed} of {rec.attempted} ops)")
    lines += [f"failure {msg}" for msg in rec.failures]
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    return lines, result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it (used by the "
                        "run itself to sample set-up time)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    clock = CalibratedClock().start()
    args = parse_args(argv)
    try:
        lines, result = run(args, clock)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        clock.stop()
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
