"""Benchmark of the dyson_laguerre experiments, driven through `cli.run`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  One process runs one workload (see workloads.py):

* it pins BLAS to one thread, then times a fresh interpreter that imports
  `dyson_laguerre` and parses the workload's configs, three times (setup_s);
* runs one warm-up op, then a fixed number of ops with seeds derived from
  --seed: about --seconds worth at the workload's typical op time, and at
  least 21.  The count does not depend on how fast the ops run, so one seed
  always makes the same ops, and the same ones fail;
* checks every op's artifacts; an op that raises or fails its check counts
  as failed, and its seed and reason are kept in the run record.

--trace 0 reports the end-to-end metrics (op wall time median and tail, set-up
time, peak RSS).  --trace 1 runs each op twice, untraced and traced, and
reports per-layer calls, time, self time and counters (see tracing.py).
The last line of standard output is one JSON object; the lines before it
are a readable summary.  Run records and spans go to `.bench_out/` in the
checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_PROBES = 3
MIN_SAMPLES = 21          # so the tail order statistic sits above the median
MAX_RUN_SECONDS = 150     # stop early past this, so a run ends within 180 s
TAIL_BEYOND = 10          # samples beyond the reported tail percentile
COUNT_ROUNDS = 3          # traced ops whose counters are reported
CHECK_TOLERANCE = 0.1     # share of ops that may fail a statistical check
MIN_ACCOUNTED = 0.95      # share of a traced op's time its spans must cover

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import dyson_laguerre
from dyson_laguerre.cli import parse_config
for text in sys.argv[2:]:
    parse_config(text)
print(time.monotonic())
"""


def measure_setup(texts):
    """Median time from starting a fresh interpreter to having imported the
    package and parsed the configs.  Both processes read CLOCK_MONOTONIC."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, *texts],
                              capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


class Runner:
    """Runs the ops of one workload and keeps a record of each."""

    def __init__(self, workload, seed, tiny, run_dir):
        from dyson_laguerre import cli
        from dyson_laguerre.errors import CollisionError, NumericError, StepRejected
        from workloads import op_seed

        self.workload = workload
        self.seed = seed
        self.texts = workload.configs(tiny)
        self.run_dir = run_dir
        self.cli = cli
        # the integrator's known failure modes; any other exception is a bug
        self.known_failures = (NumericError, StepRejected, CollisionError)
        self.op_seed = op_seed
        self.records = []

    def op(self, index, tracer=None):
        seed = self.op_seed(self.seed, index)
        op_dir = os.path.join(self.run_dir, f"op{len(self.records)}")
        configs = [dict(self.cli.parse_config(text), seed=seed,
                        out_dir=os.path.join(op_dir, f"step{k}"))
                   for k, text in enumerate(self.texts)]
        outcome, reason = "ok", ""
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            for config in configs:
                self.cli.run(config)
        except self.known_failures as exc:
            outcome, reason = "numeric", f"{type(exc).__name__}: {exc}"
        except Exception as exc:
            outcome, reason = "error", traceback.format_exception_only(exc)[-1].strip()
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if outcome == "ok":
            try:
                problems = self.workload.check(configs)
            except Exception as exc:
                problems = ["check raised " + traceback.format_exception_only(exc)[-1].strip()]
            if problems:
                outcome, reason = "check", "; ".join(problems[:3])
        shutil.rmtree(op_dir, ignore_errors=True)
        record = {"op": index, "seed": seed, "traced": tracer is not None,
                  "seconds": seconds, "outcome": outcome, "reason": reason}
        self.records.append(record)
        return record


def planned_ops(seconds, op_seconds, at_least):
    """Number of ops in a run: `seconds` worth at the typical op time."""
    return max(at_least, round(seconds / op_seconds))


def _out_of_time(start, notes):
    if time.perf_counter() - start < MAX_RUN_SECONDS:
        return False
    notes.append(f"stopped after {MAX_RUN_SECONDS} s, before the planned ops were done")
    return True


def run_untraced(runner, seconds):
    notes = []
    runner.op(0)   # warm-up: checked and counted, not timed
    start, times = time.perf_counter(), []
    for index in range(1, 1 + planned_ops(seconds, runner.workload.op_seconds, MIN_SAMPLES)):
        if _out_of_time(start, notes):
            break
        record = runner.op(index)
        if record["outcome"] == "ok":
            times.append(record["seconds"])
    if not times:
        raise RuntimeError("no op succeeded; see the run record")
    times.sort()
    tail = times[-(TAIL_BEYOND + 1)] if len(times) > TAIL_BEYOND else times[-1]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"wall_s": (statistics.median(times), "s"),
               "wall_tail_s": (tail, "s"),
               "peak_rss_mb": (rss_mb, "MB")}
    notes += [f"wall_s median of {len(times)} ops; wall_tail_s is the "
              f"{100.0 * (1 - TAIL_BEYOND / len(times)):.0f}th percentile "
              f"({min(TAIL_BEYOND, len(times) - 1)} samples above it)"]
    return metrics, notes, []


def run_traced(runner, seconds, tracing):
    """Rounds of the same op untraced and traced, in alternating order."""
    notes = []
    runner.op(0)
    start, rounds = time.perf_counter(), []
    for index in range(1, 1 + planned_ops(seconds, 2 * runner.workload.op_seconds, COUNT_ROUNDS)):
        if len(rounds) >= COUNT_ROUNDS and _out_of_time(start, notes):
            break
        pair = {}
        for traced in ((False, True) if index % 2 else (True, False)):
            tracer = tracing.Tracer(index) if traced else None
            pair[traced] = (runner.op(index, tracer), tracer)
        rounds.append(pair)

    totals = {}
    accounted, overheads, spans = [], [], []
    for k, pair in enumerate(rounds):
        record, tracer = pair[True]
        stats = tracer.summary()
        for key, value in list(stats.items()) + list(tracer.counts.items()):
            timed = key.endswith(".s") or key.endswith(".self_s")
            if timed or k < COUNT_ROUNDS:
                totals[key] = totals.get(key, 0.0) + value / (len(rounds) if timed else COUNT_ROUNDS)
        self_total = sum(v for key, v in stats.items() if key.endswith(".self_s"))
        accounted.append(self_total / record["seconds"])
        plain = pair[False][0]
        if record["outcome"] == plain["outcome"] == "ok":
            overheads.append(record["seconds"] - plain["seconds"])
        spans.append({"op": tracer.op_id, "seed": record["seed"],
                      "spans": [s[:4] for s in tracer.spans]})

    metrics = {}
    for name, unit, _ in tracing.per_layer_metrics():
        metrics[name] = (totals.get(name, 0.0), unit)
    rows = totals.get("simulate._propose_batch.rows", 0.0)
    rejected = totals.get("simulate._propose_batch.rows_rejected", 0.0)
    metrics["simulate.accept_ratio"] = (1.0 - rejected / rows if rows else 1.0, "ratio")
    metrics["trace.overhead_s"] = (statistics.median(overheads) if overheads else 0.0, "s")
    metrics["trace.accounted_frac"] = (min(accounted), "ratio")

    missing = rounds[0][True][1].missing
    notes += [f"{len(rounds)} traced rounds; counts per op over the first {COUNT_ROUNDS}, "
              f"times per op over all rounds"]
    if missing:
        notes.append("layers not found in the package: " + ", ".join(missing))
    problems = []
    if min(accounted) < MIN_ACCOUNTED:
        problems.append(f"span self times cover only {min(accounted):.3f} of a traced op")
    return metrics, notes, problems, spans


def fingerprint(args, dyson_laguerre, numpy, scipy):
    from dyson_laguerre import _kernels

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "dyson_laguerre": dyson_laguerre.__version__,
        "kernel_backend": _kernels.backend_name(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "process_threads": len(os.listdir("/proc/self/task")),
        "machine": platform.machine(),
    }


def _write_json(path, doc):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def main(argv=None):
    for var in BLAS_VARS:          # before anything loads numpy and BLAS
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; the numbers are not comparable")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dyson_laguerre", "__init__.py")):
        print(f"bench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy
    import scipy
    import dyson_laguerre
    import tracing

    if not os.path.abspath(dyson_laguerre.__file__).startswith(SRC + os.sep):
        print(f"bench: imported {dyson_laguerre.__file__}, not the checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = fingerprint(args, dyson_laguerre, numpy, scipy)
    run_dir = os.path.join(OUT, f"run-{os.getpid()}")
    runner = Runner(workload, args.seed, args.tiny, run_dir)
    try:
        if args.trace:
            metrics, notes, problems, spans = run_traced(runner, args.seconds, tracing)
        else:
            setup_s = measure_setup(runner.texts)
            metrics, notes, problems = run_untraced(runner, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            spans = None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    records = runner.records
    failed = [r for r in records if r["outcome"] != "ok"]
    checks = sum(r["outcome"] == "check" for r in failed)
    errors = sum(r["outcome"] == "error" for r in failed)
    if errors:
        problems.append(f"{errors} ops raised unexpected errors")
    if checks > CHECK_TOLERANCE * len(records):
        problems.append(f"{checks} of {len(records)} ops failed their output check")
    fail_frac = len(failed) / len(records)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = os.path.join(OUT, "records", stem + ".json")
    _write_json(record_path, {"fingerprint": env, "ops": records, "notes": notes,
                              "problems": problems,
                              "metrics": {k: v for k, (v, _) in metrics.items()}})
    if spans is not None:
        _write_json(os.path.join(OUT, "traces", stem + ".json"),
                    {"fields": ["name", "start", "end", "parent"], "ops": spans})

    print("fingerprint " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {len(records)} ops attempted, {len(failed)} failed, "
          f"fail_frac {fail_frac:.4f} (ratio)")
    for r in failed[:10]:
        print(f"  failed op {r['op']} seed {r['seed']}: {r['outcome']}: {r['reason']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    for line in notes + problems:
        print("  " + line)
    print(f"  record {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
