"""pbvoting benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload corpus-euclid --seed 1 --seconds 60 --trace 0

Run from the repository root. The library is imported from ``src/``; nothing
is installed or built. One process, one thread, closed loop: each item starts
when the previous one has finished. ``--seed`` fixes the order in which the
items of the workload are visited; the items themselves are fixed so that
their outputs can be checked against ``reference.json``.

``--trace 0`` makes whole passes over the items, as many as fit in
``--seconds`` and at least MIN_PASSES, then fills the time left with the
items of one more pass that still fit. It prints the end-to-end metrics,
taking each item's time as its median over all its runs. ``--trace 1`` runs
each item once plain and once traced and prints the per-layer metrics.
Either way the last line of standard output is one JSON object, and the run
exits 1 when an output differs from the reference (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_PASSES = 2


@dataclass
class Pass:
    seconds: dict[int, float]  # item index -> wall time of that item
    wall: float                # all items plus the workload's finish step
    result: object
    outputs: dict[int, object]  # item index -> output of that item


def run_pass(workload, items, order) -> Pass:
    seconds, outputs = {}, {}
    start = time.perf_counter()
    for i in order:
        t0 = time.perf_counter()
        outputs[i] = workload.run_item(items[i])
        seconds[i] = time.perf_counter() - t0
    result = workload.finish(list(outputs.values()))
    return Pass(seconds, time.perf_counter() - start, result, outputs)


def run_leftover(workload, items, order, last: Pass, deadline: float
                 ) -> tuple[Pass, list[str]]:
    """Items of one more pass, each only if its time in ``last`` still fits
    before ``deadline``. The pass is not whole, so each output is checked
    against the output of the same item in ``last``, a checked pass."""
    seconds, outputs, problems = {}, {}, []
    start = time.perf_counter()
    for i in order:
        if time.perf_counter() + last.seconds[i] > deadline:
            continue
        t0 = time.perf_counter()
        outputs[i] = workload.run_item(items[i])
        seconds[i] = time.perf_counter() - t0
        if (workload.digest(workload.finish([outputs[i]]))
                != workload.digest(workload.finish([last.outputs[i]]))):
            problems.append(f"item {i} differs from its run in a whole pass")
    result = workload.finish(list(outputs.values())) if outputs else None
    return Pass(seconds, time.perf_counter() - start, result, outputs), problems


def run_paired(workload, items, order, instrumented) -> tuple[Pass, Pass]:
    """Run each item once plain and once inside ``instrumented()``, one
    right after the other, alternating which goes first, so that both runs
    see the same machine speed."""
    sides = {False: ({}, [], contextlib.nullcontext),
             True: ({}, [], instrumented)}
    for n, i in enumerate(order):
        for traced in ((False, True), (True, False))[n % 2]:
            seconds, outputs, context = sides[traced]
            t0 = time.perf_counter()
            with context():
                outputs.append(workload.run_item(items[i]))
            seconds[i] = time.perf_counter() - t0

    def finish(seconds, outputs, context) -> Pass:
        t0 = time.perf_counter()
        with context():
            result = workload.finish(outputs)
        return Pass(seconds, sum(seconds.values()) + time.perf_counter() - t0,
                    result, {})
    return finish(*sides[False]), finish(*sides[True])


def measure_setup(workload, workdir: Path):
    """Median over SETUP_REPEATS of interpreter start with the library's
    imports (a child process) plus the workload's own set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    seconds = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pbvoting.bench"],
                       env=env, cwd=ROOT, check=True, timeout=120)
        items = workload.prepare(workdir / f"setup-{k}")
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds), items


def tail(samples: list[float]):
    """Highest whole percentile above the median with at least ten samples
    beyond it, as (percentile, value); None when the sample is too small."""
    if len(samples) < 21:
        return None
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    for p in range(99, 50, -1):
        if sum(1 for x in samples if x > cuts[p - 1]) >= 10:
            return p, cuts[p - 1]
    return None


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "pbvoting" / "__init__.py").is_file():
        print(f"perfbench: no pbvoting sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads(
        (Path(__file__).parent / "reference.json").read_text())[args.workload]
    rng = random.Random(args.seed)
    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        setup_s, items = measure_setup(workload, Path(tmp))
        problems, attempted, failed = [], 0, 0

        def settle(p: Pass, whole: bool = True) -> None:
            """Count the rows of a finished pass and check a whole one, then
            drop its result, so that memory does not grow with the passes."""
            nonlocal attempted, failed
            if p.result is None:  # a leftover pass that ran no item
                return
            a, f = workload.count_rows(p.result)
            attempted, failed = attempted + a, failed + f
            if whole:
                problems.extend(workload.check(p.result, reference, items))
            p.result = None

        if args.trace:
            tracer = tracing.Tracer()
            plain, traced = run_paired(
                workload, items, rng.sample(range(len(items)), len(items)),
                functools.partial(tracing.instrument, tracer))
            if workload.digest(traced.result) != workload.digest(plain.result):
                problems.append("traced and untraced outputs differ")
            settle(plain)
            settle(traced)
        else:
            passes = []
            begin = time.perf_counter()
            while (len(passes) < MIN_PASSES or time.perf_counter() - begin
                   + passes[-1].wall <= args.seconds):
                if passes:  # only the last pass's outputs are used later
                    passes[-1].outputs.clear()
                passes.append(run_pass(
                    workload, items, rng.sample(range(len(items)), len(items))))
                settle(passes[-1])
            ok_rows_per_pass = (attempted - failed) / len(passes)
            leftover, found = run_leftover(
                workload, items, rng.sample(range(len(items)), len(items)),
                passes[-1], begin + args.seconds)
            problems += found
            settle(leftover, whole=False)

    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans)
        attributed = sum(metrics[m][0] for m in tracing.SELF_TIMES)
        metrics["trace.wall_s"] = (traced.wall, "s")
        metrics["trace.unattributed_s"] = (traced.wall - attributed, "s")
        metrics["trace.overhead_frac"] = (traced.wall / plain.wall - 1,
                                          "ratio")
    else:
        # each item's time is its median over all its runs, which keeps
        # short bursts of machine noise out of the result
        runs = passes + [leftover]
        item_s = [statistics.median(p.seconds[i] for p in runs
                                    if i in p.seconds)
                  for i in range(len(items))]
        metrics = {
            "rows_per_s": (ok_rows_per_pass / sum(item_s), "rows/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
        # printed, not reported: too noisy to bound (see README.md)
        print(f"instance_s_p50 {statistics.median(item_s):.6f} s "
              f"(median over {len(items)} items)")
        samples = [t for p in runs for t in p.seconds.values()]
        high = tail(samples)
        if high is None:
            print(f"instance_s_tail omitted: {len(samples)} samples leave "
                  "fewer than 10 beyond any percentile above the median")
        else:
            print(f"instance_s_tail {high[1]:.6f} s (p{high[0]} of "
                  f"{len(samples)} samples: {len(items)} items x "
                  f"{len(passes)} passes + {len(leftover.seconds)})")
        print(f"failed_frac {failed / attempted:.6f} ratio "
              f"({failed} of {attempted} rows)")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6f} {unit}")
    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
