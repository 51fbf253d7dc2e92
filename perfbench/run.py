"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, and scratch files go under
``.perfbench_work/`` (removed on exit) and ``.perfbench_out/`` (traces
and full results, kept).

``--trace 0`` times the workload with nothing patched. It runs the
workload's warm-up operations, then repeats the operation until
``--seconds`` have passed; ``op_s`` is the median over those operations.
Set-up is repeated in two batches, one before the warm-up and one after
the timed loop, and ``setup_s`` is the median of all of them: the
machine's speed drifts over seconds, and set-ups taken at both ends of
the run see more of that drift than set-ups taken all at once.
``--trace 1`` is a separate run for the per-layer split: one traced
set-up, the warm-up, half the time untraced, one traced warm-up
operation (so that state an operation keeps for the next one is
allocated while tracemalloc runs) and half the time traced, so the
tracing overhead is measured in the same process. Every operation's
output is checked, the warm-ups' too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# each of the two set-up batches: at least this many repeats and seconds
SETUP_BATCH_MIN_REPEATS = 4  # a median of at least eight, so a cold first set-up weighs little
SETUP_BATCH_MIN_SECONDS = 1.5  # short set-ups repeat more, so their median is steady
SETUP_BATCH_MAX_REPEATS = 60


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _pin_blas_threads():
    """Cap BLAS at the CPUs this process may use; must run before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def environment(blas_threads):
    """What must match before two results may be compared."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "float_dtype": "float64",
    }


class Checker:
    """Counts operations and failures; checks each output as it arrives."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.reference_checks = {"matched": 0, "skipped": 0}
        self.observations = []
        self.problems = []

    def check(self, state, result, error):
        index = self.attempted
        self.attempted += 1
        if error is not None:
            problems, obs = [f"raised {error!r}"], None
        else:
            try:
                problems, obs = self.workload.observe(state, result)
            except (OSError, ValueError) as exc:  # an output missing or unreadable
                problems, obs = [f"output check raised {exc!r}"], None
        if obs is not None:
            self.observations.append(obs)
            outcome = (None if self.reference is None
                       else self.workload.compare(obs, self.reference, index))
            if outcome is None:
                self.reference_checks["skipped"] += 1
            else:
                problems = problems + outcome
                if not outcome:
                    self.reference_checks["matched"] += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"op {index}: {p}" for p in problems)
            print(f"perfbench: op {index} failed: {problems}", file=sys.stderr)


def _one_op(workload, state, checker, trace_op=None):
    """Run and time one operation; check it outside the timed region."""
    ctx = trace_op if trace_op is not None else contextlib.nullcontext()
    result = error = None
    with ctx:
        t0 = time.perf_counter()
        try:
            result = workload.run(state)
        except Exception as exc:  # a failing operation is counted, not fatal
            error = exc
        elapsed = time.perf_counter() - t0
    checker.check(state, result, error)
    return elapsed


def _warm_up(workload, state, checker):
    return [_one_op(workload, state, checker) for _ in range(workload.warmup_ops)]


def _set_up_batch(workload, seed, workdir, times):
    """Set up repeatedly, appending each time to ``times``; return the last state."""
    import workloads  # imports hpsep, so only once main() has put src/ on the path

    batch = []
    state = None
    while len(batch) < SETUP_BATCH_MIN_REPEATS or (
            sum(batch) < SETUP_BATCH_MIN_SECONDS and len(batch) < SETUP_BATCH_MAX_REPEATS):
        state = None  # drop the previous set-up's model before building the next
        workloads.clear(workdir)
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        batch.append(time.perf_counter() - t0)
    times.extend(batch)
    return state


def _loop(workload, state, checker, seconds, tracer=None):
    """Closed loop: operations back to back until ``seconds`` have passed."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        trace_op = tracer.operation(len(times)) if tracer is not None else None
        times.append(_one_op(workload, state, checker, trace_op))
    return times


def main(argv=None):
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "hpsep" / "__init__.py").is_file():
        print(f"perfbench: no hpsep sources at {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    blas_threads = _pin_blas_threads()
    sys.path.insert(0, str(src))
    import hpsep

    if Path(hpsep.__file__).resolve().parent != src / "hpsep":
        print(f"perfbench: imported hpsep from {hpsep.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads
    from tracing import PER_LAYER_UNITS, Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    refs = json.loads((HERE / "reference.json").read_text())
    checker = Checker(wl, refs.get(wl.name, {}).get(str(args.seed)))
    workdir = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(blas_threads)}
    try:
        if args.trace == 0:
            setup_times = []
            state = _set_up_batch(wl, args.seed, workdir, setup_times)
            warmup = _warm_up(wl, state, checker)
            times = _loop(wl, state, checker, args.seconds)
            state = None  # free the workload's memory before the second batch
            _set_up_batch(wl, args.seed, workdir, setup_times)
            metrics = {
                "op_s": {"value": statistics.median(times), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MB"},
            }
            detail.update(setup_times=setup_times, warmup_s=warmup, op_times=times,
                          op_count=len(times), op_s_max=max(times))
        else:
            tracer = Tracer()
            workloads.clear(workdir)
            with tracer.installed(), tracer.operation("setup"):
                state = wl.setup(args.seed, workdir)
            warmup = _warm_up(wl, state, checker)
            plain = _loop(wl, state, checker, args.seconds / 2)
            with tracer.installed():
                _one_op(wl, state, checker, tracer.operation("warmup"))
                traced = _loop(wl, state, checker, args.seconds / 2, tracer)
            layers = layer_metrics(tracer, traced, plain)
            metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layers.items()}
            tracer.write_jsonl(outdir / f"spans-{tag}.jsonl")
            detail.update(warmup_s=warmup, untraced_times=plain, traced_times=traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update(wl.info(checker.observations), reference_checks=checker.reference_checks,
                  problems=checker.problems)
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    (outdir / f"result-{tag}.json").write_text(json.dumps({**detail, "result": result},
                                                          indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
