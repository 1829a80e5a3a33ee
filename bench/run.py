"""Run one benchmark workload at one seed and print its metrics.

    python3 bench/run.py --workload construct --seed 1 --seconds 40 --trace 0

The package is imported from ``src/`` of the checkout this file sits in;
nothing needs installing.  A run

1. times the set-up (a fresh interpreter importing ``depthsep.cli`` and
   making the workload's inputs from the seed) in a child process before
   the first pass and after each pass;
2. repeats whole passes of the workload until the run has taken about
   ``--seconds`` seconds, set-up included, timing each pass, and after each
   pass checks every output against the independent oracles in
   ``oracles.py``, outside the timed region;
3. times the workload's speed probe (fixed work that never calls the
   program) before the first pass and after each pass, and reports
   ``pass_s`` and ``setup_s`` scaled by the probe's reference time over its
   median time in this run, so that drift in the machine's speed between
   runs cancels; the unscaled medians go into the run record;
4. with ``--trace 1``, alternates untraced passes with passes traced layer
   by layer (see ``layertrace.py``) and reports per-layer metrics instead
   of the end-to-end ones;
5. writes a run record (machine, seed, problem sizes, operation counts,
   pass times and, when traced, the spans) to ``bench/runs/`` or ``--out``,
   prints the record as one JSON line, and prints the result as the last
   line: ``{"correct", "attempted", "failed", "metrics"}``.

It exits 0 when every output that was produced passed its checks.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# a fresh interpreter: import the package and its CLI, then make the inputs
PROBE = (
    "import sys, time\n"
    "sys.path[:0] = [{src!r}, {bench!r}]\n"
    "import depthsep.cli, workloads\n"
    "workloads.make_inputs({name!r}, {seed})\n"
    "print(repr(time.time()))\n"
)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the package
    from there, refusing any other copy."""
    package = SRC / "depthsep"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no package source at {package}")
    sys.path.insert(0, str(SRC))
    import depthsep

    if Path(depthsep.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported depthsep from {depthsep.__file__}, not {package}")


def measure_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported the
    package and made the workload's inputs."""
    code = PROBE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed)
    start = time.time()
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout.split()[-1]) - start


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through ctypes."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
    }


def reset_memo_tables() -> None:
    """Empty every ``lru_cache`` of the package, as a fresh process has them."""
    for name, module in list(sys.modules.items()):
        if name == "depthsep" or name.startswith("depthsep."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_pass(ops) -> tuple[float, list]:
    """Run every operation once; an exception is kept as that op's output."""
    ctx: dict = {}
    outputs = []
    start = time.perf_counter()
    for op in ops:
        try:
            outputs.append(op.run(ctx))
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            outputs.append(exc)
    return time.perf_counter() - start, outputs


def check_pass(ops, outputs, sizes: dict, problems: list) -> tuple[int, bool]:
    """Check each output; returns (operations failed, all checks passed)."""
    failed, correct = 0, True
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            failed += 1
            problems.append(f"{op.name}: failed: " + "".join(traceback.format_exception(out)))
            continue
        try:
            found = op.check(out)
        except Exception:  # noqa: BLE001 - a mismatch or a broken output
            correct = False
            problems.append(f"{op.name}: check: " + traceback.format_exc())
            continue
        sizes.setdefault(op.name, found)
    return failed, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("construct", "randomize", "exact-laws"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH / "runs", help="directory for the run record")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    run_start = time.perf_counter()  # set-up counts against --seconds too

    import_program()
    import layertrace as trace
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    ops = workloads.make_ops(args.workload, inputs)

    # set-up and speed are sampled between passes, over the same stretch
    # of time as the passes themselves
    probe = workloads.speed_probe(args.workload)
    setup = [measure_setup(args.workload, args.seed)]
    probe_s = [timed(probe)]
    tracer = trace.Tracer()
    durations: dict[bool, list[float]] = {False: [], True: []}
    sizes: dict = {}
    problems: list[str] = []
    check_s: list[float] = []
    attempted = failed = 0
    correct = True
    min_passes = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(durations[False]) > len(durations[True])
        reset_memo_tables()
        cycle_start = time.perf_counter()
        if traced:
            with trace.installed(tracer):
                elapsed, outputs = run_pass(ops)
        else:
            elapsed, outputs = run_pass(ops)
        durations[traced].append(elapsed)
        check_start = time.perf_counter()
        n_failed, ok = check_pass(ops, outputs, sizes, problems)
        check_s.append(time.perf_counter() - check_start)
        del outputs
        setup.append(measure_setup(args.workload, args.seed))
        probe_s.append(timed(probe))
        attempted += len(ops)
        failed += n_failed
        correct = correct and ok
        passes = len(durations[False]) + len(durations[True])
        now = time.perf_counter()
        if passes >= min_passes and (now - run_start) + (now - cycle_start) > args.seconds:
            break

    if args.trace:
        values = trace.layer_metrics(tracer.spans, len(durations[True]))
        values["trace.overhead_s"] = statistics.median(durations[True]) - statistics.median(durations[False])
        metrics = {m: {"value": values[m], "unit": trace.METRIC_UNITS[m]} for m in trace.METRIC_UNITS}
    else:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        speed = workloads.PROBE_REFERENCE_S[args.workload] / statistics.median(probe_s)
        metrics = {
            "setup_s": {"value": statistics.median(setup) * speed, "unit": "s"},
            "pass_s": {"value": statistics.median(durations[False]) * speed, "unit": "s"},
            "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "operations": {"per_pass": len(ops), "passes": passes, "attempted": attempted, "failed": failed},
        "pass_s": {"untraced": durations[False], "traced": durations[True]},
        "setup_s": setup,
        "check_s": check_s,
        "probe_s": probe_s,
        "pass_wall_median_s": statistics.median(durations[False]),
        "setup_wall_median_s": statistics.median(setup),
        "sizes": sizes,
        "problems": problems[:20],
    }
    if args.trace:
        record["self_time_by_function"] = trace.self_time_by_function(tracer.spans, len(durations[True]))
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    spans = {"spans": tracer.spans} if args.trace else {}
    path.write_text(json.dumps({**record, "result": result, **spans}) + "\n", encoding="utf-8")
    for problem in problems[:20]:
        print(problem, file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
