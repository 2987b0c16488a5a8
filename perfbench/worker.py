"""One workload in one process: set up, time whole passes, check, report.

Run by run.py with src/ on PYTHONPATH; prints one JSON line on stdout.
With --setup-only it stops after set-up and reports only its time.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import minimal2
    import workloads
    setup, run_pass, check = workloads.WORKLOADS[args.workload]
    state = setup(args.seed)
    setup_s = time.perf_counter() - t0
    src = os.path.realpath(os.path.join("src", "minimal2"))
    if os.path.dirname(os.path.realpath(minimal2.__file__)) != src:
        print(f"minimal2 was imported from {minimal2.__file__}, not {src}", file=sys.stderr)
        return 1
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Whole passes until --seconds have passed; a pass longer than that runs once.
    walls, cpus, outputs = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        c0, w0 = time.process_time(), time.perf_counter()
        outputs.append(run_pass(state))
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = statistics.median(walls)

    per_layer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        w0 = time.perf_counter()
        outputs.append(run_pass(state))
        traced_wall = time.perf_counter() - w0
        tracer.active = False
        per_layer = tracer.metrics()
        per_layer["process.cpu_s"] = statistics.median(cpus)
        per_layer["trace.overhead_s"] = traced_wall - wall_s
        if args.spans:
            tracer.write(args.spans)

    # Passes repeat the same operations; a pass whose outputs equal the first
    # pass's shares its check results.
    first = check(state, outputs[0])
    attempted, failed, problems = first
    for out in outputs[1:]:
        a, f, p = first if out == outputs[0] else check(state, out)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    for p in problems[:20]:
        print("check failed:", p, file=sys.stderr)

    import numpy
    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "passes": len(walls), "pass_walls": walls,
        "attempted": attempted, "failed": failed, "per_layer": per_layer,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__,
                 "numba_active": bool(minimal2.kernels._USE_NUMBA)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
