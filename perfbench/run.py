"""Benchmark for minimal2: one workload per call, every metric by name.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

Each workload runs in its own single-threaded process (perfbench/worker.py)
against the sources under src/.  Set-up is measured in that process and,
with --trace 0, in SETUP_PROBES more that stop after set-up; setup_s is
their median.  The last
line of stdout is one JSON object with correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Run records and span files go to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from spans import METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("census", "certify", "lie", "lemmas")
SETUP_PROBES = 2
DEADLINE_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "minimal2", "__init__.py")):
        print("run from the root of a minimal2 checkout: src/minimal2 is missing",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMBA_NUM_THREADS="1")
    base = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    deadline = time.monotonic() + DEADLINE_S

    def worker(extra):
        proc = subprocess.run(base + extra, env=env, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {' '.join(extra)} exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [worker(["--setup-only"])["setup_s"] for _ in range(probes)]
        res = worker(["--trace", str(args.trace),
                      "--spans", os.path.join(out_dir, f"spans-{tag}.jsonl")])
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    if args.trace:
        units = dict(METRICS)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["per_layer"].items()}
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(out_dir, f"run-{tag}.json"), "w") as f:
        json.dump({"args": vars(args), "host": res["host"], "passes": res["pass_walls"],
                   "setup_samples": setups, "result": result}, f, indent=1)
    print("host:", json.dumps(res["host"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
