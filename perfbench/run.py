"""Benchmark entry point: runs each workload in its own child process.

    python3 perfbench/run.py --workload toy-1p --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, untraced then traced

The checkout is the parent of this file's directory, whatever the working
directory; the library is imported from its ``src/`` directory.  The child
gets BLAS pinned to one thread, so measured numbers do not depend on how many
cores the machine has.  With one
``--workload`` the last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  Full results (environment
block, input sizes, checks and, when traced, every span) are written under
``.perfbench_out/`` in the checkout.  Exit code 0 only when every check passed.

This file imports no numpy, so the child's peak RSS is the workload's own.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170.0

#: One BLAS/OpenMP thread in the child; recorded in each result's environment.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run_child(workload: str, seed: int, seconds: int, trace: int) -> tuple[int, dict | None]:
    """Run one workload in a fresh interpreter; relay its output, return its
    exit code and parsed result line (None when it printed no result)."""
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, **PINNED_ENV)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        partial = exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or "")
        sys.stdout.write(partial)
        print(f"perfbench: {workload} exceeded {CHILD_TIMEOUT_S:.0f} s and was stopped",
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    body = lines[:-1] if result is not None else lines
    if body:
        print("\n".join(body))
    if not isinstance(result, dict) or not {"correct", "attempted", "failed",
                                            "metrics"} <= result.keys():
        print(f"perfbench: {workload} printed no result (exit code {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 1, None
    return proc.returncode, result


def main(argv=None) -> int:
    spec = json.loads((HERE / "workloads.json").read_text())
    names = list(spec["workloads"])
    default_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all, untraced then traced)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=default_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0 end-to-end metrics, 1 per-layer metrics "
                         "(default: 0 with --workload, both without)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    if args.workload:
        code, result = run_child(args.workload, args.seed, args.seconds, args.trace or 0)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return 0 if code == 0 and result["correct"] else 1

    traces = (0, 1) if args.trace is None else (args.trace,)
    summary: dict[str, dict] = {}
    ok = True
    for name in names:
        for trace in traces:
            code, result = run_child(name, args.seed, args.seconds, trace)
            ok = ok and code == 0 and result is not None and result["correct"]
            summary[f"{name}/trace{trace}"] = result
    attempted = sum(r["attempted"] for r in summary.values() if r)
    failed = sum(r["failed"] for r in summary.values() if r)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "runs": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
