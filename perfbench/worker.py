"""One measured process of a workload; `run.py` starts it.

The process imports metaplab from the checkout's ``src``, generates the
workload's inputs from the seed, runs one warm-up task per task kind and then
the timed closed loop.  ``--t0`` is the monotonic time at which the parent
started this process, so set-up time covers interpreter start, import, input
generation and warm-up.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_task(task, recorder=None, index: int = 0) -> tuple[float, str | None]:
    """Time one task, then check it; returns (seconds, error or None)."""
    if recorder is not None:
        recorder.begin_task(index)
    start = time.perf_counter()
    try:
        result, error = task.run(), None
    except Exception as e:  # a task that raises is a failed task, not a crashed run
        result, error = None, f"raised {type(e).__name__}: {e}"
    elapsed = time.perf_counter() - start
    if recorder is not None:
        recorder.end_task()
    if error is None:
        try:
            error = task.check(result)
        except Exception as e:  # unreadable output fails the task
            error = f"check raised {type(e).__name__}: {e}"
    task.cleanup()
    return elapsed, error


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--known-defects", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import metaplab

    if not Path(metaplab.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        print(f"metaplab imported from {metaplab.__file__}, not from the checkout", file=sys.stderr)
        return 2
    import spans
    import workloads

    out = Path(args.out) / f"{args.workload}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    recorder = spans.Recorder() if args.trace else None
    if recorder is not None:
        recorder.install(callers=(workloads,))
    kind = workloads.WORKLOADS[args.workload]
    extra = {"known_defects": True} if args.known_defects and kind is workloads.CliRuns else {}
    workload = kind(args.seed, out, **extra)
    for task in workload.warmup():
        _, error = run_task(task)
        if error is not None:
            print(json.dumps({"setup_error": f"warm-up {task.label}: {error}"}))
            return 1
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        shutil.rmtree(out, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies, kinds, failures = [], [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        # whole blocks only, so every run has the same mix of task kinds
        for task in workload.block():
            elapsed, error = run_task(task, recorder, len(latencies))
            latencies.append(elapsed)
            kinds.append(task.kind)
            if error is not None:
                failures.append(f"{task.label}: {error}")
    shutil.rmtree(out, ignore_errors=True)
    result = {
        "setup_s": setup_s,
        "latencies_s": latencies,
        "kinds": kinds,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tail_percentile": workload.tail_percentile,
    }
    if recorder is not None:
        recorder.uninstall()
        result["layers"] = spans.layer_metrics(recorder.spans)
        recorder.dump(Path(args.out) / f"spans-{args.workload}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
