"""metaplab benchmark: seeded workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload signal-analysis --seed 1 --seconds 30 --trace 0

Run from anywhere; the library is imported from the ``src`` directory beside
``perfbench``.  Each measured phase runs in a fresh worker process (a closed
loop with one client), so set-up time and peak memory belong to that phase.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of several
set-ups), ``tasks_per_s``, ``task_p50_ms``, ``task_tail_ms``, ``failed_frac``
and ``peak_rss_mb``.  ``--trace 1`` splits ``--seconds`` into three phases
with the same seed (untraced, traced, and untraced with one thread
everywhere) and prints the per-layer metrics of the traced phase, with
``trace.overhead_frac`` and ``threads.speedup``.  ``--known-defects`` adds
singular ``evolve --sigma`` expressions to ``cli-runs``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result, with
the machine facts, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("signal-analysis", "field-quantize", "cli-runs")
SETUPS = 5  # set-ups per --trace 0 run; setup_s is their median
DEADLINE_S = 170.0  # the whole run, workers included
THREAD_VARS = ("METAPLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def thread_env(nproc: int, single: bool) -> dict:
    """Worker environment: one thread everywhere, or the defaults capped at nproc."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        value = env.get(var, "")
        if single:
            env[var] = "1"
        elif not value.isdigit() or not 1 <= int(value) <= nproc:
            env[var] = str(nproc)
    return env


def spawn(args, env: dict, deadline: float, seconds: float = 0.0, trace: int = 0,
          setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--out", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    if args.known_defects:
        cmd.append("--known-defects")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another worker")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, capture_output=True,
                              text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        detail = " ".join([proc.stderr.strip()[-2000:]] + lines[-1:])
        raise BenchError(f"worker exited {proc.returncode}: {detail}")
    return json.loads(lines[-1])


def machine_facts(env: dict) -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {var: env.get(var) for var in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        if models:
            facts["cpu_model"] = models[0]
    except OSError:
        pass
    for index in range(8):
        cache = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            level = (cache / "level").read_text().strip()
            kind = (cache / "type").read_text().strip()
            size = (cache / "size").read_text().strip()
        except OSError:
            break
        if kind != "Instruction" and level in ("2", "3"):
            facts[f"L{level}"] = size
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build-info layout differs between NumPy versions
        facts["blas"] = "unknown"
    facts["out_filesystem"] = _filesystem(OUT)
    return facts


def _filesystem(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def tail(latencies_ms: list[float], percentile: float) -> tuple[float, int]:
    """Latency at the workload's fixed tail percentile and the samples beyond it."""
    ordered = sorted(latencies_ms)
    value = statistics.quantiles(ordered, n=1000, method="inclusive")[int(percentile * 10) - 1]
    return value, sum(1 for x in ordered if x > value)


def end_to_end(measure: dict, setups: list[float]) -> tuple[dict, dict]:
    lat_ms = [1e3 * s for s in measure["latencies_s"]]
    attempted = len(lat_ms)
    verified = attempted - measure["failed"]
    tail_ms, beyond = tail(lat_ms, measure["tail_percentile"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (verified / sum(measure["latencies_s"]), "1/s"),
        "task_p50_ms": (statistics.median(lat_ms), "ms"),
        "task_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (measure["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "tasks_per_s": f"{verified} verified of {attempted} attempted",
        "task_p50_ms": f"n={attempted}",
        "task_tail_ms": f"p{measure['tail_percentile']:g}, {beyond} samples beyond, n={attempted}",
        "peak_rss_mb": "ru_maxrss of the measured process",
    }
    return metrics, notes


def run(args) -> dict:
    from spans import unit_of

    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = thread_env(nproc, single=False)
    OUT.mkdir(exist_ok=True)
    if args.trace == 0:
        measure = spawn(args, env, deadline, args.seconds)
        setups = [measure["setup_s"]]
        setups += [spawn(args, env, deadline, setup_only=True)["setup_s"]
                   for _ in range(SETUPS - 1)]
        metrics, notes = end_to_end(measure, setups)
        phases = [measure]
    else:
        third = args.seconds / 3.0
        plain = spawn(args, env, deadline, third)
        traced = spawn(args, env, deadline, third, trace=1)
        single = spawn(args, thread_env(nproc, single=True), deadline, third)
        phases = [plain, traced, single]

        def rate(phase):
            return (len(phase["latencies_s"]) - phase["failed"]) / sum(phase["latencies_s"])

        metrics = {name: (value, unit_of(name)) for name, value in traced["layers"].items()}
        metrics["trace.overhead_frac"] = (rate(plain) / rate(traced) - 1.0, "fraction")
        metrics["threads.speedup"] = (rate(plain) / rate(single), "x")
        share_sum = sum(v for k, v in traced["layers"].items() if k.endswith(".self_share"))
        notes = {"threads.speedup": f"default threads (each capped at nproc={nproc}) over one thread",
                 "kernel.self_share": f"all layers' self shares sum to {share_sum:.4f}"}
    attempted = sum(len(p["latencies_s"]) for p in phases)
    failed = sum(p["failed"] for p in phases)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "known_defects": args.known_defects,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failures": [f for p in phases for f in p["failures"]],
        "latencies_s": [p["latencies_s"] for p in phases], "kinds": [p["kinds"] for p in phases],
        "metrics": metrics, "notes": notes, "machine": machine_facts(env),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--known-defects", action="store_true",
                   help="add singular evolve --sigma expressions to cli-runs")
    args = p.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "metaplab" / "__init__.py").is_file():
        print(f"run.py: no metaplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  (closed loop, one client)")
    for name, (value, unit) in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:36s} {value:14.6g} {unit:8s} {note}")
    print(f"  {'failed_frac':36s} {result['failed_frac']:14.6g} {'':8s} "
          f"{result['failed']}/{result['attempted']} attempted tasks failed")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
