"""Alternating parent/change pairs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --base HEAD~1 --workload signal-analysis \\
        --pairs 10 --seconds 20 --seed 101 --out BENCH_26.json

The change is the checkout this file sits in; the parent is `--base`, checked
out in a detached `git worktree` under `.perfbench_out/` and removed at the
end.  For each workload, pair i runs the benchmark command of
`BENCHMARK.json` (`perfbench/run.py --trace 0`, unchanged, from each side's
own tree) once per side with seed `--seed + i`; the parent goes first in even
pairs and the change in odd ones.

The output holds every run with its median latency per task kind, and per
workload and end-to-end metric each side's median and quartiles, the
parent's IQR, the change's wins out of the pairs (ties count for neither),
`gain` (wins in at least nine tenths of the pairs and a median better by
more than the parent's IQR) and `regression` (a median worse than the
parent's by more than the metric's bound), plus the machine facts that
`run.py` reports.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600.0  # one run.py call; it stops its own workers at 170 s


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def bench_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One `run.py --trace 0` in `tree`: its counts, metrics, per-kind task
    medians and machine facts, read from the result file it writes."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads((tree / ".perfbench_out" / f"result-{workload}-seed{seed}-trace0.json")
                        .read_text())
    by_kind: dict[str, list[float]] = {}
    for latency, kind in zip(result["latencies_s"][0], result["kinds"][0]):
        by_kind.setdefault(kind, []).append(1e3 * latency)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: value for name, (value, _unit) in result["metrics"].items()},
            "kind_p50_ms": {kind: statistics.median(v) for kind, v in sorted(by_kind.items())},
            "machine": result["machine"]}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], spec: dict) -> dict:
    """Each side's quartiles, wins, gain and regression for one metric."""
    name, lower = spec["name"], spec["better"] == "lower"
    parent = [r["parent"]["metrics"][name] for r in runs]
    change = [r["change"]["metrics"][name] for r in runs]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    base, new = quartiles(parent), quartiles(change)
    gained = (base["median"] - new["median"]) if lower else (new["median"] - base["median"])
    rel = new["median"] / base["median"] - 1.0 if base["median"] else float("nan")
    worse = rel if lower else -rel
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": base, "change": new, "relative_change": rel,
            "wins": wins, "pairs": len(runs),
            "gain": wins >= 0.9 * len(runs) and gained > base["iqr"],
            "regression": worse > spec["bound"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", required=True, help="the parent revision")
    p.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    p.add_argument("--workload", action="append",
                   help="a workload of BENCHMARK.json (repeatable; default: all)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, help="per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    args = p.parse_args(argv)
    # on SIGTERM, unwind through the finally that removes the worktree
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown or args.pairs < 1:
        p.error(f"unknown workloads {unknown}" if unknown else "--pairs must be at least 1")
    seconds = args.seconds if args.seconds is not None else float(bench["run_seconds"])
    base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    tree = ROOT / ".perfbench_out" / f"base-{base_sha[:12]}"
    if tree.exists():
        git("worktree", "remove", "--force", str(tree))
    git("worktree", "add", "--detach", str(tree), base_sha)
    sides = {"parent": tree, "change": ROOT}
    report = {"base": {"rev": args.base, "sha": base_sha},
              "change": {"sha": git("rev-parse", "HEAD"),
                         "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
              "command": bench["command"], "seconds": seconds, "pairs": args.pairs,
              "workloads": {}}
    try:
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    run[side] = bench_once(sides[side], bench["command"], workload, seed, seconds)
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          + json.dumps(run[side]["metrics"]), file=sys.stderr)
                machine = [run[side].pop("machine") for side in order]
                report.setdefault("machine", machine[0])
                runs.append(run)
            report["workloads"][workload] = {
                "runs": runs,
                "metrics": {spec["name"]: summarize(runs, spec) for spec in bench["end_to_end"]},
            }
    finally:
        git("worktree", "remove", "--force", str(tree))
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for workload, data in report["workloads"].items():
        for name, m in data["metrics"].items():
            print(f"{workload:16s} {name:14s} {m['parent']['median']:10.4g} -> "
                  f"{m['change']['median']:10.4g} {m['unit']:4s} ({100 * m['relative_change']:+6.1f} %, "
                  f"parent IQR {m['parent']['iqr']:.3g}, wins {m['wins']}/{m['pairs']})"
                  + ("  GAIN" if m["gain"] else "") + ("  REGRESSION" if m["regression"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
