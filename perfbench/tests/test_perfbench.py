"""The benchmark's own checks, held against independent oracles.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import metaplab
from metaplab.metaplectic import apply_quadrature
from metaplab.signals import phase_align
from metaplab.symplectic import tau_matrix
from metaplab.wigner import tau_wigner

import spans
from worker import run_task
from workloads import SINGULAR_SIGMAS, CliRuns, FieldQuantize, SignalAnalysis, nonfinite_outputs, run_cli

BENCH = Path(__file__).resolve().parents[1]


def cosine(u, v) -> float:
    return abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))


def rel(u, v) -> float:
    return float(np.linalg.norm(u - v) / np.linalg.norm(v))


def test_signal_checks_agree_with_quadrature_oracle(tmp_path):
    wl = SignalAnalysis(7, tmp_path)
    rng = np.random.default_rng(7)
    for _ in range(4):
        A = wl.mats2[rng.integers(len(wl.mats2))]
        f = wl.signals[rng.integers(len(wl.signals))]
        task = wl._task("stft", A, f, wl.signals[0], None)
        u, F = task.run()
        assert task.check((u, F)) is None
        # the oracle agrees modulo the global phase the chain leaves untracked
        assert cosine(u.values, apply_quadrature(A, f).values) >= 1 - 1e-7
        # and the check notices a result that is off by more than its tolerance
        assert task.check((u.with_values(1.001 * u.values), F)) is not None


def test_wigner_A_check_agrees_with_tau_wigner(tmp_path):
    wl = SignalAnalysis(8, tmp_path)
    rng = np.random.default_rng(8)
    for tau in rng.uniform(0.0, 1.0, size=3):
        A, f, g = wl.mats2[0], wl.signals[5], wl.signals[2]
        task = wl._task("wigner_A", A, f, g, tau_matrix(tau))
        u, W = task.run()
        assert task.check((u, W)) is None
        Wt = tau_wigner(u, g, tau).values
        assert rel(phase_align(Wt, W.values), Wt) <= 1e-10
        assert task.check((u, W.with_values(1.001 * W.values))) is not None


def test_conjugation_check_against_floor(tmp_path):
    wl = FieldQuantize(3, tmp_path)
    task = next(t for t in wl.block() if t.kind == "N=16")
    res = task.run()
    assert task.check(res) is None
    assert task.check({k: 1e6 * v for k, v in res.items()}) is not None


def test_cli_rerun_is_byte_identical(tmp_path):
    wl = CliRuns(5, tmp_path)
    for command in ("wigner", "evolve", "gaborscan", "wfs"):
        argv, expect = wl.argv_for(command)
        outs = [tmp_path / command / run for run in ("a", "b")]
        for out in outs:
            code, err = run_cli(argv + ["--out", str(out)])
            assert code in expect, err
        files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) for out in outs]
        assert files[0] == files[1] and files[0]
        for name in files[0]:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_singular_sigma_counts_as_failed(tmp_path):
    wl = CliRuns(0, tmp_path)
    for sigma in SINGULAR_SIGMAS:
        argv = ["evolve", "--n", "128", "--times", "0.05", "--sigma", sigma]
        task = wl._task("evolve", argv, (2, 3))
        out = tmp_path / f"task{wl.count:06d}"
        code, _ = task.run()
        bad = nonfinite_outputs(out) if code == 0 else []
        _, error = run_task(task)
        if code == 0:
            # exit 0 is only allowed with finite outputs
            assert bad and error is not None
        else:
            assert code in (2, 3) and error is None


def test_known_defects_draws_singular_sigmas(tmp_path):
    plain, defects = CliRuns(0, tmp_path), CliRuns(0, tmp_path, known_defects=True)
    drawn = [defects.argv_for("evolve") for _ in range(8)]
    assert any(expect == (2, 3) and argv[-1] in SINGULAR_SIGMAS for argv, expect in drawn)
    assert not any(s in plain.argv_for("evolve")[0] for _ in range(200) for s in SINGULAR_SIGMAS)


def test_traced_shares_sum_to_at_most_one(tmp_path):
    original = metaplab.apply
    recorder = spans.Recorder()
    recorder.install()
    try:
        wl = CliRuns(1, tmp_path)
        task = wl._task("evolve", ["evolve", "--n", "128", "--times", "0.05,0.1,0.2",
                                   "--sigma", "0.3*exp(-(x^2+xi^2))"], (0,))
        warm_wigner, warm_evolve = wl.warmup()[:2]
        for index, task in enumerate([task, warm_wigner, warm_evolve]):
            _, error = run_task(task, recorder, index)
            assert error is None
    finally:
        recorder.uninstall()
    assert metaplab.apply is original
    m = spans.layer_metrics(recorder.spans)
    shares = [m[f"{layer}.self_share"] for layer in spans.LAYERS + ("kernel",)]
    assert all(s >= 0 for s in shares) and sum(shares) <= 1 + 1e-9
    # 1 when one eigendecomposition serves every time; 2.5 = (3 + 2) / 2 with one per time
    assert 1.0 <= m["schrodinger.eigh_per_hamiltonian"] <= 2.5
    assert m["serial.bytes_written"] > 0 and m["kernel.fft_calls"] > 0
    dump = tmp_path / "spans.json"
    recorder.dump(dump)
    assert len(json.loads(dump.read_text())["spans"]) == len(recorder.spans)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-runs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
