"""Seeded tasks and their checks for the three benchmark workloads.

A workload is a closed loop with one client in one process: the harness asks
for the next block of tasks, times each task's ``run`` and then calls its
``check``.  A block holds one task per kind in seeded order, so every seed
sees the same mix of task kinds and kinds are interleaved, never grouped.
Inputs come only from the seed; the library receives nothing else.

- ``signal-analysis``: ``apply(A, f)`` on N = 256 signals, then one
  representation of the result; checks norm preservation and Moyal.
- ``field-quantize``: ``conjugation_check`` at N in {16, 24, 32}; checks each
  residual against the grid-floor law ``e^{-pi N/8}`` times a fixed margin.
- ``cli-runs``: in-process ``metaplab.cli.main(argv)``; checks the CLI
  contract (exit 0 only with finite outputs, 2 for bad input, 3 for a guard
  trip, never an exception).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

from metaplab import cli
from metaplab.metaplectic import apply, random_applicable_matrix
from metaplab.quantize import SymbolGrid, conjugation_check
from metaplab.signals import default_grid, gaussian, hermite, smooth_noise
from metaplab.symplectic import CovariantForm, tau_matrix
from metaplab.wigner import (
    stft,
    stft_reduction,
    tau_wigner,
    wigner_A,
    wigner_A_covariant,
    wigner_cross,
)

# tolerances of the acceptance suite
NORM_TOL = 1e-8
MOYAL_TOL = 1e-7
# fixed margin over the grid-floor law e^{-pi N/8} for conjugation residuals; the
# forms drawn below reach about 80 times the law at N = 32
FLOOR_MARGIN = 200.0


@dataclass
class Task:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the result is right
    cleanup: Callable[[], None] = lambda: None


def _pick(rng: np.random.Generator, items):
    return items[int(rng.integers(len(items)))]


class Decks:
    """Seeded draws that use every option equally often.

    Each key has a shuffled deck of its options, refilled when empty, so the
    mix of sizes and modes over a run is the same for every seed and only
    their order and the continuous parameters change.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.cards: dict[str, list] = {}

    def draw(self, key: str, options):
        cards = self.cards.setdefault(key, [])
        if not cards:
            cards.extend(options[i] for i in self.rng.permutation(len(options)))
        return cards.pop()


class SignalAnalysis:
    """mu(A) on N = 256 signals chained into one Wigner-type representation."""

    name = "signal-analysis"
    kinds = ("tau_wigner", "stft", "wigner_cross", "wigner_A",
             "wigner_A_covariant", "stft_reduction")
    # stft twice per block: with seven slots the median falls inside one kind's
    # latency band instead of on the border between two
    slots = kinds + ("stft",)
    tail_percentile = 98.0

    def __init__(self, seed: int, out_dir: Path):
        self.rng = np.random.default_rng([seed, 1])
        grid = default_grid(256)
        ax = grid.axes[0]
        self.signals = [gaussian(grid)] + [hermite(grid, k) for k in range(1, 5)]
        self.signals += [smooth_noise(grid, self.rng) for _ in range(3)]
        self.decks = Decks(self.rng)
        # pools large enough that their mean chain cost hardly changes with the seed
        self.mats2 = [random_applicable_matrix(self.rng, 1, grid.axes) for _ in range(256)]
        self.mats4 = [random_applicable_matrix(self.rng, 2, (ax, ax)) for _ in range(128)]

    def _task(self, kind: str, A, f, g, param) -> Task:
        if kind == "tau_wigner":
            rep = lambda u: tau_wigner(u, g, param)
        elif kind == "stft":
            rep = lambda u: stft(u, g)
        elif kind == "wigner_cross":
            rep = lambda u: wigner_cross(u, g)
        elif kind == "wigner_A":
            rep = lambda u: wigner_A(param, u, g)
        elif kind == "wigner_A_covariant":
            rep = lambda u: wigner_A_covariant(param, u, g)
        else:
            rep = lambda u: stft_reduction(tau_matrix(param), u, g)

        def run():
            u = apply(A, f)
            return u, rep(u)

        def check(out):
            u, F = out
            if not (np.all(np.isfinite(u.values)) and np.all(np.isfinite(F.values))):
                return "non-finite output"
            norm_dev = abs(u.norm() / f.norm() - 1.0)
            if norm_dev > NORM_TOL:
                return f"norm deviation {norm_dev:.3e} > {NORM_TOL:g}"
            moyal_dev = abs(F.norm() - u.norm() * g.norm())
            if moyal_dev > MOYAL_TOL:
                return f"Moyal deviation {moyal_dev:.3e} > {MOYAL_TOL:g}"
            return None

        return Task(kind, f"{kind} param={param!r}", run, check)

    def _param(self, kind: str, rng: np.random.Generator):
        if kind == "tau_wigner":
            return float(rng.uniform(0.0, 1.0))
        if kind == "wigner_A":
            return _pick(rng, self.mats4)
        if kind == "wigner_A_covariant":
            a11, a13, a21 = rng.uniform(0.0, 1.0), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
            return CovariantForm(np.array([[a11]]), np.array([[a13]]), np.array([[a21]]))
        if kind == "stft_reduction":
            # the oversampling factor, and so the cost, changes with tau
            return self.decks.draw("reduction.tau", tuple(np.linspace(0.25, 0.75, 11)))
        return None

    def block(self) -> list[Task]:
        rng = self.rng
        tasks = []
        for i in rng.permutation(len(self.slots)):
            kind = self.slots[i]
            A, f, g = _pick(rng, self.mats2), _pick(rng, self.signals), _pick(rng, self.signals)
            tasks.append(self._task(kind, A, f, g, self._param(kind, rng)))
        return tasks

    def warmup(self) -> list[Task]:
        A, f, g = self.mats2[0], self.signals[0], self.signals[1]
        params = {"tau_wigner": 0.5, "wigner_A": self.mats4[0],
                  "wigner_A_covariant": CovariantForm.tau(0.5), "stft_reduction": 0.5}
        return [self._task(k, A, f, g, params.get(k)) for k in self.kinds]


def _gauss_symbol(ax, width: float) -> SymbolGrid:
    return SymbolGrid.from_function(
        lambda x, xi: np.exp(-np.pi * width * (x ** 2 + xi ** 2)), ax)


class FieldQuantize:
    """conjugation_check on covariant matrices, 4-D Weyl operators at N <= 32."""

    name = "field-quantize"
    sizes = (16, 24, 32)
    tail_percentile = 55.0

    def __init__(self, seed: int, out_dir: Path):
        self.rng = np.random.default_rng([seed, 2])
        self.decks = Decks(self.rng)
        self.grids = {n: default_grid(n) for n in self.sizes}
        self.signals = {n: [gaussian(g), hermite(g, 1)] for n, g in self.grids.items()}

    def _task(self, n: int, A, label: str, width: float, f, g) -> Task:
        a = _gauss_symbol(self.grids[n].axes[0], width)
        limit = FLOOR_MARGIN * np.exp(-np.pi * n / 8.0)

        def check(res):
            worst = max(res.values())
            if not np.isfinite(worst):
                return "non-finite residual"
            if worst > limit:
                return f"residual {worst:.3e} > {limit:.3e} at N={n}"
            return None

        return Task(f"N={n}", f"N={n} {label} width={width:.3f}",
                    lambda: conjugation_check(A, a, f, g), check)

    def block(self) -> list[Task]:
        rng = self.rng
        tasks = []
        for i in rng.permutation(len(self.sizes)):
            n = self.sizes[i]
            if self.decks.draw(f"form{n}", ("tau", "cov")) == "tau":
                tau = float(rng.uniform(0.0, 1.0))
                A, label = tau_matrix(tau), f"tau={tau:.3f}"
            else:
                # with A11 near 0 or 1 and nonzero chirps the residual floor sits far
                # above the law (about 300 times it at N = 32), so those forms are left out
                a11, a13, a21 = rng.uniform(0.25, 0.75), rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25)
                A = CovariantForm(np.array([[a11]]), np.array([[a13]]), np.array([[a21]])).matrix()
                label = f"cov=({a11:.3f},{a13:.3f},{a21:.3f})"
            width = float(rng.uniform(0.5, 1.0))
            f, g = _pick(rng, self.signals[n]), _pick(rng, self.signals[n])
            tasks.append(self._task(n, A, label, width, f, g))
        return tasks

    def warmup(self) -> list[Task]:
        n = self.sizes[0]
        f, g = self.signals[n]
        return [self._task(n, tau_matrix(0.5), "tau=0.5", 0.5, f, g)]


# ---------------------------------------------------------------------------
# cli-runs


def _finite_json(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    if isinstance(value, float):
        return bool(np.isfinite(value))
    return True


def nonfinite_outputs(out: Path) -> list[str]:
    """Output files of a CLI run that hold a non-finite number."""
    bad = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.suffix == ".bin":
            ok = bool(np.all(np.isfinite(np.fromfile(path, dtype="<f8"))))
        elif path.suffix == ".json":
            ok = _finite_json(json.loads(path.read_text()))
        elif path.suffix == ".csv":
            rows = path.read_text().splitlines()[1:]
            ok = all(np.isfinite(float(tok)) for row in rows for tok in row.split(","))
        else:
            ok = True
        if not ok:
            bad.append(path.name)
    return bad


def run_cli(argv: list[str]) -> tuple[int, str]:
    """metaplab.cli.main in-process: (exit code, stderr text); argparse exits count."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return code, err.getvalue()


# smooth bounded perturbations for `evolve --sigma`
SIGMAS = ("0.3*exp(-(x^2+xi^2))", "0.2*cos(x)*exp(-xi^2)", "0.4*exp(-0.5*(x^2+xi^2))",
          "0.1*sin(x+xi)*exp(-x^2)")
# singular perturbations: the CLI contract allows exit 2 or 3 for them, and a run
# that exits 0 with nan in its outputs fails the task
SINGULAR_SIGMAS = ("1/x", "sqrt(0-1-x^2)", "log(x^2)/10")


class CliRuns:
    """The four CLI commands on seeded argument lists, files written per task."""

    name = "cli-runs"
    commands = ("wigner", "evolve", "gaborscan", "wfs")
    tail_percentile = 85.0

    def __init__(self, seed: int, out_dir: Path, known_defects: bool = False):
        self.rng = np.random.default_rng([seed, 3])
        self.decks = Decks(self.rng)
        self.out_dir = Path(out_dir)
        self.known_defects = known_defects
        self.count = 0

    def _next_dir(self) -> Path:
        self.count += 1
        return self.out_dir / f"task{self.count:06d}"

    def _rep(self, kind: str) -> str:
        rng = self.rng
        if kind == "tau":
            return f"tau:{rng.uniform(0.0, 1.0):.3f}"
        if kind == "stft":
            return "stft"
        return f"cov:{rng.uniform(0.0, 1.0):.3f},{rng.uniform(-0.5, 0.5):.3f},{rng.uniform(-0.5, 0.5):.3f}"

    def argv_for(self, command: str) -> tuple[list[str], tuple[int, ...]]:
        """Seeded argument list (without --out) and the exit codes the contract allows.

        The settings that set a task's cost are drawn jointly from one deck per
        command, so every run holds nearly the same multiset of task costs.
        """
        rng, draw = self.rng, self.decks.draw
        sizes = ("128", "256")
        signals = ("gaussian", "hermite:1", "hermite:3", "sign-gaussian", "two-bump:1,1")
        reps = ("tau", "stft", "cov")
        if command == "wigner":
            n, rep = draw("wigner", tuple(product(sizes, reps)))
            return ["wigner", "--n", n, "--signal", draw("wigner.signal", signals),
                    "--rep", self._rep(rep)], (0,)
        if command == "wfs":
            n, rep, bins = draw("wfs", tuple(product(sizes, reps, ("32", "64"))))
            return ["wfs", "--n", n, "--signal", draw("wfs.signal", signals), "--rep", self._rep(rep),
                    "--bins", bins, "--r0", draw("wfs.r0", ("1.5", "2.0"))], (0,)
        if command == "gaborscan":
            operators = ("fourier", "identity", "weyl:exp(-(x^2+xi^2))")
            n, radius, operator = draw("gaborscan", tuple(product(sizes, ("3", "4", "5"), operators)))
            step = float(np.sqrt(int(n))) / int(n)  # of the self-dual axis; the lattice sits on it
            spacing = repr(step * (8 if n == "256" else 6))
            argv = ["gaborscan", "--n", n, "--window", "gaussian", "--operator", operator,
                    "--lattice", f"{spacing},{spacing},{radius}", "--qs", "1:0,0.5:0,1:1"]
            if draw("gaborscan.estimate", (True, False, False)):
                argv.append("--estimate-chi")
            return argv, (0,)
        if command != "evolve":
            raise ValueError(f"unknown command {command!r}")
        mode, n, count = draw("evolve", tuple(product(("check-tau", "sigma", "plain"), sizes, range(1, 6))))
        # the transport check needs the self-dual N = 256 grid and t < 0.1, where
        # the free flow's chirps stay below Nyquist
        n, t_max = ("256", 0.09) if mode == "check-tau" else (n, 0.3)
        argv = ["evolve", "--n", n,
                "--times", ",".join(f"{t:.3f}" for t in np.sort(rng.uniform(0.01, t_max, size=count))),
                "--hamiltonian", draw("evolve.hamiltonian", ("free", "harmonic", "quad:0.5,0.1,1")),
                "--u0", draw("evolve.u0", ("gaussian", "hermite:1", "hermite:2"))]
        if mode == "check-tau":
            return argv + ["--check-tau", f"{rng.uniform(0.0, 1.0):.3f}"], (0,)
        if mode == "plain":
            return argv, (0,)
        if self.known_defects and draw("evolve.singular", (True, False)):
            return argv + ["--sigma", _pick(rng, SINGULAR_SIGMAS)], (2, 3)
        return argv + ["--sigma", _pick(rng, SIGMAS)], (0,)

    def _task(self, kind: str, argv: list[str], expect: tuple[int, ...]) -> Task:
        out = self._next_dir()
        full = argv + ["--out", str(out)]

        def check(result):
            code, err = result
            if code not in expect:
                return f"exit {code}, expected {expect}: {' '.join(argv)} {err.strip()[-200:]}"
            if code == 0:
                bad = nonfinite_outputs(out)
                if bad:
                    return f"exit 0 with non-finite output in {bad}: {' '.join(argv)}"
            return None

        return Task(kind, " ".join(argv),
                    lambda: run_cli(full), check,
                    lambda: shutil.rmtree(out, ignore_errors=True))

    def block(self) -> list[Task]:
        rng = self.rng
        tasks = [self._task(self.commands[i], *self.argv_for(self.commands[i]))
                 for i in rng.permutation(len(self.commands))]
        # one invalid argument list per four blocks on average, at a seeded place
        if self.decks.draw("invalid.due", (True, False, False, False)):
            argv, expect = self.decks.draw("invalid", INVALID)
            tasks.insert(int(rng.integers(len(tasks) + 1)), self._task("invalid", list(argv), expect))
        return tasks

    def warmup(self) -> list[Task]:
        fixed = [
            ("wigner", ["wigner", "--n", "128", "--signal", "gaussian", "--rep", "tau:0.5"], (0,)),
            ("evolve", ["evolve", "--n", "128", "--times", "0.05,0.1", "--sigma", SIGMAS[0]], (0,)),
            ("gaborscan", ["gaborscan", "--n", "256", "--lattice", "0.5,0.5,3"], (0,)),
            ("wfs", ["wfs", "--n", "128", "--signal", "sign-gaussian"], (0,)),
            ("invalid", *INVALID[0]),
        ]
        return [self._task(kind, list(argv), expect) for kind, argv, expect in fixed]


# bad input exits 2, a numeric guard trip exits 3
INVALID = (
    (["wigner", "--n", "255"], (2,)),
    (["wigner", "--n", "128", "--rep", "tau:1.5"], (2,)),
    (["wigner", "--n", "128", "--signal", "bogus"], (2,)),
    (["evolve", "--n", "128", "--sigma", "x+*2"], (2,)),
    (["evolve", "--n", "128", "--times", "0.1,abc"], (2,)),
    (["evolve", "--n", "128", "--hamiltonian", "quad:1,2"], (2,)),
    (["gaborscan", "--n", "256", "--lattice", "0.5,0.5"], (2,)),
    (["gaborscan", "--n", "256", "--qs", "1-0"], (2,)),
    (["wfs", "--n", "abc"], (2,)),
    (["wigner", "--n", "128", "--rep", "cov:0.5,0,3"], (3,)),
    (["wfs", "--n", "128", "--rep", "cov:0.5,0,3"], (3,)),
)

WORKLOADS = {w.name: w for w in (SignalAnalysis, FieldQuantize, CliRuns)}
