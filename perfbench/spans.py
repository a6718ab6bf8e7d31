"""Span recorder for the traced pass, installed from outside the library.

`Recorder.install` wraps every function in each layer module's ``__all__``
wherever a ``metaplab`` module has bound it, plus the NumPy calls the library
spends its time in (the ``kernel`` layer).  A span records its name, start,
end and parent span; spans stay in memory and `Recorder.dump` writes them out
when the run ends.  `Recorder.uninstall` restores every binding.

A layer's self time is the time during which one of its spans is the
innermost open span.  When worker threads run spans concurrently, each
instant is split evenly among the threads that are busy in it, so the self
times of all layers never sum to more than the task time.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("signals", "symplectic", "metaplectic", "wigner", "quantize", "gabor",
          "schrodinger", "serial", "exprparse", "cli")
FFTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
SHIFTS = ("fftshift", "ifftshift")
SERIAL_WRITERS = ("save_signal", "save_field", "save_operator_matrix", "signal_csv", "field_csv")
# formats one number: a span per call would double the time of the CSV writers
# that call it once per value, so its time stays with its caller
UNWRAPPED = ("serial.fmt17",)


_SEQ = itertools.count()


class Span:
    __slots__ = ("name", "layer", "parent", "thread", "task", "seq", "start", "end", "work", "wait")

    def __init__(self, name, layer, parent, task, wait):
        self.name, self.layer, self.parent, self.task, self.wait = name, layer, parent, task, wait
        self.thread = threading.get_ident()
        self.seq = next(_SEQ)  # creation order: an outer span precedes its children
        self.work = 0.0


def _fft_flops(name, args, kwargs) -> float:
    """5 n log2 n per transform of length n, summed over the transformed axes."""
    shape = np.shape(args[0])
    if name in ("fft", "ifft"):
        axes = [kwargs.get("axis", args[2] if len(args) > 2 else -1)]
    else:
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        axes = range(len(shape)) if axes is None else list(axes)
    size = math.prod(shape)
    flops = 0.0
    for ax in axes:
        n = shape[ax]
        if n > 1:
            flops += 5.0 * n * math.log2(n) * (size / n)
    return flops


def _written_bytes(args) -> float:
    base = Path(args[0])
    total = 0
    for path in (base, base.parent / (base.name + ".json"), base.parent / (base.name + ".bin")):
        if path.is_file():
            total += path.stat().st_size
    return float(total)


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.task = None  # index of the task being timed; None records nothing
        self._local = threading.local()
        self._lock = threading.Lock()
        self._fork = None  # open thread-pool span, parent of worker-thread spans
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, layer, work=None, post=None, wait=False):
        def wrapper(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = Span(name, layer, stack[-1] if stack else self._fork, self.task, wait)
            if work is not None:
                span.work = work(args, kwargs)
            stack.append(span)
            if wait:
                outer, self._fork = self._fork, span
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if wait:
                    self._fork = outer
                with self._lock:
                    self.spans.append(span)
            if post is not None:
                span.work = post(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_task(self, index: int) -> None:
        self.task = index
        self._root = Span("task", None, None, index, False)
        self._root.start = perf_counter()
        self._stack().append(self._root)

    def end_task(self) -> None:
        self._root.end = perf_counter()
        self._stack().pop()
        self.spans.append(self._root)
        self.task = None

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper, callers) -> None:
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("metaplab") and mod not in callers:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self, callers=()) -> None:
        """Wrap the layers' public functions and the kernel calls everywhere they are bound.

        `callers` are further modules (the benchmark's own) whose bindings of
        library functions are wrapped too.
        """
        import metaplab._threads
        import metaplab.cli  # noqa: F401  (not imported by the package itself)

        for layer in LAYERS:
            mod = sys.modules[f"metaplab.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or f"{layer}.{name}" in UNWRAPPED:
                    continue
                work = post = None
                if (layer, name) == ("quantize", "weyl_4d"):
                    # the upsampled 4-D symbol: four times the symbol, complex128
                    work = lambda args, kwargs: 4.0 * 16.0 * np.size(args[0])
                elif (layer, name) == ("metaplectic", "generator_decompose"):
                    post = lambda args, chain: float(len(chain.generators))
                elif layer == "serial" and name in SERIAL_WRITERS:
                    post = lambda args, result: _written_bytes(args)
                self._rebind(fn, self.wrap(fn, f"{layer}.{name}", layer, work, post), callers)
        for name in FFTS + SHIFTS:
            fn = getattr(np.fft, name)
            work = (lambda args, kwargs, n=name: _fft_flops(n, args, kwargs)) if name in FFTS else None
            self._rebind(fn, self.wrap(fn, f"kernel.{name}", "kernel", work), (np.fft,))
        eigh = np.linalg.eigh
        self._rebind(eigh, self.wrap(eigh, "kernel.eigh", "kernel"), (np.linalg,))
        pool = metaplab._threads.thread_map
        self._rebind(pool, self.wrap(pool, "threads.thread_map", None, wait=True), ())

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def dump(self, path: Path) -> None:
        """Write the spans as [name, task, thread, start, end, parent index]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s.name, s.task, s.thread, s.start, s.end,
                 index.get(id(s.parent)) if s.parent is not None else None] for s in self.spans]
        path.write_text(json.dumps({"fields": ["name", "task", "thread", "start", "end", "parent"],
                                    "spans": rows}))


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: list[Span]) -> dict:
    """Seconds of self time per layer (key None: task time outside any layer)."""
    by_task = defaultdict(list)
    for s in spans:
        by_task[s.task].append(s)
    out = defaultdict(float)
    for task_spans in by_task.values():
        # at equal times: ends before starts, inner ends first, outer starts first
        events = [(s.start, 1, s.seq, s) for s in task_spans]
        events += [(s.end, 0, -s.seq, s) for s in task_spans]
        events.sort(key=lambda e: e[:3])
        open_by_thread: dict[int, list[Span]] = defaultdict(list)
        last = None
        for t, is_start, _, s in events:
            if last is not None and t > last:
                _attribute(open_by_thread, t - last, out)
            last = t
            if is_start:
                open_by_thread[s.thread].append(s)
            else:
                open_by_thread[s.thread].remove(s)
    return out


def _attribute(open_by_thread, dt: float, out) -> None:
    busy = [st[-1] for st in open_by_thread.values() if st and not st[-1].wait]
    if busy:
        for s in busy:
            out[s.layer] += dt / len(busy)
        return
    # only thread-pool waits are open: the time belongs to the pool's caller
    for st in open_by_thread.values():
        for s in reversed(st):
            if not s.wait:
                out[s.layer] += dt
                return


def _outermost(spans, name):
    return [s for s in spans if s.name == name and (s.parent is None or s.parent.name != name)]


UNITS = {"fft_gflops_computed": "GFLOP/s", "weyl_4d_bytes_computed": "MB", "bytes_written": "MB",
         "write_MBps": "MB/s", "self_share": "fraction"}


def unit_of(name: str) -> str:
    field = name.split(".", 1)[1]
    if field in UNITS:
        return UNITS[field]
    return "ms" if field.endswith("_ms") else "count"


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced run; counts and times are means per task."""
    roots = [s for s in spans if s.name == "task"]
    n_tasks = max(len(roots), 1)
    task_time = sum(s.end - s.start for s in roots) or 1.0
    own = self_times(spans)
    by_layer = defaultdict(list)
    for s in spans:
        by_layer[s.layer].append(s)

    def per_task_ms(selected):
        return 1e3 * sum(s.end - s.start for s in selected) / n_tasks

    def named(*names):
        return [s for s in spans if s.name in names]

    m = {}
    for layer in LAYERS + ("kernel",):
        m[f"{layer}.calls"] = len(by_layer[layer]) / n_tasks
        m[f"{layer}.self_ms"] = 1e3 * own[layer] / n_tasks
        m[f"{layer}.self_share"] = own[layer] / task_time
    ffts = named(*(f"kernel.{n}" for n in FFTS))
    fft_s = sum(s.end - s.start for s in ffts)
    m["kernel.fft_calls"] = len(ffts) / n_tasks
    m["kernel.fft_ms"] = per_task_ms(ffts)
    m["kernel.shift_ms"] = per_task_ms(named(*(f"kernel.{n}" for n in SHIFTS)))
    m["kernel.fft_gflops_computed"] = sum(s.work for s in ffts) / fft_s / 1e9 if fft_s else 0.0
    eighs = named("kernel.eigh")
    m["kernel.eigh_calls"] = len(eighs) / n_tasks
    m["kernel.eigh_ms"] = per_task_ms(eighs)
    weyl4 = named("quantize.weyl_4d")
    m["quantize.weyl_4d_ms"] = per_task_ms(weyl4)
    m["quantize.weyl_4d_bytes_computed"] = sum(s.work for s in weyl4) / n_tasks / 1e6
    m["quantize.pullback_ms"] = per_task_ms(_outermost(spans, "quantize.symbol_pullback"))
    m["metaplectic.decompose_ms"] = per_task_ms(named("metaplectic.generator_decompose"))
    applies = len(named("metaplectic.apply"))
    m["metaplectic.generators_per_apply"] = (
        len(named("metaplectic.apply_generator")) / applies if applies else 0.0)
    builds = named("schrodinger.hamiltonian_matrix")
    m["schrodinger.hamiltonian_builds"] = len(builds) / n_tasks
    # one Hamiltonian per task: eigendecompositions per task that built one
    hamiltonians = len({s.task for s in builds})
    m["schrodinger.eigh_per_hamiltonian"] = len(eighs) / hamiltonians if hamiltonians else 0.0
    m["serial.field_csv_ms"] = per_task_ms(named("serial.field_csv"))
    writes = named(*(f"serial.{n}" for n in SERIAL_WRITERS))
    written = sum(s.work for s in writes)
    write_s = sum(s.end - s.start for s in writes)
    m["serial.bytes_written"] = written / n_tasks / 1e6
    m["serial.write_MBps"] = written / write_s / 1e6 if write_s else 0.0
    m["gabor.gabor_matrix_ms"] = per_task_ms(named("gabor.gabor_matrix"))
    m["gabor.envelope_fit_ms"] = per_task_ms(named("gabor.envelope_fit"))
    m["exprparse.compile_ms"] = per_task_ms(named("exprparse.compile_expression"))
    return m
