"""Span tracing for the benchmark's traced runs.

The tracer wraps the public functions of the five ``vortex_atlas`` layers
from outside the package, so no source file changes.  Each wrapped call is
a span with a start, an end, the thread it ran on and its parent span.  A
span started on a worker thread with no open span of its own (the sweep
runs its rows on a thread pool) takes the innermost open span of the main
thread as its parent.  A span's self time is its duration minus the part
of it that the union of its child spans covers.

Spans are aggregated as they close: per name the call count and the self
time, and for a few names the per-call detail that the per-layer
metrics need (argument keys for distinct ratios, accepted steps, per-call
latency by ring size).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("core", "dynamics", "equilibria", "stability", "atlas")

# Methods the per-layer metrics name, wrapped on their class.
METHODS = {
    "core.with_positions": ("core", "Configuration", "with_positions"),
    "core.from_json": ("core", "Configuration", "from_json"),
    "core.from_mapping": ("core", "FamilyDescriptor", "from_mapping"),
    "dynamics.hessian_fd": ("dynamics", "MixedChart", "hessian_fd"),
    "dynamics.to_csv": ("dynamics", "Trajectory", "to_csv"),
}

# analyze latency is reported per ring-size band: N <= 3, 4..7, >= 8.
N_BANDS = (("n2_3", 2, 3), ("n4_7", 4, 7), ("n8_up", 8, 10**9))
TRAJECTORY_SIZES = (6, 12, 24)


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Recorder:
    """Aggregates of the spans closed during one pass of a workload."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.keys: defaultdict[str, set] = defaultdict(set)
        self.analyze_s: defaultdict[str, list[float]] = defaultdict(list)
        self.steps: Counter[int] = Counter()
        self.integrate_s: defaultdict[int, float] = defaultdict(float)
        self.threads: set[int] = set()
        # Timing group of the command running now; set by the benchmark.
        self.group = ""
        self.group_calls: Counter[str] = Counter()

    def close(self, name, start, end, children, args, result) -> None:
        duration = end - start
        own = duration - _union_length(children, start, end)
        first = args[0] if args else None
        with self.lock:
            self.calls[name] += 1
            self.self_s[name] += own
            self.threads.add(threading.get_ident())
            if name == "stability.analyze" and hasattr(first, "n_per_ring"):
                self.keys[name].add(first)
                self.keys[f"{name}.{self.group}"].add(first)
                self.group_calls[f"{name}.{self.group}"] += 1
                band = next(b for b, lo, hi in N_BANDS if lo <= first.n_per_ring <= hi)
                self.analyze_s[band].append(duration)
            elif name == "equilibria.branch_c2v_RmRmp_all" and first is not None:
                self.keys[name].add(float(first))
            elif name == "dynamics.integrate" and hasattr(result, "times"):
                m = len(first)
                self.steps[m] += len(result.times) - 1
                self.integrate_s[m] += duration

    def exact_counts(self) -> dict[str, int]:
        """The counts that must repeat exactly for the same inputs."""
        out = {f"calls.{k}": v for k, v in sorted(self.calls.items())}
        out.update({f"steps.m{m}": v for m, v in sorted(self.steps.items())})
        out.update({f"distinct.{k}": len(v) for k, v in sorted(self.keys.items())})
        return out

    def per_layer(self, threshold_rows: int) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json."""
        calls, self_s = self.calls, self.self_s

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out: dict[str, float] = {}
        for name in (
            "core.with_positions",
            "dynamics.hessian_fd",
            "equilibria.branch_c2v_RmRmp_all",
            "stability.analyze",
            "stability.analyze_small",
        ):
            out[f"{name}.calls"] = calls[name]
        for name in (
            "core.with_positions",
            "core.from_json",
            "core.from_mapping",
            "dynamics.to_csv",
            "dynamics.hessian_fd",
            "equilibria.make_family",
            "equilibria.ring_angular_velocity",
            "equilibria.branch_c2v_RmRmp_all",
            "equilibria.branch_c2v_RRp2p",
            "equilibria.configuration_angular_velocity",
            "stability.analyze_small",
            "stability.hessian_closed_form",
            "stability.slice_basis",
            "atlas.run_sweep",
            "atlas.build_diagram",
            "atlas.render_svg",
            "atlas.diagram_csv",
            "atlas.main",
        ):
            out[f"{name}.self_s"] = self_s[name]
        out["dynamics.integrate.steps"] = sum(self.steps.values())
        for m in TRAJECTORY_SIZES:
            out[f"dynamics.integrate.us_per_step.m{m}"] = 1e6 * ratio(
                self.integrate_s[m], self.steps[m]
            )
        for name, group in (
            ("equilibria.branch_c2v_RmRmp_all", ""),
            ("stability.analyze", ""),
            ("stability.analyze", "sweep"),
            ("stability.analyze", "thresholds"),
        ):
            key = f"{name}.{group}" if group else name
            out[f"{name}.distinct_ratio{'.' + group if group else ''}"] = ratio(
                len(self.keys[key]), (self.group_calls if group else calls)[key]
            )
        for band, _, _ in N_BANDS:
            samples = self.analyze_s[band]
            out[f"stability.analyze.calls.{band}"] = len(samples)
            for q, label in ((50, "p50"), (99, "p99")):
                out[f"stability.analyze.us_per_call.{label}.{band}"] = (
                    1e6 * _percentile(samples, q) if samples else 0.0
                )
        out["stability.list_transitions.calls_per_row"] = ratio(
            calls["stability.list_transitions"], threshold_rows
        )
        out["trace.spans"] = sum(calls.values())
        out["trace.threads"] = len(self.threads)
        return out


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if ".distinct_ratio" in name or name.endswith("_per_row"):
        return "ratio"
    return "count"


def _percentile(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Tracer:
    """Installs span wrappers on the package and routes spans to a recorder."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self._main = threading.main_thread()
        self._main_stack: list = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = (time.perf_counter(), [])
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    parent = stack[-1]
                elif stack is not self._main_stack and self._main_stack:
                    parent = self._main_stack[-1]
                else:
                    parent = None
                if parent is not None:
                    parent[1].append((frame[0], end))
                self.recorder.close(name, frame[0], end, frame[1], args, result)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {
            layer: importlib.import_module(f"vortex_atlas.{layer}") for layer in LAYERS
        }
        importers = list(modules.values()) + [importlib.import_module("vortex_atlas")]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    # CLI dispatch stays unwrapped so that atlas.main's self
                    # time holds argument parsing, formatting and file I/O.
                    or attr.startswith("cmd_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for importer in importers:
                    if importer.__dict__.get(attr) is fn:
                        self._set(importer, attr, traced)
        for name, (layer, cls_name, attr) in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def new_pass(self) -> Recorder:
        """Start a fresh recorder; return the one that was filling."""
        done, self.recorder = self.recorder, Recorder()
        return done
