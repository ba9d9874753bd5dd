"""Spans around the program's layer entry points, recorded from outside.

``Tracer.install`` replaces each listed function, in every loaded
``spinlock`` module that binds it (``montecarlo`` binds ``phase_kernel`` by
name, ``cli`` binds ``load_config`` and ``synth_noise``), with a wrapper
that records a span: name, start, end, thread CPU time, parent span and run
id.  ``uninstall`` restores the originals.  A function that no longer
exists is skipped, so its metrics read 0 calls.  Spans stay in memory until
``write`` puts them in a JSON-lines file of their own.
"""
from __future__ import annotations

import importlib
import itertools
import json
import statistics
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

from workloads import Exact


def _n_of_state(args, kwargs, result):
    return {"n": args[0].n_atoms}


def _kernel_counts(args, kwargs, result):
    """Trig calls of the kernel contract and the bytes it reads and returns."""
    theta, a, b = args[0], args[1], args[2]
    eq23 = args[8] if len(args) > 8 else kwargs.get("eq23", False)
    samples = theta.shape[0]
    return {
        "trig": 2 * theta.size + (5 if eq23 else 2) * samples,
        "bytes": theta.nbytes + a.nbytes + b.nbytes + samples * 8,
    }


def _joint_dim(args, kwargs, result):
    return {"dim": (args[1] + 1) * (args[2] + 1)}


# (span name, module, attribute, attributes of a span)
LAYERS = (
    ("cli.main", "spinlock.cli", "main", None),
    ("cli.emit", "spinlock.cli", "emit", None),
    ("config.load_config", "spinlock.config", "load_config", None),
    ("noise.synth_noise", "spinlock.noise", "synth_noise", None),
    ("lockin.phase_kernel", "spinlock.lockin", "phase_kernel", None),
    ("montecarlo.curve", "spinlock.montecarlo", "contrast_curve",
     lambda a, k, r: {"threads": k.get("threads", 1)}),
    ("montecarlo.curve", "spinlock.montecarlo", "sensitivity_curve",
     lambda a, k, r: {"threads": k.get("threads", 1)}),
    ("montecarlo.fringe_contrast_mc", "spinlock.montecarlo", "fringe_contrast_mc", None),
    ("montecarlo.sample_thetas", "spinlock.montecarlo", "sample_thetas",
     lambda a, k, r: {"bytes": r.nbytes}),
    ("kernels.contrast_values", "spinlock.kernels", "contrast_values", _kernel_counts),
    ("dicke.schedule_expectations", "spinlock.dicke", "schedule_expectations",
     lambda a, k, r: {"n": a[0]}),
    ("dicke.build_collective_ops", "spinlock.dicke", "build_collective_ops",
     lambda a, k, r: {"n": a[0]}),
    ("dicke.evolve_unitary", "spinlock.dicke", "evolve_unitary", _n_of_state),
    ("dicke.expect", "spinlock.dicke", "expect", _n_of_state),
    ("dicke.full_space_oracle", "spinlock.dicke", "full_space_oracle", None),
    ("analytic.oracle_comparison", "spinlock.analytic", "oracle_comparison", None),
    ("squeezing.bch_error", "spinlock.squeezing", "bch_error", None),
    ("squeezing.u4_sequence", "spinlock.squeezing", "u4_sequence", _joint_dim),
    ("squeezing.effective_unitary", "spinlock.squeezing", "effective_unitary", _joint_dim),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, cpu, parent, run, attrs)
        self.run = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, fn, attrs):
        memory = name == "dicke.schedule_expectations"  # peak traced memory per call

        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool worker's first span belongs to the span that started the pool
            parent = stack[-1] if stack else (self._main_stack or [None])[-1]
            span_id = next(self._ids)
            stack.append(span_id)
            if memory:
                tracemalloc.start()
            start, cpu = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end, cpu = time.perf_counter(), time.thread_time() - cpu
                stack.pop()
            extra = attrs(args, kwargs, result) if attrs else {}
            if memory:
                extra["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.spans.append((span_id, name, start, end, cpu, parent, self.run, extra))
            return result

        return traced

    def install(self, run: str) -> None:
        self.run = run
        for name, module, attr, attrs in LAYERS:
            try:
                original = getattr(importlib.import_module(module), attr, None)
            except ImportError:
                continue
            if original is None:
                continue
            wrapper = self._wrap(name, original, attrs)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "spinlock":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "cpu", "parent", "run", "attrs")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _pass_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    wall = {s[0]: s[3] - s[2] for s in spans}
    child_wall: dict = defaultdict(float)
    for s in spans:
        child_wall[s[5]] += wall[s[0]]
    by_name: dict = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)

    def calls(name):
        return len(by_name[name])

    def total(name, where=lambda s: True, self_time=False):
        return sum(
            wall[s[0]] - (child_wall[s[0]] if self_time else 0.0)
            for s in by_name[name]
            if where(s)
        )

    def per_call(name, scale, **kw):
        n = calls(name)
        return total(name, **kw) * scale / n if n else 0.0

    def attr_sum(name, key):
        return sum(s[7].get(key, 0) for s in by_name[name])

    points = by_name["montecarlo.fringe_contrast_mc"]
    capacity = sum(s[7]["threads"] * wall[s[0]] for s in by_name["montecarlo.curve"])
    m = {
        "lockin.phase_kernel.us_per_call": per_call("lockin.phase_kernel", 1e6),
        "lockin.phase_kernel.calls": calls("lockin.phase_kernel"),
        "montecarlo.sample_thetas.us_per_call": per_call("montecarlo.sample_thetas", 1e6),
        "montecarlo.sample_thetas.calls": calls("montecarlo.sample_thetas"),
        "montecarlo.sample_thetas.bytes_computed": attr_sum("montecarlo.sample_thetas", "bytes"),
        "kernels.contrast_values.us_per_call": per_call("kernels.contrast_values", 1e6),
        "kernels.contrast_values.calls": calls("kernels.contrast_values"),
        "kernels.contrast_values.trig_evals": attr_sum("kernels.contrast_values", "trig"),
        "kernels.contrast_values.bytes_computed": attr_sum("kernels.contrast_values", "bytes"),
        "montecarlo.fringe_contrast_mc.self_us_per_call": per_call(
            "montecarlo.fringe_contrast_mc", 1e6, self_time=True
        ),
        "montecarlo.curve.busy_ratio": sum(s[4] for s in points) / capacity if capacity else 0.0,
        "config.load_config.ms_per_call": per_call("config.load_config", 1e3),
        "cli.emit.ms_per_call": per_call("cli.emit", 1e3),
        "cli.main.self_ms": per_call("cli.main", 1e3, self_time=True),
        "noise.synth_noise.ms_per_call": per_call("noise.synth_noise", 1e3),
        "dicke.evolve_unitary.calls": calls("dicke.evolve_unitary"),
        "dicke.full_space_oracle.ms_per_call": per_call("dicke.full_space_oracle", 1e3),
        "analytic.oracle_comparison.us_per_call": per_call("analytic.oracle_comparison", 1e6),
        "analytic.oracle_comparison.calls": calls("analytic.oracle_comparison"),
    }
    for n in Exact.dicke_atoms:
        at_n = lambda s, n=n: s[7].get("n") == n
        for layer in ("build_collective_ops", "evolve_unitary", "expect"):
            m[f"dicke.{layer}.s.n{n}"] = total(f"dicke.{layer}", where=at_n)
        peaks = [s[7]["peak_bytes"] for s in by_name["dicke.schedule_expectations"] if at_n(s)]
        m[f"dicke.peak_mb.n{n}"] = max(peaks, default=0) / 2**20
    for d in Exact.bch_dims():
        for layer in ("u4_sequence", "effective_unitary"):
            name = f"squeezing.{layer}"
            n = sum(1 for s in by_name[name] if s[7]["dim"] == d)
            m[f"{name}.ms.dim{d}"] = total(name, where=lambda s: s[7]["dim"] == d) * 1e3 / n if n else 0.0
    return m


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Median over traced passes (spans grouped by run id) of each figure."""
    runs: dict = defaultdict(list)
    for s in spans:
        runs[s[6]].append(s)
    per_pass = [_pass_metrics(group) for group in runs.values()] or [_pass_metrics([])]
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
