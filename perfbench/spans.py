"""Per-layer spans for the traced benchmark run.

The traced run wraps the layer-boundary functions of pcdl from the outside:
no file of the program changes. harness, schemes, mc_oracle and cli bind
their callees with `from ... import`, so every pcdl module global that holds
the original function object is replaced by the wrapper, not only the
defining module's attribute.

Each call records one span (layer, parent span, start, end) in memory. A
layer's self time is its span's duration minus the durations of its direct
child spans; functions that are not wrapped count toward their caller.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time

import numpy as np

# (module, function, metric prefix). The prefix drops the leading underscore
# of `_kernels`, since metric names start with a letter.
LAYERS = (
    ("cli", "main", "cli.main"),
    ("harness", "run_sweep", "harness.run_sweep"),
    ("harness", "write_sweep_csv", "harness.write_sweep_csv"),
    ("geometry", "build_scenario", "geometry.build_scenario"),
    ("estimation", "compute_alpha", "estimation.compute_alpha"),
    ("estimation", "crandn", "estimation.crandn"),
    ("rate_core", "effective_gain", "rate_core.effective_gain"),
    ("rate_core", "power_decomposition", "rate_core.power_decomposition"),
    ("rate_core", "link_budget", "rate_core.link_budget"),
    ("schemes", "sym_rate_tin", "schemes.sym_rate_tin"),
    ("schemes", "sym_rate_sd", "schemes.sym_rate_sd"),
    ("schemes", "sym_rate_snd", "schemes.sym_rate_snd"),
    ("schemes", "sym_rate_pd", "schemes.sym_rate_pd"),
    ("mc_oracle", "verification_rows", "mc_oracle.verification_rows"),
    ("mc_oracle", "empirical_moments", "mc_oracle.empirical_moments"),
    ("_kernels", "mrt_chunk", "kernels.mrt_chunk"),
    ("_kernels", "zf_chunk", "kernels.zf_chunk"),
)


def _normals(args, kwargs, result):
    shape = kwargs.get("shape", args[1] if len(args) > 1 else None)
    return 2 * math.prod(np.atleast_1d(shape).tolist())


def _kernel_bytes(args, kwargs, result):
    return sum(a.nbytes for a in list(args) + list(kwargs.values())
               if isinstance(a, np.ndarray))


def _trials(args, kwargs, result):
    return kwargs["trials"] if "trials" in kwargs else args[5]


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])


# Work counted at a boundary: (metric, layer prefix, count from the call).
# kernels.bytes_in_computed is the size of the kernel's array arguments,
# computed from their shapes, not a measured memory traffic.
COUNTERS = (
    ("estimation.crandn.normals", "estimation.crandn", _normals),
    ("kernels.bytes_in_computed", "kernels.mrt_chunk", _kernel_bytes),
    ("kernels.bytes_in_computed", "kernels.zf_chunk", _kernel_bytes),
    ("mc_oracle.trials", "mc_oracle.empirical_moments", _trials),
    ("harness.write_sweep_csv.bytes", "harness.write_sweep_csv", _csv_bytes),
)

# Layers that only route a job to the others: `cli.main` spans a whole sweep
# and `verification_rows` a whole oracle combo. Their self time is the part
# of a job the named work layers leave unexplained.
GLUE = ("cli.main", "mc_oracle.verification_rows")

PER_LAYER_UNITS = {
    **{f"{p}.calls": "count" for _, _, p in LAYERS},
    **{f"{p}.self_s": "s" for _, _, p in LAYERS},
    "estimation.crandn.normals": "count",
    "kernels.bytes_in_computed": "bytes",
    "mc_oracle.trials": "count",
    "harness.write_sweep_csv.bytes": "bytes",
    "trace.job_s": "s",
    "trace.unaccounted_s": "s",
    "trace.spans": "count",
}


class Tracer:
    """Span recorder for one job at a time; `install` wraps the layers."""

    def __init__(self):
        self.spans: list = []  # [prefix, parent index, start, end]
        self.counts: dict = {}
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, prefix, fn, counters):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [prefix, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            for metric, count in counters:
                counts[metric] = counts.get(metric, 0) + count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, _, _ in LAYERS:
            importlib.import_module(f"pcdl.{mod_name}")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "pcdl" or n.startswith("pcdl."))]
        for mod_name, fn_name, prefix in LAYERS:
            original = getattr(sys.modules[f"pcdl.{mod_name}"], fn_name)
            counters = [(m, c) for m, p, c in COUNTERS if p == prefix]
            wrapper = self._wrap(prefix, original, counters)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._restore.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def job_metrics(self, job_s: float) -> dict:
        """Per-layer calls, self times and counts of the job just traced."""
        child = [0.0] * len(self.spans)
        for prefix, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {f"{p}.calls": 0 for _, _, p in LAYERS}
        out.update({f"{p}.self_s": 0.0 for _, _, p in LAYERS})
        out.update({m: 0 for m, _, _ in COUNTERS})
        work_self = 0.0
        for (prefix, _, t0, t1), c in zip(self.spans, child):
            self_s = (t1 - t0) - c
            out[f"{prefix}.calls"] += 1
            out[f"{prefix}.self_s"] += self_s
            if prefix not in GLUE:
                work_self += self_s
        out.update(self.counts)
        out["trace.job_s"] = job_s
        # outside every span, or in glue code: not in a named work layer
        out["trace.unaccounted_s"] = job_s - work_self
        out["trace.spans"] = len(self.spans)
        return out

    def write_jsonl(self, path, origin: float) -> None:
        """Write the recorded spans, one JSON list per line:
        [layer, parent line (0-based, -1 for none), start_s, end_s], with
        times relative to `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            for prefix, parent, t0, t1 in self.spans:
                fh.write(f'["{prefix}", {parent}, {t0 - origin!r}, {t1 - origin!r}]\n')
