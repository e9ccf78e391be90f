"""Span tracer that times calls into biham's modules from outside the program.

``Tracer.install()`` replaces every public function of the layer modules at
every module attribute that binds it (``spectral.biorthogonal_decompose``
also under ``continuum`` and ``canonical``, which import the name) with a
wrapper that records a span; ``uninstall()`` puts the originals back.  Spans
stay in memory as ``(name, start, end, parent, scenario)`` tuples indexed
by span id and are written out once, when the run ends.
"""

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "io", "spectral", "dynamics", "canonical", "lorentzian", "continuum")

# io.fmt formats one CSV cell and runs ~10^5-10^6 times per recorded
# trajectory; a span per cell would make the trace time itself.
UNTRACED = frozenset({"io.fmt"})


def _bytes_written(args):
    return os.path.getsize(args["path"])


def _rk4_steps(args):
    return args["steps"]


def _sweep_steps(args):
    return max(1, round(args["path"].T / args["dt"]))


# work counted where it happens, from the call's arguments after it returns:
# span name -> (counter, extractor)
COUNTERS = {
    "io.write_csv": ("io.bytes_written", _bytes_written),
    "io.write_json": ("io.bytes_written", _bytes_written),
    "dynamics.rk4_trajectory": ("dynamics.rk4_steps", _rk4_steps),
    "lorentzian.sweep_adiabatic": ("lorentzian.sweep_steps", _sweep_steps),
}


def layer_functions():
    """``{"layer.name": function}`` for every public function defined in a layer module."""
    targets = {}
    for layer in LAYERS:
        module = sys.modules[f"biham.{layer}"]
        for name, obj in vars(module).items():
            qualified = f"{layer}.{name}"
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__ and qualified not in UNTRACED):
                targets[qualified] = obj
    return targets


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.scenario = None
        self._stack = [-1]
        self._patched = []

    def _wrap(self, name, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(func) if counter else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.scenario)
            if counter:
                key, extract = counter
                self.counts[(self.scenario, key)] += extract(
                    signature.bind(*args, **kwargs).arguments)
            return result

        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = layer_functions()
        by_id = {id(func): (name, self._wrap(name, func)) for name, func in targets.items()}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "biham" or key.startswith("biham."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and value is targets[hit[0]]:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        """Write all spans as CSV: id, name, start, end, parent, scenario."""
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,scenario\n")
            for sid, (name, start, end, parent, scenario) in enumerate(self.spans):
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{scenario}\n")


def self_times(spans):
    """Per span id: duration minus the time covered by its child spans.

    Calls are synchronous, so children of one span never overlap and the
    covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[sid]
            for sid, (name, start, end, parent, _) in enumerate(spans)]
