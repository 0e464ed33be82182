"""Pass-through timing wrappers around the program's layer entry points.

The traced run rebinds each entry point below to a wrapper that records
one span (name, start, end, parent span, op id) and calls the original.
Functions imported by name into other modules (``from repro.ef.bitstream
import extract_fields`` in ``repro.core.efg``) are rebound wherever they
are looked up: every loaded ``repro`` module attribute that *is* the
original object gets the wrapper.  Methods are rebound on the class that
defines them.  :meth:`Tracer.uninstall` puts every original back.

Spans live in memory and are written once, when the run ends.  A span's
self time is its duration minus the time its direct child spans cover;
calls nest strictly because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

#: (span name, module, attribute) of module-level functions.
FUNCTION_TARGETS = (
    ("datasets.generate", "repro.datasets.rmat", "rmat_graph"),
    ("core.efg_encode", "repro.core.efg", "efg_encode"),
    ("serve.container_save", "repro.serve.container", "save_container"),
    ("serve.container_open", "repro.serve.container", "open_container"),
    ("core.decode_lists", "repro.core.efg", "decode_lists"),
    ("ef.extract_fields", "repro.ef.bitstream", "extract_fields"),
    ("gpusim.stream_transfer_bytes", "repro.gpusim.cost", "stream_transfer_bytes"),
    ("traversal.driver", "repro.traversal.bfs", "bfs"),
    ("traversal.driver", "repro.traversal.msbfs", "msbfs"),
    ("traversal.driver", "repro.dist.bfs", "distributed_bfs"),
    ("dist.exchange", "repro.dist.exchange", "exchange"),
)

#: (span name, module, class, method names) of methods.
METHOD_TARGETS = (
    ("formats.csr_build", "repro.formats.csr", "CSRGraph", ("from_graph",)),
    ("backends.expand", "repro.traversal.backends", "GraphBackend", ("expand",)),
    ("backends.charge", "repro.traversal.backends", "GraphBackend",
     ("charge_cached_expand",)),
    ("backends.charge", "repro.traversal.backends", "CSRBackend", ("charge_expand",)),
    ("backends.charge", "repro.traversal.backends", "EFGBackend", ("charge_expand",)),
    ("gpusim.charge", "repro.gpusim.cost", "CostModel",
     ("charge", "charge_stream", "charge_cached")),
    ("listcache.probe", "repro.core.listcache", "DecodedListCache", ("probe",)),
    ("listcache.get_many", "repro.core.listcache", "DecodedListCache", ("get_many",)),
    ("listcache.put_many", "repro.core.listcache", "DecodedListCache", ("put_many",)),
    ("serve.submit", "repro.serve.service", "GraphService", ("submit",)),
    ("serve.step_wave", "repro.serve.service", "GraphService", ("step_wave",)),
    # The wire codec dist-bfs-2x4 runs.
    ("dist.wire", "repro.dist.wire", "EliasFanoCodec", ("encode", "decode")),
)

#: Span name for every public function of ``repro.primitives``.
PRIMITIVES_SPAN = "primitives"
#: Span name for every ``on_*`` lifecycle hook of ``ServiceTelemetry``.
TELEMETRY_SPAN = "telemetry"


def _primitive_targets():
    prims = importlib.import_module("repro.primitives")
    for attr in prims.__all__:
        fn = getattr(prims, attr)
        if callable(fn):
            yield PRIMITIVES_SPAN, fn.__module__, attr


def _telemetry_methods():
    cls = importlib.import_module("repro.serve.telemetry").ServiceTelemetry
    return tuple(n for n, v in vars(cls).items()
                 if n.startswith("on_") and callable(v))


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Span recorder plus the rebinding that feeds it."""

    def __init__(self) -> None:
        #: One tuple per finished call: (name, start_ns, end_ns, parent, op).
        self.spans: list = []
        #: Op id stamped on new spans (the benchmark sets it per op).
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        traced.perfbench_traced = True
        return traced

    def _rebind_function(self, name: str, module: str, attr: str) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = self._wrap(name, original)
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _rebind_method(self, name: str, cls, attr: str) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapper = staticmethod(self._wrap(name, raw.__func__))
        else:
            wrapper = self._wrap(name, raw)
        self._saved.append((cls, attr, raw))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        """Rebind every target to its timing wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, module, attr in (*FUNCTION_TARGETS, *_primitive_targets()):
            self._rebind_function(name, module, attr)
        for name, module, cls_name, attrs in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            for attr in attrs:
                self._rebind_method(name, cls, attr)
        telemetry = importlib.import_module("repro.serve.telemetry")
        for attr in _telemetry_methods():
            self._rebind_method(TELEMETRY_SPAN, telemetry.ServiceTelemetry, attr)

    def uninstall(self) -> None:
        """Restore every original binding, in reverse order."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    # -- analysis ------------------------------------------------------

    def totals(self, ops) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds over ``ops``."""
        ops = set(ops)
        covered = defaultdict(int)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        )
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in ops:
                continue
            row = out[name]
            row["calls"] += 1
            row["incl_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - covered[idx]) / 1e9
        return dict(out)

    def write(self, path) -> None:
        """Dump every span as one JSON line (times in ns)."""
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "op": op,
                }) + "\n")
