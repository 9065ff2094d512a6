"""In-memory span tracing around the calls the pipeline makes into each layer.

Nothing in ``evc`` changes: ``instrument`` swaps the names that
``evc.harness`` and ``evc.cli`` imported from the layer modules for
wrappers that record a span per call, and puts the originals back on
exit.  A span's name is ``<layer>.<operation>``, the layer being the
``evc`` module the call goes into.  Spans are kept as parallel arrays and
written out once, when the run ends.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import evc.cli
import evc.harness


class Tracer:
    """Spans as parallel arrays of name id, start, end and parent index."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def begin(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(ident)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(index)
        return traced

    def summary(self, lo: int, hi: int) -> dict:
        """Per-name totals over spans [lo, hi), a closed subtree.

        Returns {name: (count, inclusive seconds, self seconds)}, where a
        span's self time is its duration minus its children's durations.
        """
        start = np.frombuffer(self.start[lo:hi], np.float64)
        end = np.frombuffer(self.end[lo:hi], np.float64)
        name = np.frombuffer(self.name[lo:hi], np.intc)
        parent = np.frombuffer(self.parent[lo:hi], np.intc) - lo
        dur = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested],
                               minlength=hi - lo)
        own = dur - children
        n = len(self.names)
        count = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        self_total = np.bincount(name, weights=own, minlength=n)
        return {self.names[i]: (int(count[i]), float(total[i]),
                                float(self_total[i]))
                for i in range(n) if count[i]}

    def dump(self, path) -> None:
        origin = self.start[0] if len(self) else 0.0
        with open(path, "w") as fp:
            json.dump({
                "names": self.names,
                "columns": ["name", "start_s", "end_s", "parent"],
                "spans": [[n, s - origin, e - origin, p] for n, s, e, p in
                          zip(self.name, self.start, self.end, self.parent)],
            }, fp)


@contextmanager
def instrument(tracer: Tracer):
    """Trace the layer calls of ``run_pipeline`` and ``evc play``."""
    harness, cli = evc.harness, evc.cli

    def make_feature_hook(make):
        def traced(detector, params, transcoder):
            return tracer.wrap("fastdet.hook",
                               make(detector, params, transcoder))
        return traced

    # A name that a refactor has removed stays untraced: its time then
    # shows up in the caller's self time instead of failing the run.
    replacements = {}
    for attr, methods in (
            ("Transcoder", (("__init__", "transcode.init"),
                            ("integrate_frame", "transcode.integrate_frame"),
                            ("flush_all", "transcode.flush_all"))),
            ("Detector", (("on_event", "fastdet.on_event"),))):
        base = getattr(harness, attr, None)
        if base is not None:
            replacements[harness, attr] = type(attr, (base,), {
                method: tracer.wrap(span, getattr(base, method))
                for method, span in methods if hasattr(base, method)})
    for module, attr, span in (
            (harness, "write_stream", "events.write_stream"),
            (harness, "build_adus", "compress.build_adus"),
            (harness, "encode_adu", "compress.encode_adu"),
            (harness, "write_payloads", "compress.write_payloads"),
            (harness, "read_compressed", "compress.read_compressed"),
            (harness, "reconstruct_at_boundaries",
             "reconstruct.reconstruct_at_boundaries"),
            (harness, "mse", "reconstruct.mse"),
            (harness, "psnr", "reconstruct.psnr"),
            (cli, "read_compressed", "compress.read_compressed"),
            (cli, "reconstruct_at_boundaries",
             "reconstruct.reconstruct_at_boundaries")):
        if hasattr(module, attr):
            replacements[module, attr] = tracer.wrap(span,
                                                     getattr(module, attr))
    if hasattr(harness, "make_feature_hook"):
        replacements[harness, "make_feature_hook"] = make_feature_hook(
            harness.make_feature_hook)
    original = {key: getattr(*key) for key in replacements}
    try:
        for (module, attr), value in replacements.items():
            setattr(module, attr, value)
        yield tracer
    finally:
        for (module, attr), value in original.items():
            setattr(module, attr, value)
