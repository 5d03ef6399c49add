"""Spans around the public calls into each layer, recorded from outside.

The program is not edited: :meth:`Tracer.install` wraps the layer entry
points named in :data:`LAYER_CALLS` on their classes and :meth:`uninstall`
puts the originals back, so traced and untraced rounds can alternate in one
process.  A span is ``(parent, name, start_ns, end_ns)`` kept in flat arrays;
a call returning an iterator gets one span per ``next()``, because that is
where a lazy layer does its work.  A layer's self time is its spans'
duration minus the time covered by their child spans.
"""

from __future__ import annotations

import array
import importlib
import json
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Tuple

# (module, class, attribute, span name, "call" | "iter")
LAYER_CALLS: List[Tuple[str, str, str, str, str]] = [
    ("repro.chunking.fixed", "StaticChunker", "cut_offsets", "chunking.cut_offsets", "iter"),
    ("repro.chunking.accel", "AcceleratedGearChunker", "cut_offsets", "chunking.cut_offsets", "iter"),
    ("repro.fingerprint.fingerprinter", "Fingerprinter", "fingerprint_blocks", "fingerprint.fingerprint_blocks", "iter"),
    ("repro.core.partitioner", "StreamPartitioner", "partition_file_records", "core.partition", "iter"),
    ("repro.cluster.cluster", "DedupeCluster", "route_superchunk", "routing.route", "call"),
    ("repro.transport.cluster", "TransportCluster", "route_superchunk", "routing.route", "call"),
    ("repro.cluster.cluster", "DedupeCluster", "backup_superchunk", "cluster.store", "call"),
    ("repro.transport.cluster", "TransportCluster", "backup_superchunk_send", "cluster.store", "call"),
    ("repro.cluster.cluster", "DedupeCluster", "read_chunks", "cluster.read_chunks", "call"),
    ("repro.transport.cluster", "TransportCluster", "read_chunks", "cluster.read_chunks", "call"),
    ("repro.node.dedupe_node", "DedupeNode", "backup_superchunk", "node.backup_superchunk", "call"),
    ("repro.parallel.shm", "PendingChunkFile", "wait", "parallel.lane_wait", "call"),
    ("repro.transport.cluster", "PendingCall", "result", "transport.rpc_wait", "call"),
    ("repro.transport.cluster", "NodeProxy", "send", "transport.send", "call"),
]


class Tracer:
    """In-memory span recorder for the main thread."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.parent = array.array("i")
        self.name = array.array("h")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack: List[int] = [-1]
        self._main = threading.get_ident()
        self._originals: List[Tuple[type, str, Any]] = []
        self.rpc_ops: Counter = Counter()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        if threading.get_ident() != self._main:
            return -1
        span = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(span)
        return span

    def finish(self, span: int) -> None:
        if span < 0:
            return
        self.end[span] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, self.name_id(name))

    # ------------------------------------------------------------------ #
    # installing the layer wrappers
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        for module_name, class_name, attr, span_name, kind in LAYER_CALLS:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[attr]
            self._originals.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, self.name_id(span_name), kind, attr))

    def uninstall(self) -> None:
        while self._originals:
            cls, attr, original = self._originals.pop()
            setattr(cls, attr, original)

    def _wrap(self, original: Callable, name_id: int, kind: str, attr: str) -> Callable:
        tracer = self
        if kind == "iter":
            def traced_iter(*args: Any, **kwargs: Any) -> Iterator:
                return _TracedIterator(tracer, name_id, original(*args, **kwargs))
            return traced_iter
        count_ops = attr == "send"

        def traced_call(*args: Any, **kwargs: Any) -> Any:
            if count_ops:
                tracer.rpc_ops[args[1]] += 1
            span = tracer.begin(name_id)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.finish(span)
        return traced_call

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #

    def summarize(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, inclusive ``total_s`` and ``self_s``."""
        count = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(count)]
        covered = [0] * count
        parent = self.parent
        for index in range(count):
            owner = parent[index]
            if owner >= 0:
                covered[owner] += durations[index]
        summary: Dict[str, Dict[str, float]] = {
            name: {"count": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for index in range(count):
            entry = summary[self.names[self.name[index]]]
            entry["count"] += 1
            entry["total_s"] += durations[index] / 1e9
            entry["self_s"] += (durations[index] - covered[index]) / 1e9
        return summary

    def dump(self, prefix: str) -> None:
        """Write the spans: ``<prefix>.json`` (names, layout) and
        ``<prefix>.bin`` (the parent, name, start and end arrays, in turn)."""
        with open(prefix + ".bin", "wb") as handle:
            for column in (self.parent, self.name, self.start, self.end):
                column.tofile(handle)
        with open(prefix + ".json", "w") as handle:
            json.dump(
                {
                    "spans": len(self.start),
                    "names": self.names,
                    "columns": [["parent", "i"], ["name", "h"], ["start_ns", "q"], ["end_ns", "q"]],
                },
                handle,
            )


class _Span:
    __slots__ = ("_tracer", "_name_id", "_span")

    def __init__(self, tracer: Tracer, name_id: int):
        self._tracer = tracer
        self._name_id = name_id
        self._span = -1

    def __enter__(self) -> None:
        self._span = self._tracer.begin(self._name_id)

    def __exit__(self, *exc: object) -> None:
        self._tracer.finish(self._span)


class _TracedIterator:
    __slots__ = ("_tracer", "_name_id", "_inner")

    def __init__(self, tracer: Tracer, name_id: int, inner: Iterator):
        self._tracer = tracer
        self._name_id = name_id
        self._inner = inner

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self) -> Any:
        span = self._tracer.begin(self._name_id)
        try:
            return next(self._inner)
        finally:
            self._tracer.finish(span)
