"""In-memory spans around calls into the program's layers.

The benchmark never edits the program: a :class:`Tracer` swaps a layer's
public function (a module attribute or a class method) for a wrapper that
records one span per call and restores the original on
:meth:`Tracer.uninstall`.  Spans nest per thread, so a layer's *self
time* is its span's duration minus the time its child spans cover.
Everything stays in memory until :meth:`Tracer.dump` writes one JSON
file at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class NullTracer:
    """The untraced stand-in: same span interface, records nothing."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield attrs


class Tracer:
    """Span recorder.  Exact counts measured at a boundary ride on its
    span as ``attrs["counts"]``, so any subset of spans sums to
    consistent totals."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[tuple] = []

    # ------------------------------------------------------------- spans

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; yields a dict the caller may add attributes to."""
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "pid": os.getpid(),
                "thread": threading.get_ident(),
            }
            if attrs:
                record["attrs"] = attrs
            with self._lock:
                self.spans.append(record)

    # -------------------------------------------------------- installing

    def wrap(
        self,
        target: str,
        span: str,
        after: Optional[Callable] = None,
    ) -> None:
        """Wrap ``module:attr`` or ``module:Class.method`` in a span.

        ``after(result, args, kwargs)`` runs inside the span once the
        call returned and returns the counts to record on it (or None).
        """
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(span) as attrs:
                result = original(*args, **kwargs)
                if after is not None:
                    attrs["counts"] = after(result, args, kwargs)
                return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- analysis

    def dump(self, path, **extra) -> None:
        """Write spans, per-layer self times and counts as one JSON file."""
        payload = {
            **extra,
            "layers": layers(self.spans),
            "counts": counts(self.spans),
            "spans": self.spans,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")


# ---------------------------------------------------------------------------
# Analysis over span lists (from one process or several).


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def counts(spans: List[dict]) -> Dict[str, float]:
    """Sum of the counts recorded on ``spans``."""
    totals: Dict[str, float] = defaultdict(float)
    for s in spans:
        for name, value in (s.get("attrs", {}).get("counts") or {}).items():
            totals[name] += value
    return dict(totals)


def layers(spans: List[dict]) -> Dict[str, dict]:
    """Per span name: calls, total time and self time (duration minus the
    time covered by the span's children; children nest on one thread)."""
    child_time: Dict[tuple, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[(s["pid"], s["parent"])] += duration(s)
    out: Dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration(s)
        row["self_s"] += duration(s) - child_time[(s["pid"], s["id"])]
    return out


# ---------------------------------------------------------------------------
# The layer boundaries every process of the benchmark traces.


def cache_counts(counters: dict) -> Dict[str, float]:
    """The hit and miss counts of a ``ResultCache.counters()`` reading."""
    return {
        "harness.cache_hits": counters["hits"],
        "harness.cache_misses": counters["misses"],
    }


def _after_run_pair(result, args, kwargs):
    flows = (result.first, result.second)
    packets = sum(f.packets_sent for f in flows)
    cca = args[0].cca if args else kwargs["first"].cca
    return {
        "netsim.packets": packets,
        "netsim.retransmissions": sum(f.retransmissions for f in flows),
        f"cca.{cca}.packets": packets,
    }


def _after_sample_points(result, args, kwargs):
    return {"core.points": len(result)}


#: (target, span name, count hook) for every in-process layer boundary.
LAYER_BOUNDARIES = (
    ("repro.harness.runner:run_pair", "netsim.run_pair", _after_run_pair),
    ("repro.harness.runner:sample_points", "core.sample_points", _after_sample_points),
    ("repro.harness.conformance:evaluate_conformance", "core.evaluate_conformance", None),
    ("repro.store.warehouse:ResultStore.get_trial", "store.get_trial", None),
    ("repro.store.warehouse:ResultStore.put_trial", "store.put_trial", None),
    ("repro.store.warehouse:ResultStore.put_trials", "store.put_trials", None),
    ("repro.store.warehouse:ResultStore.record_measurement", "store.record_measurement", None),
)


def install_layers(tracer: Tracer) -> None:
    for target, span, after in LAYER_BOUNDARIES:
        tracer.wrap(target, span, after)
