"""In-memory span tracer that wraps audiomatch's public functions from outside.

Each wrapped call records a span: id, name, start, end, parent span,
request id and thread id, plus optional counts (bytes, rows).  A span
opened on a thread with no open span of its own (a featurize pool
thread) takes the innermost span open on the tracing thread, the
enclosing ``cli.main`` call, as its parent.  Nothing under ``src/``
changes: :meth:`Tracer.install` replaces each function at every module
attribute of the package that refers to it, so names imported with
``from .dsp import mel_spectrogram`` are traced as well.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

Counter = Callable[[tuple, dict, object], dict]


class Tracer:
    """Spans of the calls made while installed, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request: str = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str | Callable[[tuple], str], counter: Counter | None = None):
        """Return ``fn`` wrapped to record one span per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = tracer._owner_stack
                parent = owner[-1] if owner and stack is not owner else None
            span_id = next(tracer._ids)
            request = tracer.request
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            label = name(args) if callable(name) else name
            counts = counter(args, kwargs, result) if counter else None
            # One list.append per span: atomic under the interpreter lock,
            # so pool threads need no extra lock.
            tracer.spans.append(
                (span_id, label, start, end, parent, request, threading.get_ident(), counts)
            )
            return result

        return traced

    def install(self, package: str, targets: list[tuple]) -> None:
        """Wrap each ``(owner, attribute, span name, counter)`` target.

        Module functions are replaced at every attribute of every loaded
        ``package`` module that refers to them; methods on their class.
        """
        modules = [module for name, module in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for owner, attribute, name, counter in targets:
            original = getattr(owner, attribute)
            wrapper = self.wrap(original, name, counter)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def self_times(self) -> list[float]:
        """Per span, its duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span_id, _, start, end, parent, *_ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        result = []
        for span_id, _, start, end, *_ in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            result.append(end - start - covered)
        return result

    def layer_stats(self, traced_requests: int) -> dict[str, float]:
        """``<span name>.<stat>`` for every span name seen.

        ``self_s`` is self time per traced request, plus set-up self time
        once; ``p50_ms`` the median call duration; each count (``bytes``,
        ``rows``, ...) the median per call; ``calls`` the calls per traced request, plus
        set-up calls once.
        """
        groups: dict[str, list] = defaultdict(list)
        for span, self_s in zip(self.spans, self.self_times()):
            groups[span[1]].append((span, self_s))
        stats: dict[str, float] = {}
        for name, rows in groups.items():
            setup = [s for span, s in rows if span[5] == "setup"]
            in_requests = [s for span, s in rows if span[5] != "setup"]
            per_request = max(traced_requests, 1)
            stats[f"{name}.calls"] = len(setup) + len(in_requests) / per_request
            stats[f"{name}.self_s"] = sum(setup) + sum(in_requests) / per_request
            durations = [span[3] - span[2] for span, _ in rows]
            stats[f"{name}.p50_ms"] = statistics.median(durations) * 1e3
            for key in {key for span, _ in rows for key in span[7] or ()}:
                values = [span[7][key] for span, _ in rows if span[7] and key in span[7]]
                stats[f"{name}.{key}"] = statistics.median(values)
        return stats

    def write(self, path: Path) -> None:
        """Write one JSON line per span."""
        keys = ("id", "name", "start", "end", "parent", "request", "thread", "counts")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
