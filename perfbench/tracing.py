"""In-memory span recording around the program's public entry points.

The traced run installs wrappers as instance or module attributes from
here — nothing inside ``src/`` carries a span for the benchmark.  Each
span records its name, start, end, parent span and request id; a
layer's self time is its duration minus the time its direct children
cover (calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, request id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.request_id = 0
        self.results: dict[str, list] = defaultdict(list)

    # -- spans -------------------------------------------------------------------

    def span(self, name: str, fn, keep_result: bool = False):
        """``fn`` wrapped so each call records one span named ``name``.

        With ``keep_result`` the call's return value is appended to
        ``results[name]`` (work counts a layer returns).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [name, 0.0, 0.0, parent, self.request_id]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if keep_result:
                self.results[name].append(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def timed(self, name: str):
        """Record one span around a block under a fresh request id (the
        benchmark's own timed samples, which root each span tree)."""
        self.request_id += 1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.request_id]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # -- wrapper installation ------------------------------------------------------

    def install(self, owner, attr: str, name: str, keep_result: bool = False) -> None:
        """Wrap ``owner.attr`` (an instance or module attribute)."""
        previous = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, self.span(name, getattr(owner, attr), keep_result))
        self._installed.append((owner, attr, previous))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, previous = self._installed.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- analysis ------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return dict(totals)

    def write(self, path) -> None:
        """Write every span out as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "request"],
                    "spans": self.spans,
                },
                handle,
            )
