"""Span tracing of the spkdbn layers, installed from outside the package.

`Tracer.install` replaces every public function of the spkdbn modules
with a wrapper that records a span: an id, the id of the span that was
open when it was called, its name (`<module>.<function>`) and its start
and end on the monotonic clock, which all processes share.  A function
imported by name into another module (`cd1_step` in `udbn`,
`load_embeddings` in `cli`) is replaced there too, since that is where
the caller looks it up.

Spans are kept in memory until `flush` appends them to
`<spans_dir>/<pid>.jsonl`.  Workers of a `--jobs` process pool are forked
with the wrappers in place and inherit the stack of open spans, so their
spans name the stage span as parent; a process forked inside open spans
flushes by itself whenever it returns to that depth.  `collect` gathers
the files.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "spkdbn"


class Tracer:
    def __init__(self, spans_dir: str):
        self.spans_dir = spans_dir
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[int] = []
        self._count = 0
        self._id_base = os.getpid() << 32
        self._fork_depth = 0
        os.makedirs(spans_dir, exist_ok=True)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._id_base = os.getpid() << 32
        self._fork_depth = len(self._stack)

    def flush(self) -> None:
        path = os.path.join(self.spans_dir, f"{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in self.spans)
        self.spans = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._count += 1
            span_id = tracer._id_base | tracer._count
            stack = tracer._stack
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
                if stack and len(stack) == tracer._fork_depth:
                    tracer.flush()

        return traced

    def install(self) -> None:
        """Wrap the public functions of every loaded spkdbn module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])

    def collect(self) -> list[tuple[int, int | None, str, float, float]]:
        """The spans that forked processes have flushed; removes their files."""
        spans = []
        for entry in sorted(os.listdir(self.spans_dir)):
            path = os.path.join(self.spans_dir, entry)
            with open(path) as fh:
                spans.extend(tuple(json.loads(line)) for line in fh)
            os.remove(path)
        return spans


def self_time(span, children) -> float:
    """Span duration minus the part of it that its child spans cover."""
    _, _, _, start, end = span
    covered, reach = 0.0, start
    for c_start, c_end in sorted((c[3], c[4]) for c in children):
        if c_end > reach:
            covered += c_end - max(c_start, reach)
            reach = c_end
    return (end - start) - covered


def summarize(spans) -> dict:
    """Per-name totals over spans: '<name>_s' summed seconds, '<name>.calls'
    counts, '<name>.self_s' summed self time, and '<name><<caller>_s' /
    '<name><<caller>.calls' split by the name of the calling span."""
    names = {s[0]: s[2] for s in spans}
    children = defaultdict(list)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        span_id, parent, name, start, end = span
        out[f"{name}_s"] += end - start
        out[f"{name}.calls"] += 1
        out[f"{name}<{names.get(parent)}_s"] += end - start
        out[f"{name}<{names.get(parent)}.calls"] += 1
        if parent is not None:
            children[parent].append(span)
    for span in spans:
        out[f"{span[2]}.self_s"] += self_time(span, children[span[0]])
    return dict(out)
