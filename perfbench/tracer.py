"""Layer timings taken from outside the package.

A ``Tracer`` replaces public names at the point where their callers look them
up (a module global such as ``multigoal.pipeline.build_weight_matrix``, or a
class attribute such as ``GridMap.segment_clear``) with timing wrappers, and
puts every original back on ``restore``. Nothing is wrapped unless
``install`` is called, so an untraced run executes the package untouched.

Coarse layers record one span per call: name, start, end, parent span and
instance id. Hot kernels (``leaf`` wraps, called up to a million times per
run) record only per-layer call counts and times, so memory stays bounded;
their time still counts as child time of the enclosing span. A layer's self
time is its time minus the time of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Wrap:
    """One public name to time, as ``module:attr`` or ``module:Class.attr``."""

    target: str
    layer: str
    leaf: bool = False
    on_return: Callable | None = None  # (tracer, args, kwargs, result) -> None
    on_raise: Callable | None = None  # (tracer, args, kwargs, exc) -> None


def resolve(target: str):
    """(owner, attribute) for a target, or None when the name no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Spans and counters for the wrapped names, kept in memory until ``write_jsonl``."""

    def __init__(self, wraps):
        self.wraps = tuple(wraps)
        self.missing = sorted({w.target for w in self.wraps if resolve(w.target) is None})
        self.spans: list[tuple] = []  # (layer, start, end, parent span index, instance)
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # counters read from arguments and return values
        self.instance = -1
        self._stack: list[list] = []  # per open call: [span index or -1, child seconds]
        self._saved: list[tuple] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for w in self.wraps:
            found = resolve(w.target)
            if found is None:
                continue
            owner, attr = found
            # vars() keeps a class attribute's descriptor as stored, so the
            # restore puts back exactly what was there.
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(w, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, w: Wrap, fn):
        layer = w.layer
        leaf = w.leaf
        on_return = w.on_return
        on_raise = w.on_raise
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [-1, 0.0]
            if not leaf:
                frame[0] = len(spans)
                spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(layer, frame, parent, t0, clock())
                if on_raise is not None:
                    on_raise(self, args, kwargs, exc)
                raise
            self._close(layer, frame, parent, t0, clock())
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return wrapper

    def _close(self, layer, frame, parent, t0, t1):
        self._stack.pop()
        elapsed = t1 - t0
        if self._stack:
            self._stack[-1][1] += elapsed
        self.calls[layer] += 1
        self.total_s[layer] += elapsed
        self.self_s[layer] += elapsed - frame[1]
        if frame[0] >= 0:
            self.spans[frame[0]] = (layer, t0, t1, parent, self.instance)

    def write_jsonl(self, path, meta: dict) -> None:
        """Meta line, then one line per span, then one line per layer and counter."""
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(json.dumps({"meta": meta, "missing": self.missing}) + "\n")
            for layer, t0, t1, parent, instance in self.spans:
                f.write(
                    json.dumps(
                        {"span": layer, "start": t0, "end": t1, "parent": parent, "instance": instance}
                    )
                    + "\n"
                )
            for layer in sorted(self.calls):
                f.write(
                    json.dumps(
                        {
                            "layer": layer,
                            "calls": self.calls[layer],
                            "total_s": self.total_s[layer],
                            "self_s": self.self_s[layer],
                        }
                    )
                    + "\n"
                )
            for name in sorted(self.counts):
                f.write(json.dumps({"counter": name, "value": self.counts[name]}) + "\n")
