"""Span tracing of drltrade from outside, by wrapping its public functions.

Each wrapped call records one span: name, start, end and the span that was
open when it began (its parent). Spans live in flat arrays in memory and are
written out once, at the end of a run. A function is patched at every name
that refers to it in any ``drltrade`` module, so a call is seen whichever
import path it was looked up through (``drltrade.agents.ppo.collect_rollout``
as well as ``drltrade.agents.buffers.collect_rollout``); methods are patched
on their class.

Span names start with the module name (``neural``, ``env``, ...), which is
what the per-module self-time shares group by.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span store plus the counters that wrapped calls report."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, classify=None, after=None):
        """Return fn wrapped to record a span.

        ``classify(args, kwargs)`` may pick the span name per call (returning a name
        id); ``after(args, kwargs, result)`` may update ``counts``.
        """
        nid = self.name_id(name)
        names, parents, stack = self.name, self.parent, self._stack
        starts, ends = self.start, self.end
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(classify(args, kwargs) if classify else nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch_function(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap ``module.attr`` at every drltrade name bound to the same object."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("drltrade"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, **hooks))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __len__(self) -> int:
        return len(self.start)

    def root_names(self) -> list[str]:
        """Names of the spans opened while no other span was open, in order."""
        roots = np.flatnonzero(np.frombuffer(self.parent, dtype=np.int32) < 0)
        return [self.names[self.name[i]] for i in roots]

    def aggregate(self, root_factors=None) -> dict[str, dict]:
        """Per span name: calls, total time and self time, in nanoseconds.

        Self time is a span's duration minus its children's durations (calls
        are single-threaded, so children never overlap each other). With
        ``root_factors``, one per root span in the order they were opened,
        every span's duration is multiplied by the factor of the root it sits
        in. Spans are stored in the order they open, so a root's descendants
        are the spans between it and the next root.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        if root_factors is not None:
            root = np.cumsum(parent < 0) - 1
            dur *= np.asarray(root_factors, dtype=np.float64)[root]
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        has_parent = parent >= 0
        child_time = np.bincount(name[parent[has_parent]], weights=dur[has_parent],
                                 minlength=n_names)
        return {
            nm: {"calls": int(calls[i]), "total_ns": float(total[i]),
                 "self_ns": float(total[i] - child_time[i])}
            for i, nm in enumerate(self.names)
        }

    def dump(self, path) -> None:
        """Write spans as gzipped CSV: name,parent,start_ns,end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,parent,start_ns,end_ns\n")
            for nid, par, s, e in zip(self.name, self.parent, self.start, self.end):
                fh.write(f"{self.names[nid]},{par},{s},{e}\n")
