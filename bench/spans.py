"""In-memory span recorder that wraps the program's public functions from
outside the program.

A target such as "pso.substream" is replaced, in every emu_roster module that
binds the same function object, by a wrapper that records one span per call:
name, start, end, parent span, op id and flags. The program looks these names
up at call time, so calls made inside the library are recorded too. Targets
that do not exist (renamed or removed by a later version) simply record no
calls. Spans are kept in flat arrays and written out once, at the end.
"""

from __future__ import annotations

import array
import functools
import importlib
import sys
import time
from contextlib import contextmanager

import numpy as np

RAISED = 1  # the call ended in an exception
GUIDED = 2  # build_cycle called with a proposal (a swarm decode)

OP = "op"


def _build_cycle_flags(args, kwargs) -> int:
    proposal = kwargs["proposal"] if "proposal" in kwargs else (args[4] if len(args) > 4 else None)
    return GUIDED if proposal is not None else 0


FLAGGERS = {"constructor.build_cycle": _build_cycle_flags}


class SpanRecorder:
    def __init__(self, targets: list[str]):
        self.names = [OP, *targets]
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.flags = array.array("B")
        self._stack: list[int] = []
        self._op_id = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        self._resolve(targets)

    def _resolve(self, targets: list[str]) -> None:
        modules = [m for k, m in sys.modules.items() if k == "emu_roster" or k.startswith("emu_roster.")]
        for idx, target in enumerate(targets, start=1):
            mod_name, _, attr = target.rpartition(".")
            original = getattr(importlib.import_module(f"emu_roster.{mod_name}"), attr, None)
            if not callable(original):
                self.missing.append(target)
                continue
            wrapper = self._wrap(idx, original, FLAGGERS.get(target))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, wrapper))

    def _open(self, idx: int, flags: int) -> int:
        sid = len(self.start)
        self.name.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.flags.append(flags)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, idx: int, fn, flagger):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(idx, flagger(args, kwargs) if flagger else 0)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.flags[sid] |= RAISED
                raise
            finally:
                self._close(sid)

        return wrapper

    @contextmanager
    def installed(self):
        """Route the program's calls through the wrappers for the block."""
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)
        try:
            yield self
        finally:
            for module, key, original, _ in self._patches:
                setattr(module, key, original)

    @contextmanager
    def op_span(self, op_id: int):
        """Top-level span of one op; every span opened inside carries op_id."""
        self._op_id = op_id
        sid = self._open(0, 0)
        try:
            yield
        finally:
            self._close(sid)
            self._op_id = -1

    def table(self) -> dict[str, np.ndarray]:
        """Columns as arrays, plus each span's duration and self time (the
        duration minus the durations of its direct children)."""
        cols = {
            key: np.asarray(getattr(self, key), dtype=np.float64 if key in ("start", "end") else np.int64)
            for key in ("name", "start", "end", "parent", "op", "flags")
        }
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        cols["dur"] = dur
        cols["self"] = dur - child
        return cols

    def write(self, path, t0: float) -> None:
        """Spans as compressed NumPy arrays (one row per span, the row number
        is the span id), times relative to t0; `names` decodes `name`."""
        cols = {key: np.asarray(getattr(self, key)) for key in ("name", "parent", "op", "flags")}
        cols["start"] = np.asarray(self.start) - t0
        cols["end"] = np.asarray(self.end) - t0
        np.savez_compressed(path, names=np.array(self.names), **cols)
