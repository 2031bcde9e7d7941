"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of the ``iarx`` modules from the
benchmark's side: each function is replaced wherever a caller looks it up
(the module that defines it and every ``iarx`` module that imported it by
name, e.g. ``iarx.pipeline.build_space``), and methods are replaced on their
class. The package itself is never edited.

A span is one call through a wrapped name: its name, start, end, the span
that was open when it began (its parent) and the benchmark op it belongs to.
Spans live in flat in-memory arrays and are written out once, when the run
ends. A span's self time is its duration minus the durations of its direct
children; calls are strictly nested in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

MODULES = ("data_io", "pattern_space", "model", "pipeline", "cli", "intervals")

# Every wrapped boundary, as ``<module>.<qualified name>``.
TRACED = (
    "data_io.synthesize",
    "data_io.load_csv",
    "pattern_space.fcm_cluster",
    "pattern_space.build_space",
    "pattern_space.PatternSpace.encode_series",
    "pattern_space.PatternSpace.classify",
    "model.fit",
    "model.fit_center",
    "model.fit_radius",
    "model.nnls",
    "model.build_regressors",
    "model.predict",
    "pipeline.fit_model",
    "pipeline.evaluate",
    "pipeline.sweep_cpms",
    "pipeline.robustness_experiment",
    "pipeline.forecast_series",
    "pipeline.forecast_step",
    "pipeline.rmse_from_records",
    "pipeline.write_trace_csv",
)

# Spans the benchmark opens itself: one CLI subprocess as seen from the
# parent, and ``cli.main`` inside that subprocess.
PROCESS_SPAN = "cli.process"
MAIN_SPAN = "cli.main"


def _unwrapped(fn):
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        # Interval constructions per op id.
        self.interval_calls: dict[int, int] = {}
        self._intervals = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -----------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self.name_id(name))
        try:
            yield sid
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid)

        return traced

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Replace every traced name where its callers look it up.

        A name that no longer exists is skipped, so a later refactor that
        removes a function reports zero calls instead of breaking the run.
        """
        modules = {m: importlib.import_module(f"iarx.{m}") for m in MODULES}
        for full in TRACED:
            module_name, qualname = full.split(".", 1)
            owner_name, _, attr = qualname.rpartition(".")
            home = modules[module_name]
            if owner_name:
                cls = getattr(home, owner_name, None)
                if cls is not None and attr in cls.__dict__:
                    self._patch(cls, attr, self._wrap(full, cls.__dict__[attr]))
                continue
            original = home.__dict__.get(attr)
            if original is None:
                continue
            target = _unwrapped(original)
            for module in modules.values():
                current = module.__dict__.get(attr)
                if current is not None and _unwrapped(current) is target:
                    self._patch(module, attr, self._wrap(full, current))

        interval_cls = modules["intervals"].Interval
        init = interval_cls.__dict__["__init__"]
        tracer = self

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            tracer._intervals += 1
            return init(obj, *args, **kwargs)

        self._patch(interval_cls, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextmanager
    def recording(self, op_id: int):
        """Install the wrappers for one op and attribute its spans to ``op_id``."""
        self.op_id = op_id
        self._intervals = 0
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            self.interval_calls[op_id] = self.interval_calls.get(op_id, 0) + self._intervals
            self._intervals = 0
            self.op_id = -1

    # -- persistence ---------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        arrays = self.arrays()
        arrays["intervals"] = np.array([sum(self.interval_calls.values())], dtype=np.int64)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    def merge(self, path, parent: int) -> None:
        """Append the spans another process saved, as children of span ``parent``."""
        with np.load(path) as doc:
            names = [str(n) for n in doc["names"]]
            remap = np.array([self.name_id(n) for n in names], dtype=np.int32)
            offset = len(self.start)
            parents = doc["parent"].astype(np.int64)
            parents = np.where(parents < 0, parent, parents + offset)
            count = doc["start"].size
            self.name.extend(remap[doc["name"]].tolist())
            self.parent.extend(parents.tolist())
            self.op.extend([self.op_id] * count)
            self.start.extend(doc["start"].tolist())
            self.end.extend(doc["end"].tolist())
            self._intervals += int(doc["intervals"][0])

    # -- aggregation ---------------------------------------------------

    def totals(self, op_ids) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, self seconds, inclusive seconds)`` summed over ``op_ids``."""
        a = self.arrays()
        count = a["start"].size
        if count == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=count)
        self_time = dur - child
        mask = np.isin(a["op"], np.asarray(list(op_ids), dtype=np.int32))
        names = a["name"][mask]
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        self_sum = np.bincount(names, weights=self_time[mask], minlength=width)
        incl_sum = np.bincount(names, weights=dur[mask], minlength=width)
        return {
            name: (int(calls[i]), float(self_sum[i]), float(incl_sum[i]))
            for i, name in enumerate(self.names)
        }
