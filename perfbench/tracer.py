"""Span tracing of caliblab from outside the program.

``Tracer.install`` wraps every public function and every public method of a
public class defined in each module of the package, found by enumerating the
package, so a function added later is traced without editing this file.  It
also rebinds the copies that other modules imported by name (``from
.exterior import wedge`` leaves a second reference in ``variation``).
``uninstall`` restores the originals.  A span is recorded per call: the
function, its parent span, start and end (``perf_counter_ns``) and, where the
function takes quadrature nodes or a batch, a size.

Spans are kept in per-thread buffers in memory.  The CLI runs its jobs in a
thread pool whose threads start with no open span; their outermost spans are
attributed to the span open on the client thread at that moment, which with a
single client is the request in flight.  ``analyze`` turns the spans into
self and inclusive times:

* a span's self time is its duration minus the time its children cover;
  children on other threads are subtracted as the union of their intervals,
  so the client's wait on the pool is not self time;
* pool jobs that overlap in time share the overlapped wall: every span on a
  pool thread is scaled by (union of the pool spans the client span waited
  for) / (sum of their durations), so self times over all spans add up to
  the wall the requests took.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import threading
import time
from array import array

import numpy as np


class _Buffer:
    """Spans recorded by one thread, in start order.  ``parent`` is an index
    into this buffer; a pool thread's outermost spans have parent -1 and their
    parent on the client thread in ``adopted``."""
    __slots__ = ("no", "worker", "fid", "parent", "start", "end", "size", "stack",
                 "adopted", "cpu_ns")

    def __init__(self, no: int, worker: bool):
        self.no = no
        self.worker = worker
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.size = array("i")
        self.stack = []
        self.adopted = {}   # local index -> index of the client-thread parent
        self.cpu_ns = 0     # thread CPU inside outermost spans of a pool thread


class Tracer:
    """Wraps a package's public callables in spans; see the module doc."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []       # fid -> "layer.name" or "layer.Class.name"
        self.layers: list[str] = []      # fid -> layer (module short name)
        self.params: list[tuple] = []    # fid -> parameter names
        self.is_static: list[bool] = []
        self._buffers: dict[int, _Buffer] = {}
        self._all: list[_Buffer] = []
        self._main = None
        self._undo: list[tuple] = []

    # ------------------------------------------------------------------ install
    def modules(self):
        pkg = self.package
        return [importlib.import_module(f"{pkg.__name__}.{info.name}")
                for info in pkgutil.iter_modules(pkg.__path__)]

    def install(self) -> None:
        self._main = self._new_buffer(worker=False)
        modules = self.modules()
        wrapped = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif callable(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}", layer))
        for mod in [self.package] + modules:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, qual, layer, static=True))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, qual, layer))
            elif isinstance(raw, property) and raw.fget is not None:
                new = property(self._wrap(raw.fget, qual, layer), raw.fset, raw.fdel,
                               raw.__doc__)
            elif inspect.isfunction(raw):
                new = self._wrap(raw, qual, layer)
            else:
                continue
            self._set(cls, attr, new)

    def _wrap(self, fn, name: str, layer: str, static: bool = False):
        fid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.is_static.append(static)
        try:
            params = tuple(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = ()
        self.params.append(params)
        sizer = _sizer(name, params)
        buffers = self._buffers
        get_ident = threading.get_ident
        clock = time.perf_counter_ns
        thread_ns = time.thread_time_ns
        new_buffer = self._new_buffer
        main = self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffers.get(get_ident())
            if buf is None:
                buf = new_buffer(worker=True)
            stack = buf.stack
            i = len(buf.fid)
            pool_root = False
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                if buf.worker:
                    # a pool thread's outermost span belongs to the request in flight
                    buf.adopted[i] = main.stack[-1] if main.stack else -1
                    pool_root = True
            buf.fid.append(fid)
            buf.parent.append(parent)
            buf.size.append(sizer(args, kwargs) if sizer is not None else 0)
            buf.end.append(0)
            stack.append(i)
            if pool_root:
                cpu0 = thread_ns()
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[i] = clock()
                stack.pop()
                if pool_root:
                    buf.cpu_ns += thread_ns() - cpu0

        return traced

    def _new_buffer(self, worker: bool) -> _Buffer:
        buf = _Buffer(len(self._all), worker)
        self._all.append(buf)
        self._buffers[threading.get_ident()] = buf
        return buf

    # ------------------------------------------------------------------ analysis
    def spans(self) -> dict:
        """All spans as numpy columns, client thread first; ``parent`` indexes
        the same columns.  The per-thread buffers are released."""
        cols = {k: [] for k in ("fid", "parent", "start", "end", "size", "thread")}
        offset = 0
        for buf in self._all:
            n = len(buf.fid)
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            parent[parent >= 0] += offset
            for i, p in buf.adopted.items():
                parent[i] = p  # client-thread spans come first, at offset 0
            cols["parent"].append(parent)
            cols["fid"].append(np.frombuffer(buf.fid, dtype=np.int32).copy())
            cols["start"].append(np.frombuffer(buf.start, dtype=np.int64).copy())
            cols["end"].append(np.frombuffer(buf.end, dtype=np.int64).copy())
            cols["size"].append(np.frombuffer(buf.size, dtype=np.int32).copy())
            cols["thread"].append(np.full(n, buf.no, dtype=np.int32))
            offset += n
        pool_cpu_ns = sum(buf.cpu_ns for buf in self._all)
        self._all.clear()
        self._buffers.clear()
        out = {k: np.concatenate(v) if v else np.zeros(0, np.int64) for k, v in cols.items()}
        out["pool_cpu_ns"] = pool_cpu_ns
        return out

    @staticmethod
    def analyze(spans: dict) -> dict:
        """Self and inclusive time of every span, in ns (see the module doc)."""
        parent, thread = spans["parent"], spans["thread"]
        start, end = spans["start"], spans["end"]
        n = len(parent)
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        same = has_parent.copy()
        same[has_parent] = thread[parent[has_parent]] == thread[has_parent]
        self_ns = dur - np.bincount(parent[same], weights=dur[same], minlength=n)
        # outermost spans of pool threads, grouped by the client span that waited
        roots = np.flatnonzero(has_parent & ~same)
        by_adopter = {}
        for r in roots.tolist():
            by_adopter.setdefault(int(parent[r]), []).append(r)
        factor = np.ones(n)
        for adopter, rs in by_adopter.items():
            union = _union_length([(start[r], end[r]) for r in rs])
            total = float(dur[rs].sum())
            self_ns[adopter] -= union
            factor[rs] = union / total if total else 1.0
        if len(roots):
            # every span of a pool thread takes the factor of its outermost span;
            # each pool thread's buffer starts with an outermost span
            is_root = np.zeros(n, bool)
            is_root[roots] = True
            pool = thread != thread[0]
            owner = np.maximum.accumulate(np.where(is_root, np.arange(n), 0))
            factor[pool] = factor[owner[pool]]
            self_ns[pool] *= factor[pool]
        requests = {_request_of(parent, a) for a in by_adopter}
        return {"self_ns": self_ns, "inclusive_ns": dur * factor,
                "roots_ns": float(dur[~has_parent].sum()),
                "pool_wall_ns": float(sum(dur[r] for r in requests))}

    @staticmethod
    def busy_ns(spans: dict, inclusive, group: set) -> float:
        """Inclusive time of spans of ``group`` that have no ancestor in it."""
        fid, parent = spans["fid"], spans["parent"]
        in_group = np.isin(fid, list(group))
        idx = np.flatnonzero(in_group)
        nested = np.zeros(len(idx), bool)
        anc = parent[idx]
        while True:
            live = anc >= 0
            if not live.any():
                break
            nested[live] |= in_group[anc[live]]
            anc = np.where(live, parent[np.maximum(anc, 0)], -1)
        return float(inclusive[idx[~nested]].sum())

    def fids(self, predicate) -> set:
        return {f for f, name in enumerate(self.names) if predicate(name, f)}


def _request_of(parent, span: int) -> int:
    while parent[span] >= 0:
        span = int(parent[span])
    return span


def _union_length(intervals) -> int:
    total, cur_a, cur_b = 0, None, None
    for a, b in sorted(intervals):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _sizer(name: str, params: tuple):
    """Size of one call: rows for ``*_batch`` functions, quadrature nodes for
    functions taking ``nodes`` or a quadrature ``rule``."""
    if name.endswith("_batch") and params:
        pos = 1 if params[0] == "self" else 0
        key = params[pos] if pos < len(params) else None

        def rows(args, kwargs):
            a = args[pos] if len(args) > pos else kwargs.get(key)
            shape = getattr(a, "shape", None)
            return shape[0] if shape is not None and len(shape) >= 2 else 1

        return rows
    if "nodes" in params or "rule" in params:
        i_nodes = params.index("nodes") if "nodes" in params else None
        i_rule = params.index("rule") if "rule" in params else None

        def nodes(args, kwargs):
            pts = _arg(args, kwargs, i_nodes, "nodes")
            if pts is not None:
                return len(pts)
            rule = _arg(args, kwargs, i_rule, "rule")
            return len(rule.nodes) if rule is not None else 0

        return nodes
    return None


def _arg(args, kwargs, index, key):
    if index is None:
        return None
    if index < len(args):
        return args[index]
    return kwargs.get(key)
