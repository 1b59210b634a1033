"""Wall-clock spans around calls into the program's layers.

The tracer works from outside the program: :meth:`Tracer.install`
replaces the public entry points listed in :data:`ENTRY_POINTS` with
wrappers that record one span per call, and :meth:`Tracer.uninstall`
puts the originals back.  Nothing under ``src/`` knows it is traced.
Install before constructing the traced objects: a kernel binds its
receive handler, and a process-mode shard fabric forks its workers, at
construction time.

A span is ``[name, parent, step, items, start_ns, end_ns, fused]``:
``parent`` is the index of the enclosing span (``-1`` at top level),
``step`` the closed-loop step the span ran in (``-1`` outside the timed
region), ``items`` the frames or messages the call handled and
``fused`` (path spans only) how many of those the specialized tier ran.
Spans stay in memory until :meth:`Tracer.write` at the end of the run.

Forked shard workers inherit the wrappers.  Each child starts an empty
span list, and :meth:`Tracer.dump_worker` (hooked onto the worker's
book-closing call) writes the child's aggregates to a file that the
parent reads back with :func:`read_worker_dumps`.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from typing import Callable, Dict, List, Optional

#: Spans whose names share a layer: a span nested (at any depth) inside
#: another span of the same layer is not counted again in the layer's
#: inclusive time.
LAYER_OF = {"path.deliver_batch": "path.deliver"}


def _one(args) -> int:
    return 1


def _len_arg1(args) -> int:
    try:
        return len(args[1])
    except TypeError:
        return 0


def _len_arg0(args) -> int:
    try:
        return len(args[0])
    except TypeError:
        return 0


#: (module, attribute path, span name, items-of-call).  Attribute paths
#: with a dot are class methods; plain names are module globals, patched
#: in the module that calls them.
ENTRY_POINTS = (
    ("repro.kernel.scout", "ScoutKernel.rx_burst", "kernel.rx", _len_arg1),
    ("repro.kernel.scout", "ScoutKernel._rx", "kernel.rx", _one),
    ("repro.kernel.scout", "classify_batch", "classify", _len_arg1),
    ("repro.kernel.scout", "classify", "classify", _one),
    ("repro.core.queues", "PathQueue.try_enqueue", "queues.enqueue", _one),
    ("repro.core.queues", "PathQueue.try_enqueue_batch", "queues.enqueue",
     _len_arg1),
    ("repro.sim.world", "SimWorld.run_until_idle", "sim.run", _one),
    ("repro.sim.world", "SimWorld.run_for", "sim.run", _one),
    ("repro.core.path", "Path.deliver", "path.deliver", _one),
    ("repro.core.path", "Path.deliver_batch", "path.deliver_batch",
     _len_arg1),
    ("repro.mpeg.decoder", "MpegDecoder.feed", "mpeg.feed", _one),
    ("repro.net.segment", "EtherSegment.transmit", "net.transmit", _one),
    ("repro.shard.fabric", "ShardedKernel.offer", "shard.offer", _len_arg1),
    ("repro.shard.dispatch", "FlowDispatcher.dispatch", "shard.dispatch",
     _len_arg1),
    ("repro.shard.fabric", "encode_batch", "shard.codec", _len_arg0),
    ("repro.shard.codec", "decode_fates", "shard.codec", _one),
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: List[list] = []
        self.step = -1
        self._stack: List[int] = []
        self._undo: List[tuple] = []
        self._forked_hook = False

    # -- recording ------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, items_of: Callable) -> Callable:
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            spans = tracer.spans
            rec = [name, stack[-1] if stack else -1, tracer.step,
                   items_of(args), 0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[4] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()

        return traced

    def _wrap_path(self, name: str, fn: Callable,
                   items_of: Callable) -> Callable:
        inner = self._wrap(name, fn, items_of)
        tracer = self

        def traced(path, *args, **kwargs):
            before = path.specialized_msgs
            index = len(tracer.spans)
            try:
                return inner(path, *args, **kwargs)
            finally:
                tracer.spans[index][6] = path.specialized_msgs - before

        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, items_of in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module
            field = attr
            if "." in attr:
                cls_name, field = attr.split(".")
                owner = getattr(module, cls_name)
            original = owner.__dict__[field] if isinstance(owner, type) \
                else getattr(owner, field)
            wrap = self._wrap_path if name.startswith("path.") else self._wrap
            setattr(owner, field, wrap(name, original, items_of))
            self._undo.append((owner, field, original))
        from repro.shard.worker import ShardWorker
        books = ShardWorker.books
        tracer = self

        def books_and_dump(worker):
            result = books(worker)
            tracer.dump_worker(worker)
            return result

        ShardWorker.books = books_and_dump
        self._undo.append((ShardWorker, "books", books))
        if not self._forked_hook:
            os.register_at_fork(after_in_child=self._reset_in_child)
            self._forked_hook = True

    def uninstall(self) -> None:
        while self._undo:
            owner, field, original = self._undo.pop()
            setattr(owner, field, original)

    def _reset_in_child(self) -> None:
        self.spans = []
        self._stack = []
        self.step = -1

    # -- aggregation ------------------------------------------------------

    def aggregate(self, steps_only: bool = True) -> Dict[str, dict]:
        """Per span name: calls, items, fused, self and inclusive ns.

        Self time is a span's duration minus its children's; inclusive
        time and items count only spans with no ancestor of the same
        layer, so a layer's time is never counted twice.  With
        *steps_only* the spans outside the timed steps (set-up, warm-up)
        are left out.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[1] >= 0:
                child_ns[rec[1]] += rec[5] - rec[4]
        out: Dict[str, dict] = {}
        for index, rec in enumerate(spans):
            if steps_only and rec[2] < 0:
                continue
            name = rec[0]
            dur = rec[5] - rec[4]
            agg = out.get(name)
            if agg is None:
                agg = out[name] = {"calls": 0, "items": 0, "fused": 0,
                                   "self_ns": 0, "incl_ns": 0,
                                   "incl_items": 0, "negative_self": 0}
            agg["calls"] += 1
            agg["items"] += rec[3]
            agg["fused"] += rec[6]
            self_ns = dur - child_ns[index]
            agg["self_ns"] += self_ns
            if self_ns < 0:
                agg["negative_self"] += 1
            layer = LAYER_OF.get(name, name)
            parent = rec[1]
            while parent >= 0:
                pname = spans[parent][0]
                if LAYER_OF.get(pname, pname) == layer:
                    break
                parent = spans[parent][1]
            else:
                agg["incl_ns"] += dur
                agg["incl_items"] += rec[3]
        return out

    def write(self, path: str) -> None:
        """Write every span, one tab-separated line each."""
        with open(path, "w") as fh:
            fh.write("index\tname\tparent\tstep\titems\tstart_ns\tend_ns"
                     "\tfused\n")
            for index, rec in enumerate(self.spans):
                fh.write(f"{index}\t{rec[0]}\t{rec[1]}\t{rec[2]}\t{rec[3]}"
                         f"\t{rec[4]}\t{rec[5]}\t{rec[6]}\n")

    # -- forked shard workers ---------------------------------------------

    def dump_worker(self, worker) -> None:
        """Write a shard worker's span aggregates and kernel counters."""
        from workloads import kernel_counters
        record = {"layers": self.aggregate(steps_only=False),
                  "counters": kernel_counters(worker.kernel)}
        path = os.path.join(self.out_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(record, fh)


def read_worker_dumps(out_dir: str, pids) -> Optional[List[dict]]:
    """Read (and remove) the dumps written by the workers *pids*;
    ``None`` when any is missing."""
    dumps = []
    for pid in pids:
        path = os.path.join(out_dir, f"worker-{pid}.json")
        if not os.path.exists(path):
            return None
        with open(path) as fh:
            dumps.append(json.load(fh))
        os.remove(path)
    return dumps
