"""The sharded kernel fabric: N Scout kernels behind one RX boundary.

:class:`ShardedKernel` composes the pieces of this package into one
logical machine: a :class:`~repro.shard.dispatch.FlowDispatcher` peeks
each arriving frame's flow key and hands whole runs to per-shard
workers; every flow-keyed frame is *injected* into that shard's
fabric-owned :class:`~repro.faults.DropLedger` at dispatch and *closed*
only by the worker's acked fate — delivered-with-payload or an exact
drop category — so the fabric's books are end-to-end exact even across
process boundaries.

Two modes share every line of dispatch/ledger/merge logic:

* ``mode="threads"`` (default): workers are in-process
  :class:`~repro.shard.worker.ShardWorker` objects, each on its own
  virtual clock.  Fully deterministic — the tier-1 differential suite
  runs here.
* ``mode="process"``: each worker is a forked OS process served over
  ``multiprocessing`` rings with the compact codec.  Same fates, real
  parallelism — the scaling benchmark runs here.

Failover: a worker that dies mid-run (crash, or :meth:`kill_shard` in
the chaos suite) is detected at ack time; its outstanding serials are
ledgered ``shard_failover`` (never silently lost, never re-delivered —
exactly-once is preserved by *accounting* for the loss, not by hiding
it), and every flow it carried is re-pinned onto live shards.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..faults.adversary import DropLedger
from .books import FabricBooks
from .codec import encode_batch
from .dispatch import FlowDispatcher
from .worker import SHARD_FAILOVER, Fate, ShardSpec, ShardWorker, worker_main

__all__ = ["ShardedKernel"]

#: Seconds to wait for a process-mode ack before probing worker health.
_ACK_POLL_S = 0.5
#: Hard ceiling on ack waiting once the worker is known alive.
_ACK_TIMEOUT_S = 120.0


class _ProcessShard:
    """Ring endpoints plus the process handle for one forked worker."""

    __slots__ = ("process", "rx_ring", "tx_ring")

    def __init__(self, ctx, spec: ShardSpec):
        self.rx_ring = ctx.Queue()
        self.tx_ring = ctx.Queue()
        self.process = ctx.Process(
            target=worker_main, args=(spec, self.rx_ring, self.tx_ring),
            daemon=True, name=f"shard-{spec.shard_id}")
        self.process.start()


class ShardedKernel:
    """N Scout kernels, one flow-hash RX boundary, merged books."""

    def __init__(self, shards: int = 2, mode: str = "threads",
                 ports: Sequence[int] = (6100,),
                 batch: int = 8, inq_len: int = 64, outq_len: int = 64,
                 seed: int = 0, control_plane: bool = False):
        if mode not in ("threads", "process"):
            raise ValueError(f"unknown shard mode {mode!r}")
        self.shards = shards
        self.mode = mode
        self.dispatcher = FlowDispatcher(shards)
        #: Fabric-owned per-shard ledgers, local serials; merged books
        #: namespace them ``(shard_id, serial)``.
        self.ledgers: Dict[int, DropLedger] = {
            shard: DropLedger() for shard in range(shards)}
        self._serials: Dict[int, int] = {shard: 0 for shard in range(shards)}
        #: Flow key of every open serial, so delivered payloads can be
        #: appended to the right per-flow stream at settle time.  A
        #: serial's entry leaves with its fate.
        self._serial_flow: Dict[Tuple[int, int], bytes] = {}
        #: Delivered payload bytes per flow key, in delivery order — the
        #: differential-parity observable (byte-identical across modes
        #: and shard counts for the same seeded workload).
        self.flow_streams: Dict[bytes, List[bytes]] = {}
        self._specs = [
            ShardSpec(shard, seed=seed + shard, ports=ports, batch=batch,
                      inq_len=inq_len, outq_len=outq_len,
                      control_plane=control_plane)
            for shard in range(shards)]
        self._books: Dict[int, Any] = {}
        self._finished: Optional[FabricBooks] = None
        if mode == "threads":
            self.workers: Dict[int, ShardWorker] = {
                shard: ShardWorker(spec)
                for shard, spec in enumerate(self._specs)}
            self._procs: Dict[int, _ProcessShard] = {}
        else:
            # fork shares nothing mutable here (workers build their own
            # worlds post-fork) and starts ~50x faster than spawn.
            ctx = (mp.get_context("fork") if "fork" in mp.get_all_start_methods()
                   else mp.get_context())
            self.workers = {}
            self._procs = {shard: _ProcessShard(ctx, spec)
                           for shard, spec in enumerate(self._specs)}
        self._batch_id = 0

    # -- ingest ---------------------------------------------------------------

    def offer(self, frames: Sequence[bytes],
              metas: Optional[Sequence[Optional[dict]]] = None) -> List[Fate]:
        """Dispatch one frame run across the fabric and collect fates.

        Flow-keyed frames get a shard-local serial (injected into that
        shard's ledger) plus their flow key stamped into per-frame meta;
        the metas ride the ring, survive classification, and come back
        on every fate.  Non-flow frames (ARP, ICMP, fragments) are
        forwarded unledgered — the exactly-once books cover classified
        flow traffic.
        """
        if self._finished is not None:
            raise RuntimeError("fabric already finished")
        from ..core.flowcache import flow_key_frame
        runs = self.dispatcher.dispatch(frames, metas)
        sent: List[Tuple[int, int, List[int]]] = []
        all_fates: List[Fate] = []
        for shard in sorted(runs):
            shard_frames, shard_metas = runs[shard]
            serials: List[int] = []
            out_metas: List[Optional[dict]] = []
            for frame, meta in zip(shard_frames, shard_metas):
                key = flow_key_frame(bytes(frame))
                if key is None:
                    out_metas.append(dict(meta) if meta else None)
                    continue
                serial = self._serials[shard]
                self._serials[shard] = serial + 1
                self.ledgers[shard].inject(serial)
                self._serial_flow[(shard, serial)] = key
                serials.append(serial)
                stamped = dict(meta) if meta else {}
                stamped["shard_serial"] = serial
                stamped["flow"] = key
                out_metas.append(stamped)
            if self.mode == "threads":
                fates = self._feed_thread_worker(shard, shard_frames,
                                                 out_metas, serials)
            else:
                self._batch_id += 1
                self._procs[shard].rx_ring.put(
                    ("batch", self._batch_id,
                     encode_batch(shard_frames, out_metas)))
                sent.append((shard, self._batch_id, serials))
                continue
            all_fates.extend(self._settle(shard, serials, fates))
        for shard, batch_id, serials in sent:
            fates = self._await_fates(shard, batch_id, serials)
            all_fates.extend(self._settle(shard, serials, fates))
        return all_fates

    def _feed_thread_worker(self, shard: int, frames, metas,
                            serials: List[int]) -> List[Fate]:
        worker = self.workers.get(shard)
        if worker is None:  # killed in threads mode
            return self._failover(shard, serials)
        return worker.feed(frames, metas)

    def _await_fates(self, shard: int, batch_id: int,
                     serials: List[int]) -> List[Fate]:
        from queue import Empty
        from .codec import decode_fates
        proc = self._procs[shard]
        waited = 0.0
        while True:
            try:
                reply = proc.tx_ring.get(timeout=_ACK_POLL_S)
            except Empty:
                waited += _ACK_POLL_S
                if not proc.process.is_alive() or waited >= _ACK_TIMEOUT_S:
                    return self._failover(shard, serials)
                continue
            verb = reply[0]
            if verb == "fates" and reply[2] == batch_id:
                return decode_fates(reply[3])
            if verb == "error":
                return self._failover(shard, serials)
            # stale ack from a batch already settled via failover: drop.

    def _settle(self, shard: int, serials: List[int],
                fates: List[Fate]) -> List[Fate]:
        ledger = self.ledgers[shard]
        for serial, category, payload in fates:
            ledger.account(serial, category)
            flow = self._serial_flow.pop((shard, serial), None)
            if payload is not None and flow is not None:
                self.flow_streams.setdefault(flow, []).append(payload)
        return fates

    # -- failover --------------------------------------------------------------

    def _failover(self, shard: int, outstanding: List[int]) -> List[Fate]:
        """Handle a dead worker: re-pin its flows, fate its serials.

        Returns ``shard_failover`` fates for every un-acked serial; the
        caller settles them through the same path as real acks, so the
        ledger sees exactly one terminal state per serial either way.
        """
        orphaned_flows = self.dispatcher.mark_dead(shard)
        for key in sorted(orphaned_flows):
            self.dispatcher.shard_for_key(key)  # eager re-pin
        proc = self._procs.get(shard)
        if proc is not None and proc.process.is_alive():
            proc.process.terminate()
        return [(serial, SHARD_FAILOVER, None) for serial in outstanding]

    def kill_shard(self, shard: int) -> None:
        """Chaos hook: make a worker vanish mid-run.

        Threads mode drops the worker object (its next dispatch triggers
        the same failover path the process mode takes on a dead ring);
        process mode kills the OS process outright.
        """
        if self.mode == "threads":
            self.workers.pop(shard, None)
        else:
            self._procs[shard].process.kill()

    # -- rebalance -------------------------------------------------------------

    def rebalance(self, key: bytes, to_shard: int) -> None:
        """Move one flow to another shard: drain, invalidate, re-pin.

        The worker-side flow cache entry on the old shard is invalidated
        so a later return of the flow re-classifies from scratch; the
        dispatcher pin makes the move durable.  Safe between ``offer``
        calls — each call runs its shards to quiescence, so there is no
        in-flight traffic to strand.
        """
        if self._finished is not None:
            raise RuntimeError("fabric already finished")
        old = self.dispatcher.pins.get(key)
        if old is None:
            from .dispatch import shard_of
            old = shard_of(key, self.shards)
        if old != to_shard and old not in self.dispatcher.dead:
            if self.mode == "threads":
                worker = self.workers.get(old)
                if worker is not None:
                    worker.invalidate_flow(key)
            else:
                proc = self._procs[old]
                proc.rx_ring.put(("invalidate", key))
                self._await_control(old, "invalidated")
        self.dispatcher.repin(key, to_shard)

    def _await_control(self, shard: int, verb: str):
        from queue import Empty
        proc = self._procs[shard]
        try:
            reply = proc.tx_ring.get(timeout=_ACK_TIMEOUT_S)
        except Empty:
            return None
        return reply if reply[0] == verb else None

    # -- closing the books -----------------------------------------------------

    def finish(self) -> FabricBooks:
        """Stop every worker, collect books, merge, reconcile."""
        if self._finished is not None:
            return self._finished
        from queue import Empty
        for shard in range(self.shards):
            if shard in self._books or shard in self.dispatcher.dead:
                continue
            if self.mode == "threads":
                worker = self.workers.get(shard)
                if worker is not None:
                    self._books[shard] = worker.books()
            else:
                proc = self._procs[shard]
                if not proc.process.is_alive():
                    self.dispatcher.dead.add(shard)
                    continue
                proc.rx_ring.put(("stop",))
                try:
                    reply = proc.tx_ring.get(timeout=_ACK_TIMEOUT_S)
                    if reply[0] == "books":
                        self._books[shard] = reply[2]
                except Empty:
                    pass
                proc.process.join(timeout=10)
        # Every ledger participates in the merge — a dead shard's
        # pre-death deliveries and its failover serials are real history.
        # Per-shard kernel-sum reconciliation only runs where books
        # exist (a dead worker cannot testify).
        self._finished = FabricBooks(dict(self._books), dict(self.ledgers))
        return self._finished

    def __repr__(self) -> str:
        return (f"<ShardedKernel shards={self.shards} mode={self.mode} "
                f"dead={sorted(self.dispatcher.dead)}>")
