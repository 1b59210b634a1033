"""The stable public facade: ``import repro.api`` and stop there.

Everything an application, example, or experiment script needs lives in
this module's ``__all__``: the :class:`Scout` kernel entry, the fluent
:class:`PathBuilder` (replacing hand-built attribute dicts), the
result-returning :func:`classify`, path creation, multipath groups and
pools, the experiment testbed, and the names the bundled examples use.
The deep modules (``repro.core``, ``repro.net``, ...) remain importable —
they are the implementation surface and may reorganize between releases;
this facade is the surface that holds still.  A name the facade does
not export is an :class:`AttributeError`; import it from its layer.
"""

from __future__ import annotations

import asyncio
from typing import Any, Mapping, Optional, Tuple

from . import params
from .admission import (
    BackpressureShedder,
    CpuAdmission,
    FrameCostModel,
    MemoryAdmission,
)
from .core import (
    BWD,
    BWD_IN,
    BWD_OUT,
    FWD,
    FWD_IN,
    FWD_OUT,
    PA_BATCH,
    PA_FRAME_RATE,
    PA_INQ_LEN,
    PA_MEM_BUDGET,
    PA_NET_PARTICIPANTS,
    PA_OUTQ_LEN,
    PA_PATHNAME,
    PA_SCHED_POLICY,
    PA_SCHED_PRIORITY,
    PA_TRACE,
    SOURCE_CACHE,
    SOURCE_DEMUX,
    SOURCE_GROUP,
    AdmissionError,
    Attrs,
    ClassificationError,
    ClassifierStats,
    ClassifyResult,
    FlowCache,
    flow_key,
    flow_key_frame,
    Msg,
    MsgBatch,
    Path,
    PathQueue,
    RouterGraph,
    ScoutError,
    build_graph,
    classify_batch,
    classify_ex,
    classify_or_raise,
    path_create,
    path_delete,
)
from .core.attributes import as_attrs
from .core.path_create import AdmissionHook
from .display import DisplayRouter
from .experiments import Testbed, frames_budget, run_edf_rr
from .faults import (
    AdversaryInjector,
    AdversarySpec,
    ArrivalEnvelope,
    DegradationGovernor,
    DropLedger,
    FaultyLink,
    PathWatchdog,
    StabilityVerdict,
    StageFault,
    StageFaultInjector,
    VerdictEngine,
    profile,
)
from .fs import ScsiRouter, UfsRouter, VfsRouter
from .http import HttpRouter
from .kernel import LinuxKernel, RouterKernel, ScoutKernel
from .mpeg import CANYON, FLOWER, NEPTUNE, PAPER_CLIPS, synthesize_clip
from .multipath import PathGroup, PathPool
from .shard import FabricBooks, ShardBooks, ShardedKernel
from .net import (
    IPPROTO_TCP,
    IPPROTO_UDP,
    PA_LOCAL_PORT,
    ArpRouter,
    EthAddr,
    EthRouter,
    EtherSegment,
    ForwardRouter,
    IpAddr,
    IpHeader,
    IpRouter,
    Route,
    RouteTable,
    TcpHeader,
    TcpRouter,
    UdpHeader,
    UdpRouter,
    build_udp_frame,
    parse_frame,
)
from .topo import HostNode, Inventory, ProvisionedPath, Topology
from .net.sockdev import SocketNetDevice
from .observe import Observatory, StarvationDetector
from .observe.wallclock import WallClockBridge
from .sim import SimWorld
from .sim.aio import AioExecutor, AioWorld
from .sim.world import POLICY_EDF, POLICY_RR

#: Result-returning classification is the facade's canonical spelling:
#: ``classify(...)`` here yields a :class:`ClassifyResult` whose ``path``
#: may be ``None`` and whose ``source`` says who decided (demux chain,
#: flow-cache probe, group re-dispatch).  The historical path-returning
#: form survives as :func:`repro.core.classify.classify` and, raising,
#: as :func:`classify_or_raise`.
classify = classify_ex


class PathBuilder:
    """Fluent path construction: invariants in, established path out.

    Replaces hand-built :class:`Attrs` dicts::

        path = (PathBuilder(graph.router("TEST"))
                .invariant(PA_NET_PARTICIPANTS, ("10.0.0.2", 7000))
                .invariant(PA_LOCAL_PORT, 6100)
                .trace(observatory)
                .build())

    Each call returns the builder, so chains read as the attribute set
    they produce; :meth:`build` runs the ordinary four-phase
    :func:`path_create` with whatever transforms/admission hooks were
    attached.  A builder is single-shot per :meth:`build` call but may be
    reused — later builds see the same accumulated invariants.
    """

    def __init__(self, router: Any, transforms: Any = None,
                 admission: Optional[AdmissionHook] = None):
        self._router = router
        self._attrs = Attrs()
        self._transforms = transforms
        self._admission = admission

    def invariant(self, name: str, value: Any = True) -> "PathBuilder":
        """Add one invariant attribute (``PA_*`` name -> value)."""
        self._attrs[name] = value
        return self

    def invariants(self, mapping: Optional[Mapping[str, Any]] = None,
                   **named: Any) -> "PathBuilder":
        """Add several invariants at once (a mapping and/or keywords)."""
        if mapping is not None:
            for name, value in as_attrs(mapping).items():
                self._attrs[name] = value
        for name, value in named.items():
            self._attrs[name] = value
        return self

    def participants(self, host: Any, port: int) -> "PathBuilder":
        """Shorthand for the ``PA_NET_PARTICIPANTS`` invariant."""
        return self.invariant(PA_NET_PARTICIPANTS, (str(host), int(port)))

    def local_port(self, port: int) -> "PathBuilder":
        return self.invariant(PA_LOCAL_PORT, int(port))

    def trace(self, observatory: Any = True) -> "PathBuilder":
        """Arm per-path observability (``PA_TRACE``); pass the
        :class:`Observatory` to use, or ``True`` to let the kernel
        substitute its own."""
        return self.invariant(PA_TRACE, observatory)

    def batch(self, limit: int) -> "PathBuilder":
        """Let the path's thread drain up to *limit* messages per
        scheduler dispatch (``PA_BATCH``, DESIGN.md §13)."""
        return self.invariant(PA_BATCH, int(limit))

    def admission(self, hook: Optional[AdmissionHook]) -> "PathBuilder":
        """Gate :meth:`build` through an admission hook (or ``None``)."""
        self._admission = hook
        return self

    def transforms(self, registry: Any) -> "PathBuilder":
        """Apply *registry*'s transformation rules at build time."""
        self._transforms = registry
        return self

    def attrs(self) -> Attrs:
        """The invariant set accumulated so far (live, not a copy)."""
        return self._attrs

    def build(self) -> Path:
        """Run four-phase path creation and return the established path."""
        return path_create(self._router, self._attrs,
                           transforms=self._transforms,
                           admission=self._admission)

    def __repr__(self) -> str:
        return (f"<PathBuilder {getattr(self._router, 'name', self._router)!r} "
                f"attrs={len(self._attrs)}>")


#: Backend / executor choices the facade resolves (DESIGN.md §18).
BACKENDS = ("sim", "socket")
EXECUTORS = ("sim", "asyncio")

#: Resolved construction modes.
_MODE_FABRIC = "fabric"
_MODE_SIM = "sim"
_MODE_AIO = "aio"
_MODE_SOCKET = "socket"


def _resolve_backend(backend: str, executor: str,
                     shards: Optional[int]) -> str:
    """The one decision point for every Scout construction shape.

    Validates the ``backend`` × ``executor`` × ``shards`` combination
    and returns the construction mode; every rejection is a
    :class:`ScoutError` that names the offending knob and the supported
    values, replacing the ad-hoc ``RuntimeError`` guards this facade
    used to scatter.
    """
    if backend not in BACKENDS:
        raise ScoutError(
            f"unknown backend {backend!r}: choose 'sim' (simulated "
            f"device, the tier-1 default) or 'socket' (real UDP "
            f"loopback sockets)")
    if executor not in EXECUTORS:
        raise ScoutError(
            f"unknown executor {executor!r}: choose 'sim' "
            f"(deterministic virtual-time scheduler, the tier-1 "
            f"default) or 'asyncio' (wall-clock task executor)")
    if shards is not None and shards < 1:
        raise ScoutError(f"shards must be >= 1, got {shards}")
    if shards is not None and shards > 1:
        if backend != "sim" or executor != "sim":
            raise ScoutError(
                f"Scout(shards={shards}) is the deterministic fabric: "
                f"it requires backend='sim' and executor='sim' (got "
                f"backend={backend!r}, executor={executor!r}); run one "
                f"wall-clock kernel per process instead")
        return _MODE_FABRIC
    if backend == "socket":
        if executor != "asyncio":
            raise ScoutError(
                "backend='socket' requires executor='asyncio': real "
                "arrivals cannot be replayed by the deterministic "
                "virtual-time scheduler; pass executor='asyncio' (and "
                "drive it with 'async with Scout(...) as s: await "
                "s.serve()')")
        return _MODE_SOCKET
    if executor == "asyncio":
        return _MODE_AIO
    return _MODE_SIM


class Scout:
    """One booted Scout machine, on virtual or wall-clock time.

    The three-line entry point the facade promises::

        with Scout(seed=7) as scout:
            scout.kernel.start_video(NEPTUNE, ("10.0.0.2", 7000))
            scout.run(5.0)

    By default this wraps a :class:`~repro.sim.SimWorld`, an
    :class:`~repro.net.EtherSegment` and a
    :class:`~repro.kernel.ScoutKernel` — the deterministic tier-1
    configuration.  Two orthogonal knobs select the wall-clock edge
    (DESIGN.md §18):

    ``executor='asyncio'``
        The same kernel and thread bodies, driven by
        :class:`~repro.sim.aio.AioExecutor` as asyncio tasks; queue
        blocking awaits real arrivals, cycle accounting still fills the
        virtual books (read them against real time via
        :meth:`wallclock`).

    ``backend='socket'``
        Frames arrive from a real UDP socket
        (:class:`~repro.net.sockdev.SocketNetDevice`) instead of the
        simulated segment; requires ``executor='asyncio'``::

            async with Scout(backend="socket", executor="asyncio") as s:
                s.kernel.start_udp_sink(6100, ("10.0.0.2", 7000))
                s.add_peer("10.0.0.2", "02:00:00:00:00:02", sender_addr)
                await s.serve(seconds=1.0)

    ``shards=N`` (N > 1) selects the deterministic fabric of
    DESIGN.md §17; it composes with neither wall-clock knob.  All
    combinations resolve through :func:`_resolve_backend`, which rejects
    unsupported shapes with a :class:`ScoutError` naming the fix.
    Keyword arguments flow through to the kernel (admission hooks,
    flow-cache capacity, display mode, ...).  For multi-host simulated
    scenarios use :class:`Testbed`.
    """

    def __init__(self, seed: int = 0,
                 bandwidth_mbps: float = params.ETH_BANDWIDTH_MBPS,
                 latency_us: float = params.ETH_LINK_LATENCY_US,
                 shards: Optional[int] = None,
                 backend: str = "sim",
                 executor: str = "sim",
                 host: str = "127.0.0.1",
                 port: int = 0,
                 rx_ring: int = 512,
                 pace: float = 0.0,
                 **kernel_kwargs: Any):
        mode = _resolve_backend(backend, executor, shards)
        self.backend = backend
        self.executor = executor
        self.fabric: Optional[Any] = None
        self.world = None
        self.segment = None
        self.kernel = None
        self.device: Optional[SocketNetDevice] = None
        self.bridge: Optional[WallClockBridge] = None
        self._books = None
        self._closed = False
        if mode == _MODE_FABRIC:
            # Sharded machine: N kernels behind one flow-hash RX
            # boundary (DESIGN.md §17).  Keyword arguments flow to
            # :class:`~repro.shard.ShardedKernel` (mode=, ports=,
            # batch=, ...); drive it with :meth:`offer` and close with
            # :meth:`merged_books`.
            self.fabric = ShardedKernel(shards=shards, seed=seed,
                                        **kernel_kwargs)
            return
        if mode in (_MODE_AIO, _MODE_SOCKET):
            self.world = AioWorld(seed=seed, pace=pace)
            # The vsync loop needs a pumped virtual engine, which the
            # asyncio executor does not provide; wall-clock kernels run
            # headless unless the caller insists.
            kernel_kwargs.setdefault("display", False)
        else:
            self.world = SimWorld(seed=seed)
        if mode == _MODE_SOCKET:
            mac = kernel_kwargs.get("local_mac", "02:00:00:00:00:01")
            self.device = SocketNetDevice(mac, host=host, port=port,
                                          rx_ring=rx_ring)
            kernel_kwargs.setdefault("udp_sink", True)
            self.kernel = ScoutKernel(self.world, None, device=self.device,
                                      **kernel_kwargs)
            self.device.bind_metrics(self.kernel.observatory.metrics)
        else:
            self.segment = EtherSegment(self.world.engine,
                                        bandwidth_mbps=bandwidth_mbps,
                                        latency_us=latency_us,
                                        rng=self.world.rng)
            self.kernel = ScoutKernel(self.world, self.segment,
                                      **kernel_kwargs)
        if mode in (_MODE_AIO, _MODE_SOCKET):
            self.bridge = WallClockBridge(self.world.cpu)
            self.bridge.bind_metrics(self.kernel.observatory.metrics)

    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        self._require_single_kernel("now")
        return self.world.now

    def run(self, seconds: float) -> None:
        """Advance virtual time by *seconds* (deterministic executor)."""
        self._require_single_kernel("run")
        if self.executor != "sim":
            raise ScoutError(
                "run() advances virtual time, which the asyncio "
                "executor does not replay: use 'await serve(...)' / "
                "'await settle()' inside 'async with Scout(...)'")
        self.world.run_for(seconds * 1_000_000.0)

    def _require_single_kernel(self, what: str) -> None:
        if self.fabric is not None:
            raise ScoutError(
                f"Scout(shards=N) is a fabric: {what} belongs to the "
                f"single-kernel form; use offer()/merged_books() or the "
                f"fabric attribute")

    def _require_aio(self, what: str) -> None:
        self._require_single_kernel(what)
        if self.executor != "asyncio":
            raise ScoutError(
                f"{what} needs executor='asyncio': the deterministic "
                f"executor is driven synchronously via run()")

    # -- wall-clock lifecycle ---------------------------------------------------

    async def start(self) -> None:
        """Open the backend and start the asyncio executor (idempotent)."""
        self._require_aio("start")
        if self.device is not None:
            await self.device.open()
        if self.bridge is not None and not self.bridge.running():
            self.bridge.start()
        await self.world.executor.start()

    async def serve(self, seconds: Optional[float] = None,
                    batch: int = 64) -> None:
        """Pump the backend until *seconds* elapse (or, with ``None``,
        until the device is closed), then drain the kernel.

        Socket backend: awaits bursts from the device's receive ring
        and hands them to ``kernel.rx_burst`` — the same interrupt-time
        classify/admit boundary the simulated device feeds.  Simulated
        backend: equivalent to :meth:`settle`.
        """
        self._require_aio("serve")
        await self.start()
        if self.device is None:
            await self.world.executor.drain()
            return
        loop = asyncio.get_running_loop()
        deadline = None if seconds is None else loop.time() + seconds
        while self.device.is_open or self.device.pending():
            if deadline is not None:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                timeout: Optional[float] = remaining
            else:
                timeout = None
            frames = await self.device.next_burst(limit=batch,
                                                  timeout=timeout)
            if frames:
                self.kernel.rx_burst(frames)
                await asyncio.sleep(0)
        await self.world.executor.drain()

    async def settle(self) -> None:
        """Run the asyncio executor until every path thread is parked."""
        self._require_aio("settle")
        await self.world.executor.drain()

    async def aclose(self) -> None:
        """Close the device and cancel the executor's tasks."""
        self._require_aio("aclose")
        if self._closed:
            return
        self._closed = True
        if self.device is not None:
            self.device.close()
        await self.world.executor.close()

    async def __aenter__(self) -> "Scout":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    # -- sync lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release whatever this Scout holds (idempotent).

        Fabric form: stops the workers and caches the reconciled books
        for :meth:`merged_books`.  Simulated single-kernel form: a
        definite end for ``with Scout(...)`` scripts.  The asyncio
        forms close via :meth:`aclose` (``async with``).
        """
        if self._closed:
            return
        self._closed = True
        if self.fabric is not None:
            self._books = self.fabric.finish()
        if self.device is not None:
            self.device.close()

    def __enter__(self) -> "Scout":
        if self.executor == "asyncio":
            raise ScoutError(
                "executor='asyncio' has an async lifecycle: use "
                "'async with Scout(...) as s'")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- wall-clock bookkeeping -------------------------------------------------

    def wallclock(self) -> dict:
        """One :class:`~repro.observe.wallclock.WallClockBridge`
        snapshot: real seconds vs virtual CPU seconds charged."""
        self._require_aio("wallclock")
        return self.bridge.snapshot()

    def add_peer(self, ip: Any, mac: Any,
                 address: Optional[Tuple[str, int]] = None) -> None:
        """Teach the kernel a neighbour: ARP entry (IP -> MAC) plus,
        on the socket backend, the MAC -> UDP address mapping."""
        self._require_single_kernel("add_peer")
        self.kernel.arp.add_entry(IpAddr(ip), EthAddr(mac))
        if address is not None:
            if self.device is None:
                raise ScoutError(
                    "add_peer(address=...) maps a MAC to a UDP "
                    "address, which only backend='socket' uses")
            self.device.add_peer(mac, address)

    # -- sharded form ----------------------------------------------------------

    def offer(self, frames, metas=None):
        """Feed one frame run through the shard fabric's RX boundary."""
        if self.fabric is None:
            raise ScoutError("offer() needs Scout(shards=N)")
        return self.fabric.offer(frames, metas)

    def merged_books(self):
        """Stop the fabric's workers and return the reconciled
        :class:`~repro.shard.FabricBooks`."""
        if self.fabric is None:
            raise ScoutError("merged_books() needs Scout(shards=N)")
        if self._books is None:
            self._closed = True
            self._books = self.fabric.finish()
        return self._books

    def path(self, router: Any) -> PathBuilder:
        """A :class:`PathBuilder` rooted at *router*, pre-wired with the
        kernel's transformation rules and admission hook.  Works under
        either executor: path creation is synchronous in both."""
        self._require_single_kernel("path")
        return PathBuilder(router, transforms=self.kernel.transforms,
                           admission=self.kernel.admission)

    def stats(self) -> dict:
        self._require_single_kernel("stats")
        return self.kernel.stats()

    def __repr__(self) -> str:
        if self.fabric is not None:
            return f"<Scout fabric {self.fabric!r}>"
        tag = f"backend={self.backend} executor={self.executor}"
        if self.executor == "sim":
            return (f"<Scout {self.kernel.ip.addr} {tag} "
                    f"t={self.world.now:.0f}us>")
        return f"<Scout {self.kernel.ip.addr} {tag}>"


__all__ = [
    # entry points
    "Scout", "PathBuilder", "Testbed", "ScoutKernel", "LinuxKernel",
    "SimWorld", "EtherSegment", "Observatory",
    # wall-clock edge (backend/executor selection, DESIGN.md §18)
    "BACKENDS", "EXECUTORS", "AioWorld", "AioExecutor",
    "SocketNetDevice", "WallClockBridge",
    # multi-hop forwarding & the discovery control plane
    "Topology", "ProvisionedPath", "HostNode", "Inventory",
    "RouterKernel", "ForwardRouter", "Route", "RouteTable",
    # path architecture
    "path_create", "path_delete", "build_graph", "RouterGraph",
    "Attrs", "Msg", "MsgBatch", "Path", "PathQueue", "FlowCache",
    "FWD", "BWD", "FWD_IN", "FWD_OUT", "BWD_IN", "BWD_OUT",
    # classification
    "classify", "classify_ex", "classify_batch", "classify_or_raise",
    "ClassifyResult", "ClassifierStats",
    "SOURCE_DEMUX", "SOURCE_CACHE", "SOURCE_GROUP",
    # multipath
    "PathGroup", "PathPool",
    # shard fabric
    "ShardedKernel", "FabricBooks", "ShardBooks", "flow_key",
    "flow_key_frame",
    # attributes
    "PA_NET_PARTICIPANTS", "PA_LOCAL_PORT", "PA_PATHNAME", "PA_FRAME_RATE",
    "PA_SCHED_POLICY", "PA_SCHED_PRIORITY", "PA_INQ_LEN", "PA_OUTQ_LEN",
    "PA_MEM_BUDGET", "PA_TRACE", "PA_BATCH",
    # scheduling policies
    "POLICY_RR", "POLICY_EDF",
    # admission
    "CpuAdmission", "MemoryAdmission", "FrameCostModel",
    "BackpressureShedder",
    # routers & net helpers the examples build graphs from
    "EthRouter", "ArpRouter", "IpRouter", "UdpRouter", "TcpRouter",
    "HttpRouter", "VfsRouter", "UfsRouter", "ScsiRouter", "DisplayRouter",
    "EthAddr", "IpAddr", "IpHeader", "UdpHeader", "TcpHeader",
    "IPPROTO_UDP", "IPPROTO_TCP", "build_udp_frame", "parse_frame",
    # clips & experiments
    "NEPTUNE", "CANYON", "FLOWER", "PAPER_CLIPS", "synthesize_clip",
    "run_edf_rr", "frames_budget",
    # faults / self-healing
    "PathWatchdog", "DegradationGovernor", "FaultyLink",
    "StageFault", "StageFaultInjector", "profile",
    # adversarial traffic & stability verdicts
    "AdversarySpec", "AdversaryInjector", "ArrivalEnvelope",
    "DropLedger", "StabilityVerdict", "VerdictEngine",
    "StarvationDetector",
    # errors
    "ScoutError", "AdmissionError", "ClassificationError",
    # tunables
    "params",
]
