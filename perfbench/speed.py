"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the host can run the same Python code at
very different speeds from one second to the next (turbo states, a busy
sibling hyperthread): on a shared 2-vCPU x86-64 guest, warm-UDP
wall-clock throughput moved by 1.6x between back-to-back runs of one
commit.  The benchmark therefore times a fixed calibration body before
every step (outside the timed region) and reports each time scaled by
``reference duration / mean calibration time``: seconds on a machine
that runs the body in exactly its reference duration.  Each step is
scaled by the samples around it, so the step-time quantiles follow
speed changes within a run as well, and set-up times by samples taken
between set-ups.  Runs last ``--seconds`` of reference time, so a run
does the same amount of work however fast the host is that day.  The
body never touches the program, so a change to the program moves the
scaled numbers exactly as it moves the wall clock, while the machine's
drift cancels.  Raw wall-clock values are kept in each run's record.

A calibration body run in the benchmark's own process cannot see the
time a step spends waiting for other processes, which is most of a
process-mode shard step: workers waiting for a CPU, cross-process
wake-ups, time the host takes from the other core.  The ``fanout``
profile therefore adds a round through helper processes shaped like a
shard step (:class:`_FanOut`).  On the shared 2-vCPU guest, over five
back-to-back shard runs, the interquartile range of the median step
time was 18% of its median raw and 5% scaled this way.

The body is shaped like the workload's own kind of work, because code
of different shapes speeds up and slows down differently on such a
host: per-packet work (slot objects, byte slicing, ``struct`` unpacking,
dict probes, a working set of a few thousand live objects) for the UDP
and shard workloads, plus per-bit integer loops for the video workload,
whose time goes mostly to the MPEG codec.
"""

from __future__ import annotations

import atexit
import multiprocessing
import struct
import time
from typing import List, Optional

#: A step's own scale averages the samples this many steps either side:
#: wide enough to smooth one sample's jitter, narrow enough to follow
#: the host's speed changes within a run.
LOCAL_HALF_WIDTH = 2

_HEADER = struct.Struct(">HHHH")
_BUFFER = bytes(range(256)) * 64
_RING: List[object] = [None] * 4096


class _Packet:
    __slots__ = ("buf", "meta", "off")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.meta = {"t": 0}
        self.off = 0

    def peek(self, n: int) -> bytes:
        return self.buf[self.off:self.off + n]

    def strip(self, n: int) -> None:
        self.off += n


def packet_body(n: int = 120) -> int:
    """A fixed amount of packet-shaped interpreter work."""
    acc = 0
    table = {}
    for i in range(n):
        at = (i * 37) % 16000
        pkt = _Packet(_BUFFER[at:at + 60])
        head = pkt.peek(14)
        pkt.strip(14)
        a, b, c, _ = _HEADER.unpack(pkt.peek(8))
        pkt.strip(8)
        key = head[0:6] + bytes((a & 255,))
        entry = table.get(key)
        if entry is None:
            table[key] = entry = [0]
        entry[0] += 1
        pkt.meta["k"] = key
        pkt.meta["v"] = (a, b)
        _RING[(i * 613) & 4095] = pkt
        acc += len(pkt.meta) + c
    return acc


def bit_body(n: int = 2400) -> int:
    """A fixed amount of per-bit integer work, shaped like a bitstream
    reader's inner loop."""
    value = 0
    pos = 0
    data = _BUFFER
    for _ in range(n):
        byte = data[pos >> 3]
        value = ((value << 1) | ((byte >> (7 - (pos & 7))) & 1)) & 0xFFFF
        pos += 1
    return value


#: Calibration profile -> (bodies, their duration on the reference
#: machine).  ``codec`` adds bit-level work for workloads whose time
#: goes mostly to the MPEG codec's per-bit loops.  ``fanout`` runs the
#: packet body here and then :data:`FANOUT_REPEATS` times in each of
#: :data:`FANOUT_HELPERS` helper processes at once (see :class:`_FanOut`),
#: for workloads whose steps wait on worker processes; the whole sample
#: takes :data:`FANOUT_REFERENCE_S` on the reference machine.
PROFILES = {
    "packet": ((packet_body,), 0.0005),
    "codec": ((packet_body, bit_body), 0.0012),
    "fanout": ((packet_body,), 0.0005),
}
FANOUT_HELPERS = 2
FANOUT_REPEATS = 4
FANOUT_REFERENCE_S = 0.0025


def _helper_main(inbox, outbox) -> None:
    while True:
        token = inbox.get()
        if token is None:
            return
        for _ in range(FANOUT_REPEATS):
            packet_body()
        outbox.put(token)


class _FanOut:
    """Helper processes that each run the packet body on request.

    A round is shaped like a step of a process-mode shard fabric: the
    parent does some packet work, hands a message to every helper
    through its own ``multiprocessing`` queue, and waits for every
    answer.  Its wall time therefore follows what the fabric's steps
    wait for and the parent's own clock cannot see: helpers waiting for
    a CPU, cross-process wake-ups, time the host takes from either core.
    """

    def __init__(self) -> None:
        ctx = (multiprocessing.get_context("fork")
               if "fork" in multiprocessing.get_all_start_methods()
               else multiprocessing.get_context())
        self.queues = []
        self.procs = []
        for index in range(FANOUT_HELPERS):
            inbox, outbox = ctx.Queue(), ctx.Queue()
            proc = ctx.Process(target=_helper_main, args=(inbox, outbox),
                               daemon=True, name=f"perfbench-speed-{index}")
            proc.start()
            self.queues.append((inbox, outbox))
            self.procs.append(proc)
        self._token = 0

    def round(self) -> None:
        self._token += 1
        for inbox, _ in self.queues:
            inbox.put(self._token)
        for _, outbox in self.queues:
            if outbox.get(timeout=60) != self._token:
                raise RuntimeError("speed helper answered out of turn")

    def close(self) -> None:
        for (inbox, outbox), proc in zip(self.queues, self.procs):
            if proc.is_alive():
                inbox.put(None)
            proc.join(10)
            if proc.is_alive():
                proc.terminate()
                proc.join(10)
            inbox.close()
            outbox.close()
        self.queues = []
        self.procs = []


_fanout: Optional[_FanOut] = None


def _fanout_helpers() -> _FanOut:
    global _fanout
    if _fanout is None:
        _fanout = _FanOut()
    return _fanout


def shutdown() -> None:
    """Stop the fan-out helpers, if any were started (idempotent)."""
    global _fanout
    if _fanout is not None:
        fanout, _fanout = _fanout, None
        fanout.close()


atexit.register(shutdown)


class Speed:
    """Calibration samples taken beside one measured phase.

    Each sample times the profile's bodies in this process and, on the
    ``fanout`` profile, the helper round after them.  :attr:`scale`
    and :meth:`local_scales` follow the whole sample and scale wall
    time; :attr:`cpu_scale` follows only this process's bodies and
    scales work done on one CPU: CPU time, set-up, layer times.  On the
    other profiles the two are the same.
    """

    def __init__(self, profile: str = "packet") -> None:
        self.bodies, self.cpu_reference_s = PROFILES[profile]
        self.fanout = _fanout_helpers() if profile == "fanout" else None
        self.reference_s = FANOUT_REFERENCE_S if self.fanout \
            else self.cpu_reference_s
        self.samples: List[float] = []
        self.cpu_samples: List[float] = []

    def sample(self, times: int = 1) -> None:
        clock = time.perf_counter
        for _ in range(times):
            start = clock()
            for body in self.bodies:
                body()
            own = clock() - start
            if self.fanout is not None:
                self.fanout.round()
            self.samples.append(clock() - start)
            self.cpu_samples.append(own)

    @property
    def scale(self) -> float:
        """Multiply a measured wall time by this to get reference
        seconds."""
        return self.reference_s * len(self.samples) / sum(self.samples)

    @property
    def cpu_scale(self) -> float:
        """Multiply a time spent computing in one process by this to get
        reference seconds."""
        return self.cpu_reference_s * len(self.cpu_samples) \
            / sum(self.cpu_samples)

    def local_scales(self, count: int, cpu: bool = False) -> List[float]:
        """The scale for each of the first *count* samples, from the
        mean of the samples up to :data:`LOCAL_HALF_WIDTH` either side,
        so a step is scaled by the host's speed around it; with *cpu*,
        from this process's bodies alone (see :attr:`cpu_scale`)."""
        samples = self.cpu_samples if cpu else self.samples
        reference = self.cpu_reference_s if cpu else self.reference_s
        scales = []
        for i in range(count):
            window = samples[max(0, i - LOCAL_HALF_WIDTH):
                             i + LOCAL_HALF_WIDTH + 1]
            scales.append(reference * len(window) / sum(window))
        return scales
