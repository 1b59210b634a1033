"""The benchmark's four workloads.

Each workload takes the seed, generates its inputs in :meth:`setup`
(everything before the clock starts), and then runs in a closed loop
with one caller: :meth:`step` is one call into the program and the next
step starts only when it returns.  :meth:`after_step` runs outside the
clock; it consumes what the step delivered, checks it, and returns the
number of frames the step brought to a fate.  :meth:`finish` closes the
books after the timed region and :meth:`check` returns the names of the
correctness checks that failed, each with its evidence.

The program receives only the generated frames or clip, through the
public ``repro.api`` entry points (``Scout``, ``ScoutKernel`` via
``Scout.kernel``, ``Testbed``, ``ShardedKernel``), and runs on its
defaults: no ``REPRO_*`` setting is made here.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import struct
from collections import OrderedDict
from typing import Dict, List, Optional

from repro.api import (
    NEPTUNE,
    POLICY_RR,
    EthAddr,
    IpAddr,
    Scout,
    ShardedKernel,
    Testbed,
    build_udp_frame,
    flow_key_frame,
    synthesize_clip,
)
from repro.shard.dispatch import shard_of

LOCAL_MAC = "02:00:00:00:00:01"
LOCAL_IP = "10.0.0.1"
REMOTE_MAC = "02:00:00:00:00:02"
REMOTE_IP = "10.0.0.2"
SINK_BASE_PORT = 6100
#: Messages a TEST sink thread drains per scheduler dispatch.
SINK_BATCH = 16
#: Tag closing every generated payload: flow index, per-flow sequence.
_TAG = struct.Struct(">HQ")
#: Ethernet's minimum frame (no FCS) is 60 bytes: 42 bytes of
#: ETH/IP/UDP headers plus an 18-byte payload.
MIN_PAYLOAD = 18
#: The MPEG packet header (wire format: magic, frame number, frame type,
#: packet index, flags, macroblocks, payload bits) that the kernel's
#: adapter-level early discard peeks at behind a 12-byte MFLOW header.
_MPEG_HEADER = struct.Struct("!BIBBBHI")
_MPEG_MAGIC = 0xA5
_MFLOW_SIZE = 12


def _frame(src_port: int, dst_port: int, payload: bytes) -> bytes:
    return bytes(build_udp_frame(
        EthAddr(REMOTE_MAC), EthAddr(LOCAL_MAC), IpAddr(REMOTE_IP),
        IpAddr(LOCAL_IP), src_port, dst_port, payload))


def _tagged(flow: int, seq: int, size: int = MIN_PAYLOAD,
            head: bytes = b"") -> bytes:
    tag = _TAG.pack(flow, seq)
    return head + bytes(max(0, size - len(head) - len(tag))) + tag


def flow_of(payload: bytes) -> int:
    return _TAG.unpack(payload[-_TAG.size:])[0]


def kernel_counters(kernel) -> Dict[str, int]:
    """The kernel's own counters that the per-layer metrics read."""
    stats = kernel.classifier_stats
    return {
        "classified": stats.classified,
        "refinements": stats.refinements,
        "flow_cache_hits": kernel.flow_cache.hits,
        "inq_overflow": kernel.inq_overflow_drops,
        "events": kernel.world.engine.events_processed,
    }


def _diff(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


class Workload:
    """Base: a seeded input set driven through one closed loop."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 5
    #: The calibration body that tracks this workload's speed (speed.py).
    speed_profile = "packet"

    def __init__(self, seed: int):
        self.seed = seed
        self.failures: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def step(self) -> None:
        raise NotImplementedError

    def after_step(self) -> int:
        raise NotImplementedError

    def exhausted(self) -> bool:
        """True when the prepared inputs cannot feed another step."""
        return False

    def at_boundary(self) -> bool:
        """True when the timed region may end before the next step."""
        return True

    def finish(self) -> None:
        """Close the books after the timed region (outside the clock)."""

    def check(self) -> List[str]:
        return list(self.failures)

    def counters(self) -> Dict[str, int]:
        """Cumulative kernel counters (see :func:`kernel_counters`)."""
        return {}

    def worker_pids(self) -> List[int]:
        return []

    def close(self) -> None:
        """Release processes and large state (idempotent)."""

    def fail(self, check: str, detail: str) -> None:
        self.failures.append(f"{check}: {detail}")


# ---------------------------------------------------------------------------
# Warm UDP traffic (udp_warm, and the frames of shard_fabric)
# ---------------------------------------------------------------------------

class WarmTraffic:
    """Seeded smallest-size frames on a few flows, one sink port each.

    Every burst carries ``per_flow`` frames of every flow, in same-flow
    runs of 1 to 8 frames interleaved at random, so the classifier sees
    both run heads and followers.  Per-flow sequence numbers run on
    across the pool; the pool is offered cyclically.

    With *shards* above one, the seeded source ports are drawn so that
    every shard is home to the same number of flows: otherwise the
    seed alone would decide how unevenly 16 flows hash onto the shards
    (4 against 12 on one seed in ten), and with it the step time.
    """

    flows = 16

    def __init__(self, seed: int, per_flow: int, bursts: int,
                 shards: int = 1):
        self.per_flow = per_flow
        self.bursts = bursts
        rng = random.Random(seed)
        self.ports = tuple(SINK_BASE_PORT + f for f in range(self.flows))
        if shards == 1:
            self.src_ports = rng.sample(range(1024, 65536), self.flows)
        else:
            self.src_ports = _balanced_src_ports(rng, self.ports, shards)
        self.pool: List[List[bytes]] = []
        #: Per burst: flow -> payloads in arrival order.
        self.expected: List[Dict[int, List[bytes]]] = []
        seq = [0] * self.flows
        for _ in range(self.bursts):
            left = [self.per_flow] * self.flows
            frames: List[bytes] = []
            streams: Dict[int, List[bytes]] = {}
            while True:
                active = [f for f in range(self.flows) if left[f]]
                if not active:
                    break
                flow = rng.choice(active)
                for _ in range(min(rng.randint(1, 8), left[flow])):
                    payload = _tagged(flow, seq[flow])
                    seq[flow] += 1
                    left[flow] -= 1
                    frames.append(_frame(self.src_ports[flow],
                                         self.ports[flow], payload))
                    streams.setdefault(flow, []).append(payload)
            self.pool.append(frames)
            self.expected.append(streams)
        self.keys = {flow_key_frame(_frame(self.src_ports[f], self.ports[f],
                                           b"")): f
                     for f in range(self.flows)}


def _balanced_src_ports(rng: random.Random, dst_ports, shards: int):
    """One distinct source port per destination port, drawn at random
    but so that each of the *shards* home shards gets an equal share of
    the flows."""
    room = [len(dst_ports) // shards] * shards
    chosen: List[int] = []
    for dst_port in dst_ports:
        while True:
            src_port = rng.randrange(1024, 65536)
            home = shard_of(flow_key_frame(_frame(src_port, dst_port, b"")),
                            shards)
            if src_port not in chosen and room[home]:
                room[home] -= 1
                chosen.append(src_port)
                break
    return chosen


def _sink_scout(seed: int, ports, remote_ports, inq_len: int = 64) -> Scout:
    scout = Scout(seed=seed, udp_sink=True, display=False)
    scout.add_peer(REMOTE_IP, REMOTE_MAC)
    for port, remote_port in zip(ports, remote_ports):
        scout.kernel.start_udp_sink(port, (REMOTE_IP, remote_port),
                                    batch=SINK_BATCH, inq_len=inq_len)
    return scout


def _streams_by_flow(received) -> Dict[int, List[bytes]]:
    streams: Dict[int, List[bytes]] = {}
    for msg in received:
        payload = msg.to_bytes()
        streams.setdefault(flow_of(payload), []).append(payload)
    received.clear()
    return streams


class UdpWarm(Workload):
    """Few flows, all cached, no drops: the per-packet receive glue."""

    name = "udp_warm"
    per_flow = 32
    bursts = 32

    def setup(self) -> None:
        self.traffic = WarmTraffic(self.seed, self.per_flow, self.bursts)
        self.pool = self.traffic.pool
        self.scout = _sink_scout(self.seed, self.traffic.ports,
                                 self.traffic.src_ports)
        self.kernel = self.scout.kernel
        self.offered = 0
        self.delivered = 0
        self._next = 0
        self.step()
        self.after_step()

    def step(self) -> None:
        self.kernel.rx_burst(self.pool[self._next % len(self.pool)])
        self.scout.world.run_until_idle()

    def after_step(self) -> int:
        burst = self._next % len(self.pool)
        self._next += 1
        frames = len(self.pool[burst])
        self.offered += frames
        got = _streams_by_flow(self.kernel.test.received)
        self.delivered += sum(len(s) for s in got.values())
        if got != self.traffic.expected[burst] and len(self.failures) < 8:
            self.fail("udp_warm.streams",
                      f"burst {burst} (step {self._next - 1}): per-flow "
                      f"payload streams differ from the offered ones")
        return frames

    def finish(self) -> None:
        kernel = self.kernel
        if self.delivered != self.offered:
            self.fail("udp_warm.delivered",
                      f"delivered {self.delivered} != offered {self.offered}")
        drops = (kernel.unclassified_drops, kernel.early_drops,
                 kernel.inq_overflow_drops)
        if any(drops):
            self.fail("udp_warm.no_drops",
                      f"unclassified/early/overflow drops {drops}")
        cache = kernel.flow_cache
        flows = self.traffic.flows
        want = (self.offered - flows, flows, 0)
        got = (cache.hits, cache.misses, cache.evictions)
        if got != want:
            self.fail("udp_warm.flow_cache",
                      f"hits/misses/evictions {got} != {want}")

    def counters(self) -> Dict[str, int]:
        return kernel_counters(self.kernel)

    def close(self) -> None:
        self.scout = self.kernel = None
        self.pool = []


# ---------------------------------------------------------------------------
# Churning UDP traffic
# ---------------------------------------------------------------------------

class UdpChurn(Workload):
    """Four times more flows than the flow cache holds, rotating, with
    every admission drop category: unbound ports (unclassified), a
    frame-skipping sink (early discard) and short input queues
    (overflow)."""

    name = "udp_churn"
    flows = 512
    sinks = 8
    unbound_ports = (6300, 6301, 6302, 6303)
    frames_per_burst = 256
    bursts = 32
    inq_len = 16
    #: The last sink keeps every second frame (adapter early discard).
    skip_modulus = 2

    def setup(self) -> None:
        rng = random.Random(self.seed)
        ports = tuple(SINK_BASE_PORT + s for s in range(self.sinks))
        self.skip_port = ports[-1]
        src_ports = rng.sample(range(1024, 65536), self.flows)
        dst = [self.unbound_ports[f % len(self.unbound_ports)]
               if f % 10 == 9 else ports[f % self.sinks]
               for f in range(self.flows)]
        self.bound = [port in ports for port in dst]
        order = list(range(self.flows))
        rng.shuffle(order)
        self.pool = []
        #: Per burst: flow index per frame, per-flow delivered payloads,
        #: and the drop counts by category.
        self.burst_flows: List[List[int]] = []
        self.expected: List[Dict[int, List[bytes]]] = []
        self.expected_drops: List[Dict[str, int]] = []
        seq = [0] * self.flows
        cursor = 0
        previous = order[0]
        for _ in range(self.bursts):
            frames: List[bytes] = []
            flows: List[int] = []
            delivered: Dict[int, List[bytes]] = {}
            drops = {"unclassified": 0, "early_discard": 0,
                     "inq_overflow": 0}
            depth = {port: 0 for port in ports}
            for _ in range(self.frames_per_burst):
                if rng.random() < 0.125:
                    flow = previous
                else:
                    flow = order[cursor % self.flows]
                    cursor += 1
                previous = flow
                n = seq[flow]
                seq[flow] += 1
                port = dst[flow]
                if port == self.skip_port:
                    head = bytes(_MFLOW_SIZE) + _MPEG_HEADER.pack(
                        _MPEG_MAGIC, n, 1, 0, 0, 0, 0)
                    payload = _tagged(flow, n, len(head) + _TAG.size, head)
                else:
                    payload = _tagged(flow, n)
                frames.append(_frame(src_ports[flow], port, payload))
                flows.append(flow)
                if not self.bound[flow]:
                    drops["unclassified"] += 1
                elif port == self.skip_port and n % self.skip_modulus:
                    drops["early_discard"] += 1
                elif depth[port] >= self.inq_len:
                    drops["inq_overflow"] += 1
                else:
                    depth[port] += 1
                    delivered.setdefault(flow, []).append(payload)
            self.pool.append(frames)
            self.burst_flows.append(flows)
            self.expected.append(delivered)
            self.expected_drops.append(drops)
        self.scout = _sink_scout(self.seed, ports, [7000] * self.sinks,
                                 inq_len=self.inq_len)
        self.kernel = self.scout.kernel
        self.kernel.set_frame_skip(self.kernel.sink_paths[self.skip_port],
                                   self.skip_modulus)
        self.offered_bursts: List[int] = []
        self.totals = {"delivered": 0, "unclassified": 0,
                       "early_discard": 0, "inq_overflow": 0}
        self._next = 0
        self._last = self._drop_counts()
        self.step()
        self.after_step()

    def _drop_counts(self) -> Dict[str, int]:
        kernel = self.kernel
        return {"unclassified": kernel.unclassified_drops,
                "early_discard": kernel.early_drops,
                "inq_overflow": kernel.inq_overflow_drops}

    def step(self) -> None:
        self.kernel.rx_burst(self.pool[self._next % len(self.pool)])
        self.scout.world.run_until_idle()

    def after_step(self) -> int:
        burst = self._next % len(self.pool)
        self._next += 1
        self.offered_bursts.append(burst)
        got = _streams_by_flow(self.kernel.test.received)
        now = self._drop_counts()
        drops = _diff(now, self._last)
        self._last = now
        self.totals["delivered"] += sum(len(s) for s in got.values())
        for category, n in drops.items():
            self.totals[category] += n
        if len(self.failures) < 8:
            if got != self.expected[burst]:
                self.fail("udp_churn.streams",
                          f"burst {burst} (step {self._next - 1}): "
                          f"delivered payloads differ from the admitted ones")
            if drops != self.expected_drops[burst]:
                self.fail("udp_churn.drops",
                          f"burst {burst}: drops {drops} != "
                          f"{self.expected_drops[burst]}")
        return len(self.pool[burst])

    def _cache_model(self, capacity: int):
        """Hits, misses and evictions of an LRU flow cache fed the
        offered frames in order, inserting only classified flows."""
        lru: "OrderedDict[int, None]" = OrderedDict()
        hits = misses = evictions = 0
        for burst in self.offered_bursts:
            for flow in self.burst_flows[burst]:
                if flow in lru:
                    hits += 1
                    lru.move_to_end(flow)
                    continue
                misses += 1
                if self.bound[flow]:
                    lru[flow] = None
                    if len(lru) > capacity:
                        lru.popitem(last=False)
                        evictions += 1
        return hits, misses, evictions

    def finish(self) -> None:
        kernel = self.kernel
        offered = sum(len(self.pool[b]) for b in self.offered_bursts)
        fated = sum(self.totals.values())
        if fated != offered:
            self.fail("udp_churn.conservation",
                      f"delivered + dropped = {fated} != offered {offered}")
        want = {category: sum(self.expected_drops[b][category]
                              for b in self.offered_bursts)
                for category in ("unclassified", "early_discard",
                                 "inq_overflow")}
        if self._drop_counts() != want:
            self.fail("udp_churn.drop_totals",
                      f"kernel drops {self._drop_counts()} != {want}")
        ledger: Dict[str, int] = {}
        for path in kernel.sink_paths.values():
            for category, n in path.stats.drop_reasons.items():
                ledger[category] = ledger.get(category, 0) + n
        path_side = {"early_discard": want["early_discard"],
                     "inq_overflow": want["inq_overflow"]}
        if {k: v for k, v in ledger.items() if v} != \
                {k: v for k, v in path_side.items() if v}:
            self.fail("udp_churn.path_ledger",
                      f"path drop ledgers {ledger} != {path_side}")
        if kernel.classifier_stats.dropped != want["unclassified"]:
            self.fail("udp_churn.classifier_drops",
                      f"classifier dropped {kernel.classifier_stats.dropped}"
                      f" != {want['unclassified']}")
        cache = kernel.flow_cache
        got = (cache.hits, cache.misses, cache.evictions)
        model = self._cache_model(cache.capacity)
        if got != model:
            self.fail("udp_churn.flow_cache",
                      f"hits/misses/evictions {got} != {model}")

    def counters(self) -> Dict[str, int]:
        return kernel_counters(self.kernel)

    def close(self) -> None:
        self.scout = self.kernel = None
        self.pool = []


# ---------------------------------------------------------------------------
# Loaded video (Table 2's loaded Scout cell)
# ---------------------------------------------------------------------------

class _Replica:
    """One Table 2 loaded cell: a Neptune session beside ``ping -f``."""

    def __init__(self, seed: int, clip, clip_index: int):
        self.clip_index = clip_index
        self.testbed = Testbed(seed=seed)
        self.source = self.testbed.add_video_source(clip, dst_port=6100)
        self.flooder = self.testbed.add_flooder()
        self.kernel = self.testbed.build_scout(rate_limited_display=False)
        # Paper setup: video at RR priority 0, the boot-time ICMP path
        # one level lower.
        self.session = self.kernel.start_video(
            NEPTUNE, (str(self.source.ip), 7200), local_port=6100,
            policy=POLICY_RR, priority=0)
        self.testbed.start_all()
        self.steps = 0
        self.steps_after_done = 0

    def outcome(self) -> tuple:
        session = self.session
        return (session.achieved_fps(), session.frames_presented,
                session.missed_deadlines, self.flooder.replies_received,
                self.flooder.requests_sent, self.kernel.icmp.echo_requests,
                self.kernel.device.rx_frames)


class VideoLoaded(Workload):
    """Neptune streamed to completion under an ICMP flood, replayed.

    Sessions take turns over a few clips synthesized from the seed, so a
    run's cost does not hang on one clip's frame sizes.
    """

    name = "video_loaded"
    setup_repeats = 3
    speed_profile = "codec"
    clips = 3
    clip_frames = 24
    #: Virtual length of one step (``world.run_for``).
    slice_us = 10_000.0
    #: Steps run after the source has sent its last packet: the last
    #: frames present within about 8, and a longer flood-only tail would
    #: put the median step between the two kinds of step.
    slack_steps = 12
    #: Replicas prepared in set-up; a run that uses them all stops early.
    replicas = 48
    OUTCOME = ("achieved_fps", "frames_presented", "missed_deadlines",
               "echo_replies", "echo_requests_sent", "echo_requests_seen",
               "nic_rx_frames")

    def setup(self) -> None:
        import time
        rng = random.Random(self.seed)
        start = time.perf_counter()
        clips = [synthesize_clip(NEPTUNE, seed=rng.randrange(1 << 31),
                                 nframes=self.clip_frames)
                 for _ in range(self.clips)]
        self.synthesize_s = time.perf_counter() - start
        self.queue = [_Replica(self.seed, clips[i % self.clips],
                               i % self.clips)
                      for i in range(self.replicas)]
        self.outcomes: List[tuple] = []
        self._done: Dict[str, int] = {}
        self.current: Optional[_Replica] = self.queue.pop(0)
        self._rx_seen = 0
        self.step()
        self.after_step()

    def exhausted(self) -> bool:
        return self.current is None

    def at_boundary(self) -> bool:
        # Timed regions hold whole sessions: the streaming and the
        # flood-only tail of a session run at different frame rates.
        return self.current.steps == 0

    def step(self) -> None:
        self.current.testbed.world.run_for(self.slice_us)

    def after_step(self) -> int:
        replica = self.current
        replica.steps += 1
        rx = replica.kernel.device.rx_frames
        frames = rx - self._rx_seen
        self._rx_seen = rx
        if replica.source.done:
            replica.steps_after_done += 1
            if replica.steps_after_done >= self.slack_steps:
                self._retire(replica)
        return frames

    def _retire(self, replica: _Replica) -> None:
        self.outcomes.append((replica.clip_index, replica.outcome()))
        for key, value in kernel_counters(replica.kernel).items():
            self._done[key] = self._done.get(key, 0) + value
        self.current = self.queue.pop(0) if self.queue else None
        self._rx_seen = 0

    def finish(self) -> None:
        # A session the timed region started is run to its end (outside
        # the clock) so that it is checked too.
        replica = self.current
        while replica is not None and replica.steps and \
                replica is self.current:
            self.step()
            self.after_step()
        self.queue = []
        self.current = None
        first: Dict[int, tuple] = {}
        for index, (clip, outcome) in enumerate(self.outcomes):
            _, presented, missed, replies, sent, seen, _ = outcome
            if presented != self.clip_frames:
                self.fail("video_loaded.presented",
                          f"session {index} presented {presented} of "
                          f"{self.clip_frames} frames")
            if missed:
                self.fail("video_loaded.missed_deadlines",
                          f"session {index}: {missed} missed deadlines")
            if not 0 < replies <= seen <= sent:
                self.fail("video_loaded.echo",
                          f"session {index}: replies {replies}, requests "
                          f"seen {seen}, sent {sent}")
            reference = first.setdefault(clip, outcome)
            if outcome != reference:
                diff = {name: (a, b) for name, a, b in
                        zip(self.OUTCOME, reference, outcome) if a != b}
                self.fail("video_loaded.replay",
                          f"session {index} differs from the first session "
                          f"of clip {clip}: {diff}")
            if len(self.failures) >= 8:
                break

    def counters(self) -> Dict[str, int]:
        totals = dict(self._done)
        if self.current is not None:
            for key, value in kernel_counters(self.current.kernel).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def close(self) -> None:
        self.queue = []
        self.current = None


# ---------------------------------------------------------------------------
# Shard fabric
# ---------------------------------------------------------------------------

def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class ShardFabric(Workload):
    """``udp_warm``-shaped traffic offered to two forked shard workers,
    eight flows homed on each (see :class:`WarmTraffic`)."""

    name = "shard_fabric"
    #: Forking and the first offer make this set-up the noisiest.
    setup_repeats = 7
    shards = 2
    speed_profile = "fanout"
    per_flow = UdpWarm.per_flow
    bursts = UdpWarm.bursts

    def setup(self) -> None:
        self.traffic = WarmTraffic(self.seed, self.per_flow, self.bursts,
                                   self.shards)
        self.pool = self.traffic.pool
        before = {p.pid for p in multiprocessing.active_children()}
        self.fabric = ShardedKernel(shards=self.shards, mode="process",
                                    ports=self.traffic.ports,
                                    batch=SINK_BATCH, seed=self.seed)
        self.pids = sorted(p.pid for p in multiprocessing.active_children()
                           if p.pid not in before)
        self.offered_bursts: List[int] = []
        self.books = None
        self.peak_worker_rss_mb = 0.0
        self._fates = []
        self._next = 0
        self.step()
        self.after_step()

    def step(self) -> None:
        self._fates = self.fabric.offer(
            self.pool[self._next % len(self.pool)])

    def after_step(self) -> int:
        burst = self._next % len(self.pool)
        self._next += 1
        self.offered_bursts.append(burst)
        frames = len(self.pool[burst])
        delivered = sum(1 for fate in self._fates if fate[1] == "delivered")
        if delivered != frames and len(self.failures) < 8:
            self.fail("shard_fabric.fates",
                      f"burst {burst}: {delivered} of {frames} delivered")
        self._fates = []
        return frames

    def worker_pids(self) -> List[int]:
        return self.pids

    def worker_cpu_s(self) -> float:
        return sum(_proc_cpu_s(pid) for pid in self.pids)

    def _reference_streams(self) -> List[Dict[int, List[bytes]]]:
        """One pass of the pool through a single in-process kernel."""
        scout = _sink_scout(self.seed, self.traffic.ports,
                            self.traffic.src_ports)
        streams = []
        for frames in self.pool:
            scout.kernel.rx_burst(frames)
            scout.world.run_until_idle()
            streams.append(_streams_by_flow(scout.kernel.test.received))
        return streams

    def finish(self) -> None:
        if self.books is not None:
            return
        self.peak_worker_rss_mb = sum(_proc_peak_rss_mb(pid)
                                      for pid in self.pids)
        self.books = self.fabric.finish()
        recon = self.books.reconciliation
        if not self.books.ok or recon["leaks"] or recon["double_counted"]:
            self.fail("shard_fabric.books",
                      f"ok={self.books.ok} leaks={len(recon['leaks'])} "
                      f"double_counted={len(recon['double_counted'])} "
                      f"mismatches={recon['mismatches'][:3]}")
        offered = sum(len(self.pool[b]) for b in self.offered_bursts)
        if recon["injected"] != offered:
            self.fail("shard_fabric.injected",
                      f"ledger injected {recon['injected']} != {offered}")
        reference = self._reference_streams()
        cursor: Dict[int, int] = {}
        streams = {self.traffic.keys[key]: stream
                   for key, stream in self.fabric.flow_streams.items()}
        for burst in self.offered_bursts:
            for flow, want in reference[burst].items():
                start = cursor.get(flow, 0)
                got = streams.get(flow, [])[start:start + len(want)]
                cursor[flow] = start + len(want)
                if got != want:
                    self.fail("shard_fabric.streams",
                              f"flow {flow}: fabric stream differs from "
                              f"the one-kernel run at burst {burst}")
                    return
        extra = {flow: len(s) - cursor.get(flow, 0)
                 for flow, s in streams.items() if len(s) != cursor.get(flow, 0)}
        if extra:
            self.fail("shard_fabric.streams",
                      f"fabric delivered extra payloads {extra}")

    def close(self) -> None:
        fabric = getattr(self, "fabric", None)
        if fabric is not None and self.books is None:
            try:
                self.books = fabric.finish()
            finally:
                for child in multiprocessing.active_children():
                    if child.pid in self.pids:
                        child.terminate()
                        child.join(10)
        self.fabric = None
        self.pool = []


WORKLOADS = {cls.name: cls for cls in (UdpWarm, UdpChurn, VideoLoaded,
                                       ShardFabric)}
