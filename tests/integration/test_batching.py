"""End-to-end batching exactness (DESIGN.md §13): a batched kernel
delivers the same frames with the same accounting as the per-message
kernel, and burst receive charges exactly the per-frame interrupt sum."""

import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import Scout
from repro.core.attributes import PA_INQ_LEN
from repro.core.flowcache import VALIDATED_STAMPS
from repro.experiments import Testbed
from repro.mpeg import NEPTUNE, synthesize_clip
from repro.multipath import PathGroup
from repro.net import EthAddr, IpAddr, build_udp_frame
from repro.sim.world import POLICY_RR

FRAMES = 60


def play(batch):
    """Play a 60-frame Neptune clip at max decode rate with the video
    thread draining *batch* messages per wakeup; return the observables
    that must not depend on batching."""
    testbed = Testbed(seed=1)
    clip = synthesize_clip(NEPTUNE, seed=1, nframes=FRAMES)
    source = testbed.add_video_source(clip, dst_port=6100)
    kernel = testbed.build_scout(rate_limited_display=False)
    session = kernel.start_video(NEPTUNE, (str(source.ip), 7200),
                                 local_port=6100, batch=batch)
    testbed.start_all()
    testbed.run_until_sources_done()
    mflow = session.path.stage_of("MFLOW")
    return {
        "presented": session.frames_presented,
        "window_advs_total": mflow.window_advs_sent
        + mflow.window_advs_coalesced,
        "flow_cache_hits": kernel.flow_cache.hits,
        "inq_overflow_drops": kernel.inq_overflow_drops,
        "early_drops": kernel.early_drops,
        "unclassified_drops": kernel.unclassified_drops,
        "path_drops": session.path.stats.drops,
        "mem_outstanding": session.path.stats.mem_bytes,
    }, mflow


class TestBatchedSessionParity:
    def test_batched_video_matches_per_message_video(self):
        solo, _solo_mflow = play(batch=1)
        batched, mflow = play(batch=8)
        assert batched == solo
        assert batched["presented"] == FRAMES
        # Batching exists to coalesce feedback: the run tail advertises
        # for the whole run, so *some* adverts must have been absorbed.
        assert mflow.window_advs_coalesced > 0
        assert mflow.window_advs_sent < batched["window_advs_total"]


def rx_fixture():
    """A booted kernel with one video path, plus a frame forge for its
    flow."""
    testbed = Testbed(seed=2)
    kernel = testbed.build_scout(rate_limited_display=False)
    kernel.graph.router("ARP").add_entry("10.0.0.9", "02:00:00:00:00:09")
    session = kernel.start_video(NEPTUNE, ("10.0.0.9", 7200),
                                 local_port=6100)

    def frame(payload):
        return build_udp_frame(EthAddr("02:00:00:00:00:09"),
                               EthAddr("02:00:00:00:00:01"),
                               IpAddr("10.0.0.9"), IpAddr("10.0.0.1"),
                               7200, session.local_port, payload)

    return testbed, kernel, session, frame


#: Destination ports of the differential receive rig.
WARM_PORTS = (6100, 6101, 6102)
SHORT_PORT, SKIP_PORT, TRACED_PORT, GROUP_PORT = 6110, 6111, 6112, 6113
UNBOUND_PORT = 6199
#: Churn flows (distinct source ports onto the warm sinks) outnumber
#: the rig's flow-cache capacity.
CHURN_FLOWS = 12
CACHE_CAPACITY = 8
_MPEG_OFFSET_IN_PAYLOAD = 12  # the MFLOW header precedes the MPEG header
_MPEG_HEADER = struct.Struct("!BIBBBHI")


class ReceiveRig:
    """A kernel with one sink of every admission flavour, plus a frame
    forge; two rigs fed the same specs must end in identical states."""

    def __init__(self):
        self.scout = Scout(seed=5, udp_sink=True, display=False,
                           flow_cache_capacity=CACHE_CAPACITY)
        kernel = self.kernel = self.scout.kernel
        self.scout.add_peer("10.0.0.2", "02:00:00:00:00:02")
        self.drops = []
        kernel.drop_hook = lambda msg, category: self.drops.append(
            (msg.to_bytes(), category, msg.meta.get("tag")))
        self.paths = [kernel.start_udp_sink(port, batch=4)
                      for port in WARM_PORTS]
        self.paths.append(kernel.start_udp_sink(SHORT_PORT, inq_len=3,
                                                batch=2))
        skip = kernel.start_udp_sink(SKIP_PORT)
        kernel.set_frame_skip(skip, 2)
        self.paths.append(skip)
        self.paths.append(self._sink(TRACED_PORT, trace=True))
        self.group = PathGroup("round_robin", name="rr")
        for _ in range(2):
            self.paths.append(self.group.add(self._sink(GROUP_PORT)))
        self.paths += [kernel.icmp_path, kernel.frag_path]

    def _sink(self, port, trace=False):
        builder = (self.scout.path(self.kernel.test)
                   .participants("10.0.0.2", 7000).local_port(port)
                   .invariant(PA_INQ_LEN, 4))
        if trace:
            builder.trace(self.kernel.observatory)
        path = builder.build()
        self.kernel.world.spawn(self.kernel._service_thread_body(path),
                                name=f"sink{port}", policy=POLICY_RR,
                                path=path)
        return path

    def inqs(self):
        return [path.input_queue(1) for path in self.paths]

    def enqueued(self):
        return sum(q.enqueued for q in self.inqs())

    def observe(self):
        kernel = self.kernel
        stats = dict(kernel.stats())
        stats.pop("cpu_interrupt_us")
        cls = kernel.classifier_stats
        return {
            "delivered": [m.to_bytes() for m in kernel.test.received],
            "kernel": stats,
            "unclassified": kernel.unclassified_drops,
            "flow_cache": kernel.flow_cache.stats(),
            "classifier": (cls.classified, cls.dropped, cls.refinements,
                           cls.cache_hits),
            "paths": [(p.stats.mem_bytes, p.stats.mem_high_watermark,
                       dict(p.stats.drop_reasons),
                       p.attrs.get("_pkt_interarrival_us"))
                      for p in self.paths],
            "queues": [(q.enqueued, q.dropped, q.high_watermark, len(q))
                       for q in self.inqs()],
            "group": (self.group.dispatches, self.group.dispatch_failures),
            "metrics": kernel.observatory.metrics.as_dict(),
            "drops": [(frame, category) for frame, category, _ in self.drops],
        }


def tag_of(data):
    """The forge's sequence number closing every frame and payload."""
    return int(data[-6:])


class FrameForge:
    """Builds the rig's frames; every frame ends in a unique tag."""

    def __init__(self):
        self.sequence = 0

    def frame(self, spec):
        kind, arg = spec
        self.sequence += 1
        tag = b"#%06d" % self.sequence
        if kind == "garbage":
            return bytes(arg) + tag
        src, dst, payload = 7000, WARM_PORTS[0], tag
        if kind == "warm":
            src, dst = 7000 + arg, WARM_PORTS[arg]
        elif kind == "churn":
            src, dst = 8000 + arg, WARM_PORTS[arg % len(WARM_PORTS)]
        elif kind == "skip":
            dst = SKIP_PORT
            payload = (bytes(_MPEG_OFFSET_IN_PAYLOAD)
                       + _MPEG_HEADER.pack(0xA5, arg, 1, 0, 0, 0, 0) + tag)
        else:
            dst = {"short": SHORT_PORT, "traced": TRACED_PORT,
                   "group": GROUP_PORT, "unbound": UNBOUND_PORT}[kind]
        return bytes(build_udp_frame(
            EthAddr("02:00:00:00:00:02"), EthAddr("02:00:00:00:00:01"),
            IpAddr("10.0.0.2"), IpAddr("10.0.0.1"), src, dst, payload))


_frame_specs = st.one_of(
    st.tuples(st.just("warm"), st.integers(0, len(WARM_PORTS) - 1)),
    st.tuples(st.just("churn"), st.integers(0, CHURN_FLOWS - 1)),
    st.tuples(st.just("garbage"), st.binary(max_size=64)),
    st.tuples(st.just("skip"), st.integers(0, 5)),
    st.tuples(st.sampled_from(["short", "traced", "group", "unbound"]),
              st.just(0)),
)
#: Same-flow runs are what the burst path amortizes, so runs are drawn
#: as (spec, repeat) pairs and flattened.
_burst_specs = st.lists(
    st.tuples(_frame_specs, st.integers(1, 6)), max_size=12).map(
        lambda runs: [spec for spec, repeat in runs for _ in range(repeat)])
_bursts = st.lists(st.tuples(_burst_specs, st.booleans()),
                   min_size=1, max_size=3)
#: Every flavour at once: churn through the whole cache, an overflowing
#: run, group and traced runs, kept and skipped frames, garbage.
_MIXED_BURST = ([("churn", flow) for flow in range(CHURN_FLOWS)
                 for _ in range(2)]
                + [("short", 0)] * 6 + [("group", 0)] * 4
                + [("traced", 0)] * 3 + [("warm", 1)] * 5
                + [("skip", frame) for frame in range(4)]
                + [("garbage", b"\x00" * 20), ("unbound", 0)])


class TestRxBurstParity:
    def observe(self, kernel, session):
        return {
            "classified": kernel.classifier_stats.classified,
            "refinements": kernel.classifier_stats.refinements,
            "dropped": kernel.classifier_stats.dropped,
            "cache": (kernel.flow_cache.hits, kernel.flow_cache.misses),
            "inq": len(session.path.input_queue(1)),
            "unclassified": kernel.unclassified_drops,
            "irq_us": round(kernel.world.cpu.interrupt_us, 9),
        }

    @settings(max_examples=40, deadline=None)
    @given(bursts=_bursts)
    @example(bursts=[([("warm", 0)] * 10 + [("unbound", 0)], False)])
    @example(bursts=[(_MIXED_BURST, True), (_MIXED_BURST, False)])
    def test_burst_equals_per_frame_receive(self, bursts):
        """Differential: every burst through :meth:`rx_burst` against the
        same frames through :meth:`_rx` one at a time, over warm flows,
        churn past the flow-cache capacity, garbage, an early-discard
        filter, an overflowing short queue, a traced path and a
        round-robin group."""
        solo, burst = ReceiveRig(), ReceiveRig()
        forge = FrameForge()
        tagged = set()
        for specs, with_metas in bursts:
            frames = [forge.frame(spec) for spec in specs]
            for frame in frames:
                solo.kernel._rx(frame)
            metas = None
            if with_metas:
                metas = [{"tag": tag_of(frame)} for frame in frames]
                tagged.update(tag_of(frame) for frame in frames)
            enqueued = burst.enqueued()
            deposited = burst.kernel.rx_burst(frames, metas)
            assert deposited == burst.enqueued() - enqueued
            for rig in (solo, burst):
                rig.kernel.world.run_for(2000.0)
        assert burst.observe() == solo.observe()
        assert burst.kernel.world.cpu.interrupt_us == pytest.approx(
            solo.kernel.world.cpu.interrupt_us, rel=0, abs=1e-9)
        # The metas rode every frame to its fate, delivered or dropped.
        fates = [(msg.to_bytes(), msg.meta.get("tag"))
                 for msg in burst.kernel.test.received]
        fates += [(data, tag) for data, _, tag in burst.drops]
        for data, tag in fates:
            want = tag_of(data)
            assert tag == (want if want in tagged else None)

    def test_arrival_estimate_advances_once_per_message(self):
        """The inter-arrival EWMA (Section 4.3) takes one sample per
        deposited message, as the per-message formula says."""
        rig, forge = ReceiveRig(), FrameForge()
        path = rig.paths[0]
        last = estimate = None
        for count in (3, 1, 4):
            now = rig.kernel.world.now
            rig.kernel.rx_burst([forge.frame(("warm", 0))
                                 for _ in range(count)])
            for _ in range(count):
                if last is not None:
                    sample = now - last
                    estimate = sample if estimate is None \
                        else estimate + 0.125 * (sample - estimate)
                last = now
            assert path.attrs.get("_pkt_interarrival_us") == estimate
            assert path.attrs.get("_last_pkt_arrival_us") == now
            rig.kernel.world.run_for(1500.0)

    def test_flow_hits_carry_the_demux_annotations(self):
        """Cache riders get the meta the demux chain gave the run head;
        the key-derived objects are the entry's own, shared by every
        hit, and a hit from another source MAC gets its own address."""
        rig, forge = ReceiveRig(), FrameForge()
        frames = [forge.frame(("warm", 0)) for _ in range(3)]
        stranger = EthAddr("02:00:00:00:00:09")
        frames[2] = frames[2][:6] + stranger.to_bytes() + frames[2][12:]
        rig.kernel.rx_burst(frames)
        head, hit, other = list(rig.paths[0].input_queue(1))
        for name in ("eth_src", "ip_src", "ip_proto", "udp_ports"):
            assert hit.meta[name] == head.meta[name]
        assert hit.meta["ip_src"] is other.meta["ip_src"]
        assert hit.meta["udp_ports"] is other.meta["udp_ports"]
        assert other.meta["eth_src"] == stranger
        assert all(other.meta[stamp] for stamp in VALIDATED_STAMPS)

    def test_burst_charges_summed_interrupt_cost(self):
        _, kernel, session, frame = rx_fixture()
        base = kernel.world.cpu.interrupt_us
        kernel.rx_burst([frame(b"one")])  # cold: full chain walk
        cold_cost = kernel.world.cpu.interrupt_us - base
        base = kernel.world.cpu.interrupt_us
        kernel.rx_burst([frame(b"two"), frame(b"three")])  # warm: probes
        warm_cost = kernel.world.cpu.interrupt_us - base
        # A warm frame costs one probe hop; the cold walk cost more.
        assert warm_cost < cold_cost * 2
        assert warm_cost > 0

    def test_unclassifiable_frames_in_burst_are_dropped_exactly(self):
        _, kernel, session, frame = rx_fixture()
        garbage = b"\x00" * 64
        deposited = kernel.rx_burst([frame(b"good"), garbage,
                                     frame(b"also good")])
        assert deposited == 2
        assert kernel.unclassified_drops == 1
