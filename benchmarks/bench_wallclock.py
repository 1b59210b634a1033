"""Wall-clock edge benchmark (DESIGN.md §18).

Three measurements gate the asyncio executor + socket backend:

* **Parity under load** — a warm batched UDP burst must deliver the
  same frames with the same drop books under the asyncio executor as
  under the deterministic scheduler (the load-scale companion to
  ``tests/aio/test_parity.py``).
* **Executor throughput** — frames/second through ``rx_burst`` +
  ``settle`` on the asyncio executor, against the same workload on
  virtual time; both are recorded so regressions in either executor
  are visible in the artifact history.
* **Socket loopback** — an in-process UDP sender drives the socket
  backend end-to-end; delivered counts must reconcile exactly with
  the device ledger (recorded as skipped where sockets are denied).

Results land in ``benchmarks/results/BENCH_wallclock.json`` (sections
``parity``, ``throughput`` and ``loopback``), uploaded by CI's
bench-smoke job.
"""

import asyncio
import socket
import time

from repro.api import EthAddr, IpAddr, Scout, build_udp_frame

LOCAL_MAC = EthAddr("02:00:00:00:00:01")
LOCAL_IP = IpAddr("10.0.0.1")
REMOTE_MAC = EthAddr("02:00:00:00:00:02")
REMOTE_IP = IpAddr("10.0.0.2")
SINK_PORT = 6100
FLOWS = 4
BURSTS = 8
FRAMES_PER_FLOW_PER_BURST = 24
BATCH = 16


def loopback_available() -> bool:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False


def burst(index: int):
    frames = []
    for flow in range(FLOWS):
        for i in range(FRAMES_PER_FLOW_PER_BURST):
            seq = index * FRAMES_PER_FLOW_PER_BURST + i
            frames.append(build_udp_frame(
                REMOTE_MAC, LOCAL_MAC, REMOTE_IP, LOCAL_IP,
                7000 + flow, SINK_PORT + flow,
                b"wc%02d-%06d" % (flow, seq)))
    return frames


def _setup(scout: Scout, drops: list) -> None:
    scout.kernel.drop_hook = lambda msg, category: drops.append(category)
    scout.add_peer(REMOTE_IP, REMOTE_MAC)
    for flow in range(FLOWS):
        scout.kernel.start_udp_sink(SINK_PORT + flow,
                                    (str(REMOTE_IP), 7000 + flow),
                                    batch=BATCH, inq_len=256)


def _books(scout: Scout, drops: list) -> dict:
    test = scout.kernel.test
    streams = {}
    for msg in test.received:
        payload = msg.to_bytes()
        streams.setdefault(payload[:4], []).append(payload)
    return {
        "delivered": len(test.received),
        "bytes": test.bytes_received,
        "drops": sorted(drops),
        "streams": streams,
    }


def run_sim_executor() -> tuple:
    """Returns the books and the seconds spent receiving and settling
    the bursts; building the frames and the ``Scout`` is not timed."""
    drops = []
    bursts = [burst(index) for index in range(BURSTS)]
    with Scout(seed=9, udp_sink=True, display=False) as scout:
        _setup(scout, drops)
        started = time.perf_counter()
        for frames in bursts:
            scout.kernel.rx_burst(frames)
            scout.world.run_until_idle()
        return _books(scout, drops), time.perf_counter() - started


def run_aio_executor() -> tuple:
    async def main():
        drops = []
        bursts = [burst(index) for index in range(BURSTS)]
        async with Scout(seed=9, executor="asyncio",
                         udp_sink=True) as scout:
            _setup(scout, drops)
            started = time.perf_counter()
            for frames in bursts:
                scout.kernel.rx_burst(frames)
                await scout.settle()
            elapsed = time.perf_counter() - started
            snap = scout.wallclock()
            return _books(scout, drops), elapsed, snap

    return asyncio.run(main())


class TestWallclockBench:
    def test_parity_and_throughput(self, record_wallclock):
        total = FLOWS * BURSTS * FRAMES_PER_FLOW_PER_BURST
        sim_books, sim_elapsed = run_sim_executor()
        aio_books, aio_elapsed, snap = run_aio_executor()

        assert aio_books == sim_books, \
            "asyncio executor diverged from the deterministic scheduler"
        record_wallclock("parity", {
            "frames": total,
            "delivered": aio_books["delivered"],
            "drops": len(aio_books["drops"]),
            "byte_identical": True,
        })
        record_wallclock("throughput", {
            "frames": total,
            "sim_wall_s": round(sim_elapsed, 4),
            "sim_frames_per_s": round(total / sim_elapsed, 1),
            "aio_wall_s": round(aio_elapsed, 4),
            "aio_frames_per_s": round(aio_elapsed and total / aio_elapsed, 1),
            "virtual_cpu_s": round(snap["virtual_cpu_s"], 6),
            "speedup_vs_modeled_cpu": round(snap["speedup"], 3),
        })

    def test_socket_loopback(self, record_wallclock):
        if not loopback_available():
            record_wallclock("loopback", {"skipped": True,
                                          "reason": "no loopback sockets"})
            return

        sent = 200

        async def main():
            async with Scout(seed=9, backend="socket",
                             executor="asyncio") as scout:
                drops = []
                scout.kernel.drop_hook = \
                    lambda msg, category: drops.append(category)
                sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                sender.bind(("127.0.0.1", 0))
                scout.add_peer(REMOTE_IP, REMOTE_MAC, sender.getsockname())
                scout.kernel.start_udp_sink(SINK_PORT,
                                            (str(REMOTE_IP), 7000),
                                            batch=BATCH, inq_len=256)
                started = time.perf_counter()
                for seq in range(sent):
                    sender.sendto(build_udp_frame(
                        REMOTE_MAC, LOCAL_MAC, REMOTE_IP, LOCAL_IP,
                        7000, SINK_PORT, b"loop-%06d" % seq),
                        scout.device.address)
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 10.0
                device = scout.device
                while (len(scout.kernel.test.received) + len(drops)
                       < device.rx_frames or device.pending()
                       or (device.rx_frames
                           + sum(device.drop_ledger().values()) < sent
                           and loop.time() < deadline)):
                    if loop.time() >= deadline:
                        break
                    await scout.serve(seconds=0.05)
                elapsed = time.perf_counter() - started
                sender.close()
                delivered = len(scout.kernel.test.received)
                assert device.rx_frames == delivered + len(drops), \
                    "socket books must reconcile exactly"
                return {
                    "sent": sent,
                    "device_rx": device.rx_frames,
                    "delivered": delivered,
                    "admission_drops": len(drops),
                    "device_drops": device.drop_ledger(),
                    "wall_s": round(elapsed, 4),
                    "frames_per_s": round(delivered / elapsed, 1),
                }

        record_wallclock("loopback", asyncio.run(main()))
