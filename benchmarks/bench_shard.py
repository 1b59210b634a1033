"""Shard-fabric acceptance benchmark (DESIGN.md §17).

Two claims gate the sharded kernel fabric:

* **Scaling** — on a warm batched UDP workload, a 4-shard
  process-mode fabric must deliver at least **2.5x** the throughput of
  the single-kernel (1-shard) configuration.  The speedup floor is only
  asserted when the machine actually has >= 4 usable cores (CI's
  runners do); on smaller boxes the sweep still runs and records, and
  the gate is skipped with an explanation — a 1-core container cannot
  exhibit parallel speedup by construction.
* **Reconciliation** — at every shard count the merged books must be
  exact: zero ledger leaks, zero double counts, merged metrics and
  drop categories equal to the per-shard sums, serial for serial.
  This gate runs unconditionally; exactness does not need cores.

Results land in ``benchmarks/results/BENCH_shard.json`` (sections
``scaling`` and ``reconciliation``), uploaded by CI's bench-smoke job.
"""

import os
import time

import pytest

from repro.faults.adversary import DELIVERED
from repro.net.addresses import EthAddr, IpAddr
from repro.net.packets import build_udp_frame
from repro.shard import ShardedKernel

#: Acceptance floor (ISSUE acceptance criteria): 4-shard process mode
#: vs the single-kernel baseline.
MIN_SHARD_SPEEDUP = 2.5

SHARD_COUNTS = (1, 2, 4)
FLOWS = 16
FRAMES_PER_FLOW_PER_OFFER = 48
OFFERS = 4
BATCH = 16
SINK_PORT = 6100


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def workload(offer_index: int):
    """One offer's frames: every flow fires a warm back-to-back run."""
    frames = []
    base = offer_index * FLOWS * FRAMES_PER_FLOW_PER_OFFER
    sequence = base
    for flow in range(FLOWS):
        for _ in range(FRAMES_PER_FLOW_PER_OFFER):
            frames.append(bytes(build_udp_frame(
                EthAddr("02:00:00:00:00:02"), EthAddr("02:00:00:00:00:01"),
                IpAddr("10.0.0.2"), IpAddr("10.0.0.1"),
                7000 + flow, SINK_PORT + flow,
                b"flow%02d-%06d" % (flow, sequence))))
            sequence += 1
    return frames


PORTS = tuple(SINK_PORT + flow for flow in range(FLOWS))


def run_fabric(shards: int, mode: str):
    """Drive the warm workload; return (throughput fps, FabricBooks)."""
    fabric = ShardedKernel(shards=shards, mode=mode, ports=PORTS,
                           batch=BATCH, inq_len=2 * FRAMES_PER_FLOW_PER_OFFER)
    fabric.offer(workload(OFFERS))  # warm: caches hot, workers paging
    offers = [workload(offer_index) for offer_index in range(OFFERS)]
    begin = time.perf_counter()
    for frames in offers:
        fabric.offer(frames)
    elapsed = time.perf_counter() - begin
    total = sum(len(frames) for frames in offers)
    books = fabric.finish()
    return total / elapsed, books


def test_shard_scaling_and_reconciliation(record_shard):
    cores = usable_cores()
    throughput = {}
    reconciliation = {}
    for shards in SHARD_COUNTS:
        fps, books = run_fabric(shards, mode="process")
        throughput[shards] = fps
        recon = books.reconciliation
        reconciliation[shards] = {
            "ok": recon["ok"],
            "injected": recon["injected"],
            "delivered": recon["counts"].get(DELIVERED, 0),
            "leaks": len(recon["leaks"]),
            "double_counted": len(recon["double_counted"]),
            "mismatches": recon["mismatches"],
        }
        # The reconciliation gate is unconditional: merged books must be
        # exact at every scale, parallel or not.
        assert recon["ok"], f"{shards}-shard books failed to reconcile: " \
            f"{recon['mismatches'] or recon['leaks']}"
        assert recon["injected"] == (OFFERS + 1) * FLOWS * \
            FRAMES_PER_FLOW_PER_OFFER

    speedup_4 = throughput[4] / throughput[1]
    record_shard("scaling", {
        "cores": cores,
        "frames_per_offer": FLOWS * FRAMES_PER_FLOW_PER_OFFER,
        "offers": OFFERS,
        "throughput_fps": {str(k): round(v, 1)
                           for k, v in throughput.items()},
        "speedup_2": round(throughput[2] / throughput[1], 3),
        "speedup_4": round(speedup_4, 3),
        "min_speedup_4": MIN_SHARD_SPEEDUP,
        "gate_asserted": cores >= 4,
    })
    record_shard("reconciliation", {str(k): v
                                    for k, v in reconciliation.items()})

    if cores < 4:
        pytest.skip(f"speedup gate needs >= 4 usable cores, have {cores}: "
                    f"recorded speedup_4={speedup_4:.2f} without asserting")
    assert speedup_4 >= MIN_SHARD_SPEEDUP, \
        f"4-shard speedup {speedup_4:.2f}x below {MIN_SHARD_SPEEDUP}x floor"


def test_threads_mode_matches_process_mode_books(record_shard):
    """The deterministic tier-1 mode and the parallel mode keep the
    same books on the same workload — the cheap cross-mode sentinel
    that makes the scaling numbers above trustworthy."""
    books = {}
    for mode in ("threads", "process"):
        fabric = ShardedKernel(shards=4, mode=mode, ports=PORTS,
                               batch=BATCH,
                               inq_len=2 * FRAMES_PER_FLOW_PER_OFFER)
        for offer_index in range(2):
            fabric.offer(workload(offer_index))
        books[mode] = fabric.finish()
    threads_counts = books["threads"].ledger.counts()
    process_counts = books["process"].ledger.counts()
    record_shard("mode_parity", {
        "threads": threads_counts,
        "process": process_counts,
        "equal": threads_counts == process_counts,
    })
    assert threads_counts == process_counts
    assert books["threads"].ok and books["process"].ok
