"""Run one workload: set up, time a closed loop, check, report.

Untraced runs (``--trace 0``) report the end-to-end metrics.  Traced
runs (``--trace 1``) spend half of ``--seconds`` untraced and half with
the :mod:`tracer` wrappers installed, each on its own set-up, and report
the per-layer metrics; ``trace.overhead_ratio`` compares the two halves.

The timed region is the sum of the step calls and nothing else: set-up
(input generation, construction, forking, one warm-up step) happens
before the clock starts, and consuming and checking a step's output
happens between steps, with the clock stopped.  Every reported time is
in reference seconds (see :mod:`speed`); the record keeps the raw wall
clock beside it.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

import speed
from speed import Speed
from tracer import Tracer, read_worker_dumps
from workloads import WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
#: ``step_tail_ms`` is the highest of these percentiles that leaves at
#: least :data:`TAIL_BEYOND` steps above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
TAIL_BEYOND = 10
#: Calibration samples beside each set-up: one sample reads the host's
#: speed over half a millisecond, a set-up lasts a few hundred.
SETUP_SAMPLES = 8
#: Traced runs must reconcile: layer self times plus the unattributed
#: share equal the traced step wall time within this share.
RECONCILE_TOLERANCE = 0.01


class Timed:
    """What one closed-loop measurement saw."""

    def __init__(self, speed_profile: str) -> None:
        self.durations: List[float] = []
        self.cpu: List[float] = []
        self.worker_cpu_s = 0.0
        self.frames = 0
        self.speed = Speed(speed_profile)
        #: CPU time the hypervisor gave to other guests during the
        #: timed region, all CPUs (``None`` where the host hides it).
        self.host_steal_s: Optional[float] = None

    @property
    def seconds(self) -> float:
        """Raw wall-clock seconds in the steps."""
        return sum(self.durations)

    def scaled(self, values: List[float],
               cpu: bool = False) -> List[float]:
        """Per-step times in reference seconds (see
        :meth:`Speed.local_scales` for *cpu*)."""
        scales = self.speed.local_scales(len(values), cpu)
        return [value * scale for value, scale in zip(values, scales)]

    @property
    def frames_per_s(self) -> float:
        """Frames per reference second."""
        return self.frames / sum(self.scaled(self.durations))


def measure(workload: Workload, seconds: float,
            tracer: Optional[Tracer] = None) -> Timed:
    """Step *workload* until the steps add up to *seconds* of
    reference time."""
    timed = Timed(workload.speed_profile)
    gc.collect()
    worker_cpu = getattr(workload, "worker_cpu_s", None)
    worker_start = worker_cpu() if worker_cpu else 0.0
    steal_start = _host_steal_s()
    clock = time.perf_counter
    cpu_clock = time.process_time
    total = 0.0
    speed = timed.speed
    while not workload.exhausted():
        speed.sample()
        if total * speed.scale >= seconds and workload.at_boundary():
            break
        if tracer is not None:
            tracer.step = len(timed.durations)
        c0 = cpu_clock()
        t0 = clock()
        workload.step()
        t1 = clock()
        c1 = cpu_clock()
        if tracer is not None:
            tracer.step = -1
        timed.durations.append(t1 - t0)
        timed.cpu.append(c1 - c0)
        total += t1 - t0
        timed.frames += workload.after_step()
    if worker_cpu:
        timed.worker_cpu_s = worker_cpu() - worker_start
    if steal_start is not None:
        timed.host_steal_s = _host_steal_s() - steal_start
    return timed


def _host_steal_s() -> Optional[float]:
    """Seconds of steal time in ``/proc/stat``, summed over CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def set_up(cls, seed: int, repeats: int):
    """Set the workload up *repeats* times; keep the last one.

    Returns the workload, the set-up times and a :class:`Speed` sampled
    :data:`SETUP_SAMPLES` times before each set-up and after the last.
    """
    times = []
    speed = Speed(cls.speed_profile)
    for attempt in range(repeats):
        speed.sample(SETUP_SAMPLES)
        workload = cls(seed)
        start = time.perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        times.append(time.perf_counter() - start)
        if attempt < repeats - 1:
            workload.close()
    speed.sample(SETUP_SAMPLES)
    return workload, times, speed


def tail(durations: List[float]):
    """(value, percentile) of the highest ladder percentile with at
    least :data:`TAIL_BEYOND` samples above it."""
    ordered = sorted(durations)
    n = len(ordered)
    for pct in TAIL_LADDER:
        index = int(pct / 100.0 * n)
        if n - index - 1 >= TAIL_BEYOND:
            return ordered[index], pct
    return ordered[-1], 100.0


def end_to_end(timed: Timed, setup_times: List[float], setup_speed: Speed,
               workload: Workload):
    """The end-to-end metrics, and the run's raw wall-clock view."""
    steps = timed.scaled(timed.durations)
    tail_s, pct = tail(steps)
    cpu_s = sum(timed.scaled(timed.cpu, cpu=True)) \
        + timed.worker_cpu_s * timed.speed.cpu_scale
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setup_times) * setup_speed.cpu_scale,
        "frames_per_s": timed.frames / sum(steps),
        "step_p50_ms": statistics.median(steps) * 1e3,
        "step_tail_ms": tail_s * 1e3,
        "cpu_us_per_frame": cpu_s / timed.frames * 1e6,
        "peak_rss_mb": rss_mb + getattr(workload, "peak_worker_rss_mb", 0.0),
    }
    wall_tail_s, _ = tail(timed.durations)
    wall_clock = {
        "setup_s": statistics.median(setup_times),
        "frames_per_s": timed.frames / timed.seconds,
        "step_p50_ms": statistics.median(timed.durations) * 1e3,
        "step_tail_ms": wall_tail_s * 1e3,
        "cpu_us_per_frame": (sum(timed.cpu) + timed.worker_cpu_s)
        / timed.frames * 1e6,
    }
    n = len(steps)
    return values, {"tail_percentile": pct, "steps": n,
                    "tail_steps_beyond": n - int(pct / 100.0 * n) - 1,
                    "speed_scale": timed.speed.scale,
                    "cpu_speed_scale": timed.speed.cpu_scale,
                    "setup_speed_scale": setup_speed.cpu_scale,
                    "host_steal_s": timed.host_steal_s,
                    "wall_clock": wall_clock}


def _merge(dumps: List[dict]):
    layers: Dict[str, dict] = {}
    counters: Dict[str, int] = {}
    for dump in dumps:
        for name, agg in dump["layers"].items():
            into = layers.setdefault(name, dict.fromkeys(agg, 0))
            for key, value in agg.items():
                into[key] += value
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return layers, counters


def per_layer(workload: Workload, tracer: Tracer, traced: Timed,
              untraced: Timed, counters: Dict[str, int],
              dumps: Optional[List[dict]], setup_speed: Speed):
    """The per-layer metrics, plus the reconciliation verdict.

    Layer times are scaled to reference microseconds with the traced
    phase's CPU speed factor (the parent's, for layers timed inside
    shard workers).
    """
    layers = tracer.aggregate()
    us = 1e-3 * traced.speed.cpu_scale
    zero = {"calls": 0, "items": 0, "fused": 0, "self_ns": 0, "incl_ns": 0,
            "incl_items": 0, "negative_self": 0}

    def get(source, name):
        return source.get(name, zero)

    frames = traced.frames
    kernel_side, kernel_frames = layers, frames
    if dumps:
        # Process-mode shards: the kernel layers ran in the workers,
        # over every frame they received (warm-up included).
        kernel_side, counters = _merge(dumps)
        kernel_frames = get(kernel_side, "kernel.rx")["items"]

    def per(value, count, scale=1.0):
        return value / count * scale if count else 0.0

    deliver = [get(kernel_side, "path.deliver"),
               get(kernel_side, "path.deliver_batch")]
    path_msgs_outer = sum(d["incl_items"] for d in deliver)
    path_msgs = sum(d["items"] for d in deliver)
    path_fused = sum(d["fused"] for d in deliver)
    batch = deliver[1]
    classified = counters.get("classified", 0)
    wall_ns = traced.seconds * 1e9
    covered_ns = sum(rec[5] - rec[4] for rec in tracer.spans
                     if rec[1] < 0 and rec[2] >= 0)
    self_ns = sum(agg["self_ns"] for agg in layers.values())
    unattributed = 1.0 - covered_ns / wall_ns
    offer = get(layers, "shard.offer")
    pids = workload.worker_pids()
    mpeg = get(layers, "mpeg.feed")
    transmit = get(layers, "net.transmit")
    metrics = {
        "kernel.rx_burst.self_us_per_frame":
            per(get(kernel_side, "kernel.rx")["self_ns"], kernel_frames, us),
        "classify.batch_us_per_frame":
            per(get(kernel_side, "classify")["incl_ns"], kernel_frames, us),
        "classify.refinements_per_frame":
            per(counters.get("refinements", 0), classified),
        "flowcache.hit_ratio":
            per(counters.get("flow_cache_hits", 0), classified),
        "queues.enqueue_us_per_frame":
            per(get(kernel_side, "queues.enqueue")["incl_ns"], kernel_frames,
                us),
        "queues.overflow_ratio":
            per(counters.get("inq_overflow", 0), kernel_frames),
        "sim.run.self_us_per_frame":
            per(get(kernel_side, "sim.run")["self_ns"], kernel_frames, us),
        "sim.events_per_frame": per(counters.get("events", 0),
                                    kernel_frames),
        "path.deliver_us_per_msg":
            per(sum(d["incl_ns"] for d in deliver), path_msgs_outer, us),
        "path.msgs_per_batch": per(batch["items"], batch["calls"]),
        "path.slowpath_share": per(path_msgs - path_fused, path_msgs),
        "mpeg.feed_us_per_packet": per(mpeg["incl_ns"], mpeg["calls"], us),
        "mpeg.synthesize_s": getattr(workload, "synthesize_s", 0.0)
        * setup_speed.cpu_scale,
        "net.transmit_us_per_frame":
            per(transmit["incl_ns"], transmit["calls"], us),
        "shard.dispatch_us_per_frame":
            per(get(layers, "shard.dispatch")["incl_ns"], frames, us),
        "shard.codec_us_per_frame":
            per(get(layers, "shard.codec")["incl_ns"], frames, us),
        "shard.wait_share": per(offer["self_ns"], offer["incl_ns"]),
        "shard.worker_busy_share":
            per(traced.worker_cpu_s, len(pids) * traced.seconds),
        "trace.overhead_ratio": per(traced.frames_per_s,
                                    untraced.frames_per_s),
        "trace.unattributed_share": unattributed,
    }
    negative = sum(agg["negative_self"] for agg in layers.values())
    gap = self_ns / wall_ns + unattributed - 1.0
    reconcile = {"layer_self_share": self_ns / wall_ns,
                 "unattributed_share": unattributed, "gap": gap,
                 "negative_self_spans": negative,
                 "tolerance": RECONCILE_TOLERANCE,
                 "ok": abs(gap) <= RECONCILE_TOLERANCE and not negative}
    return metrics, reconcile


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": _commit(),
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
    }


def metric_units() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, per section of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def run(workload_name: str, seed: int, seconds: float,
        trace: bool) -> int:
    """One benchmark run; prints the record and the result lines."""
    try:
        return _run(workload_name, seed, seconds, trace)
    finally:
        speed.shutdown()


def _run(workload_name: str, seed: int, seconds: float,
         trace: bool) -> int:
    cls = WORKLOADS[workload_name]
    units = metric_units()["per_layer" if trace else "end_to_end"]
    os.makedirs(OUT_DIR, exist_ok=True)
    failures: List[str] = []
    record: Dict[str, object] = {"workload": workload_name, "seed": seed,
                                 "seconds": seconds, "trace": int(trace),
                                 "environment": environment()}
    if not trace:
        workload, setup_times, setup_speed = set_up(cls, seed,
                                                    cls.setup_repeats)
        try:
            timed = measure(workload, seconds)
            workload.finish()
            failures += workload.check()
            values, tail_info = end_to_end(timed, setup_times, setup_speed,
                                           workload)
        finally:
            workload.close()
        attempted = len(timed.durations)
        record.update(tail_info, setup_s_samples=setup_times,
                      frames=timed.frames, timed_s=timed.seconds)
    else:
        half = seconds / 2.0
        plain = set_up(cls, seed, 1)[0]
        try:
            untraced = measure(plain, half)
            plain.finish()
            failures += plain.check()
        finally:
            plain.close()
        # Wrappers go in before construction: the kernel binds its
        # receive handler and the fabric forks its workers there.
        tracer = Tracer(OUT_DIR)
        tracer.install()
        try:
            workload, _, setup_speed = set_up(cls, seed, 1)
            before = workload.counters()
            traced = measure(workload, half, tracer)
            after = workload.counters()
        finally:
            tracer.uninstall()
        try:
            workload.finish()
            failures += workload.check()
            pids = workload.worker_pids()
            dumps = read_worker_dumps(OUT_DIR, pids) if pids else None
            if pids and dumps is None:
                failures.append("trace.worker_dumps: a shard worker wrote "
                                "no trace dump")
            counters = {k: after[k] - before.get(k, 0) for k in after}
            values, reconcile = per_layer(workload, tracer, traced,
                                          untraced, counters, dumps,
                                          setup_speed)
        finally:
            workload.close()
        if not reconcile["ok"]:
            failures.append(f"trace.reconcile: {reconcile}")
        spans_path = os.path.join(
            OUT_DIR, f"spans-{workload_name}-s{seed}.tsv")
        tracer.write(spans_path)
        attempted = len(untraced.durations) + len(traced.durations)
        record.update(reconcile=reconcile, spans=os.path.relpath(
            spans_path, ROOT), frames=untraced.frames + traced.frames,
            traced_steps=len(traced.durations))
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(attempted, len(failures)) if failures else 0,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record["failures"] = failures
    with open(os.path.join(OUT_DIR, f"result-{workload_name}-s{seed}"
                                    f"-t{int(trace)}.json"), "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if not failures else 1
