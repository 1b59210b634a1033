"""The benchmark's own self-test (``run.py --selftest``).

1. Runs every workload for one second, untraced and traced, in a child
   process each.  Every end-to-end metric must be printed with its unit
   and a positive value, and every per-layer metric with its unit, and
   nonzero on the workloads ``layers.json`` says its layer works on.
2. Corrupts one book per workload in-process and requires the matching
   correctness gate to fail.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from typing import Callable, Dict, List

import harness
from workloads import WORKLOADS

SECONDS = 1.0
SEED = 1
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _check_output(name: str, trace: int, units: Dict[str, str],
                  nonzero_on: Dict[str, List[str]]) -> List[str]:
    run_py = os.path.join(harness.HERE, "run.py")
    proc = subprocess.run(
        [sys.executable, run_py, "--workload", name, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=600)
    where = f"{name} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-800:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append(f"{where}: metrics {sorted(set(metrics) ^ set(units))}"
                        f" missing or unexpected")
    for metric, unit in units.items():
        entry = metrics.get(metric, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{where}: {metric} unit {entry.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {metric} value {value!r}")
            continue
        if trace == 0 and value <= 0:
            problems.append(f"{where}: {metric} = {value}, want > 0")
        if trace == 1 and name in nonzero_on[metric] and value == 0:
            problems.append(f"{where}: {metric} is 0 but its layer works "
                            f"on this workload")
    return problems


def _corrupt_udp_warm(workload) -> None:
    workload.step()
    workload.kernel.test.received.pop()
    workload.after_step()


def _corrupt_udp_churn(workload) -> None:
    workload.kernel.inq_overflow_drops += 1


def _corrupt_video_loaded(workload) -> None:
    workload.step()
    workload.after_step()
    workload.current.session.sink.presented += 1


def _corrupt_shard_fabric(workload) -> None:
    workload.fabric.ledgers[0].inject(10 ** 9)


#: Workload -> (corruption, the check that must then fail).
CORRUPTIONS: Dict[str, tuple] = {
    "udp_warm": (_corrupt_udp_warm, "udp_warm.streams"),
    "udp_churn": (_corrupt_udp_churn, "udp_churn.drop_totals"),
    "video_loaded": (_corrupt_video_loaded, "video_loaded.presented"),
    "shard_fabric": (_corrupt_shard_fabric, "shard_fabric.books"),
}


def _check_gate(name: str, corrupt: Callable, gate: str) -> List[str]:
    workload = harness.set_up(WORKLOADS[name], SEED, 1)[0]
    try:
        harness.measure(workload, 0.2)
        corrupt(workload)
        workload.finish()
        failures = workload.check()
    finally:
        workload.close()
    if not any(f.startswith(gate + ":") for f in failures):
        return [f"{name}: corrupted book passed gate {gate} "
                f"(failures: {failures})"]
    return []


def main() -> int:
    with open(os.path.join(harness.HERE, "layers.json")) as fh:
        layers = json.load(fh)["per_layer"]
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = harness.metric_units()
    problems: List[str] = []
    if set(layers) != set(units["per_layer"]):
        problems.append("layers.json and BENCHMARK.json per_layer differ: "
                        f"{sorted(set(layers) ^ set(units['per_layer']))}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the code")
    nonzero_on = {name: entry["nonzero_on"] for name, entry in layers.items()}
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            found = _check_output(name, trace, units[section], nonzero_on)
            print(f"selftest: {name} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for name, (corrupt, gate) in CORRUPTIONS.items():
        found = _check_gate(name, corrupt, gate)
        print(f"selftest: {name} corrupted book -> {gate}: "
              f"{'caught' if not found else 'MISSED'}", flush=True)
        problems += found
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print(f"selftest: {'passed' if not problems else 'FAILED'}")
    return 0 if not problems else 1
