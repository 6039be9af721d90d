"""Self-tests of the benchmark's own checks.

    python3 perfbench/selftest.py

1. The compare step passes two identical result sets and flags a change
   of one tick (one unit in the last place) in a protocol-plane metric.
2. The self-time check passes a correctly traced run and fails once one
   entry point is wrapped twice.

Exits 0 when every self-test holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
import time
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from compare import compare  # noqa: E402
from tracer import Site, Tracer  # noqa: E402
from workloads import WORKLOADS, make_experiment  # noqa: E402


def compare_self_test(spec) -> List[str]:
    metrics = {
        m["name"]: {"value": 1.0 + i / 7.0, "unit": m["unit"]}
        for i, m in enumerate(spec["end_to_end"])
    }
    base = [
        {"workload": w["name"], "seed": seed, "trace": 0, "result": {"metrics": metrics}}
        for w in spec["workloads"]
        for seed in (1, 2, 3)
    ]
    problems = []
    if compare(base, copy.deepcopy(base), spec):
        problems.append("compare flags two identical result sets")
    ticked = copy.deepcopy(base)
    p99 = ticked[0]["result"]["metrics"]["tx_latency_p99_ms"]
    p99["value"] = math.nextafter(p99["value"], math.inf)
    findings = compare(base, ticked, spec)
    if not any("tx_latency_p99_ms changed" in f for f in findings):
        problems.append("compare misses a one-tick change in tx_latency_p99_ms")
    return problems


def traced_run(double_wrap: bool) -> List[str]:
    """A short traced steady-n3 simulation; returns the self-time check's failures."""
    from repro.runner.cluster import build_cluster

    config = make_experiment(WORKLOADS["steady-n3"], seed=7)
    config = dataclasses.replace(
        config,
        max_sim_time=0.3,
        warmup=0.1,
        workload=dataclasses.replace(config.workload, duration=0.2),
    )
    tracer = Tracer()
    tracer.install()
    if double_wrap:
        tracer.wrap(Site("mempool", "add", "repro.mempool.mempool:Mempool", "add"))
    try:
        tracer.recording = True
        begin = time.perf_counter()
        cluster = build_cluster(config)
        cluster.start()
        cluster.run()
        end = time.perf_counter()
        tracer.recording = False
    finally:
        tracer.uninstall()
    return tracer.check(begin, end)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = compare_self_test(spec)
    clean = traced_run(double_wrap=False)
    if clean:
        problems.append(f"self-time check fails a correct trace: {clean}")
    doubled = traced_run(double_wrap=True)
    if not any("wrapped twice" in failure for failure in doubled):
        problems.append("self-time check passes a double-wrapped entry point")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("self-tests passed" if not problems else f"{len(problems)} self-test(s) failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
