"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload steady-n3 --seed 1 --seconds 30 --trace 0

Runs repetitions of the workload, each in a fresh interpreter
(``worker.py``), one after another, until ``--seconds`` is used up.  The
repetitions cycle through the workload's simulation seeds, derived from
``--seed``; every seed runs at least once and the first one at least
twice.

``--trace 0`` prints the end-to-end metrics: the protocol plane (sim
latency, throughput, bytes, failures) pooled over the seeds, and the
implementation plane (simulator speed, setup time, memory) as medians
over the repetitions.  ``--trace 1`` alternates untraced and traced
repetitions of the first seed and prints the per-layer metrics.

Every run checks its outputs: honest-ledger safety, byte-identical trace
fingerprints and bit-identical protocol data for repetitions of one
seed (traced or not), the wire accountant against the trace byte
counter where it is on, and in traced runs the self-time and per-class
byte cross-checks.  A failed check prints why on stderr and exits 1
without a result.  The last stdout line of a good run is the result
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run must end within this many seconds of starting, whatever happens.
RUN_LIMIT_S = 170.0

#: Where traced runs write their spans (relative to the checkout root).
SPANS_DIR = ".perfbench"


class CheckFailed(Exception):
    """A correctness check failed; the run yields no numbers."""


def load_spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Runner:
    """Spawns worker repetitions and keeps the run inside its limits."""

    def __init__(self, workload: Workload, seconds: float) -> None:
        self.workload = workload
        self.started = time.monotonic()
        self.deadline = self.started + seconds
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), self.env.get("PYTHONPATH", "")) if p
        )
        self.rep_seconds: List[float] = []

    def rep(self, seed: int, traced: bool = False) -> Dict[str, object]:
        """One repetition; an untraced one also gets its ``setup_s``."""
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload",
            self.workload.name,
            "--seed",
            str(seed),
        ]
        if traced:
            spans = ROOT / SPANS_DIR / f"spans-{self.workload.name}"
            cmd += ["--traced", "--spans", str(spans)]
        limit = self.started + RUN_LIMIT_S - time.monotonic()
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=limit
            )
        except subprocess.TimeoutExpired:
            raise CheckFailed(f"repetition of seed {seed} did not finish in time") from None
        self.rep_seconds.append(time.monotonic() - spawned)
        if proc.returncode != 0:
            raise CheckFailed(f"worker for seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if result["failures"]:
            raise CheckFailed(f"seed {seed}: " + "; ".join(result["failures"]))
        if not traced:
            setup_wall = result["setup_end_monotonic"] - spawned - result["setup_calibration_s"]
            result["setup_s"] = setup_wall * result["setup_ref_ratio"]
        return result

    def fits(self, seconds: float) -> bool:
        """Would ``seconds`` more of repetitions end before the deadline?"""
        return time.monotonic() + seconds <= self.deadline


def check_same(first: Dict[str, object], again: Dict[str, object], what: str) -> None:
    """Two repetitions of one seed must agree exactly."""
    if first["fingerprint"] != again["fingerprint"]:
        raise CheckFailed(
            f"{what}: trace fingerprints differ "
            f"({first['fingerprint'][:16]}… vs {again['fingerprint'][:16]}…)"
        )
    if first["protocol"] != again["protocol"]:
        raise CheckFailed(f"{what}: protocol-plane data differ")


def end_to_end(runner: Runner, seed: int) -> Tuple[Dict[str, float], int, int]:
    """Untraced repetitions; returns (metrics, attempted, failed)."""
    from repro.measure.stats import percentile

    workload = runner.workload
    seeds = workload.seeds(seed)
    first: Dict[int, Dict[str, object]] = {}
    reps: List[Dict[str, object]] = []
    while len(reps) <= len(seeds) or runner.fits(statistics.median(runner.rep_seconds)):
        sim_seed = seeds[len(reps) % len(seeds)]
        result = runner.rep(sim_seed)
        if sim_seed in first:
            check_same(first[sim_seed], result, f"seed {sim_seed} run twice")
        else:
            first[sim_seed] = result
        reps.append(result)

    data = [first[s]["protocol"] for s in seeds]
    latencies = [lat for d in data for lat in d["latencies_s"]]
    submitted = sum(d["submitted"] for d in data)
    committed = sum(d["committed"] for d in data)
    if not latencies:
        raise CheckFailed("no transaction committed in the measurement window")
    beyond_p99 = len(latencies) - int(0.99 * len(latencies))
    print(
        f"{workload.name} seed {seed}: {len(reps)} repetitions over simulation seeds "
        f"{list(seeds)}; {len(latencies)} latency samples, {beyond_p99} beyond p99"
    )
    metrics = {
        "sim_events_per_s": statistics.median(r["events"] / r["ref_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "tx_latency_p50_ms": percentile(latencies, 50) * 1e3,
        "tx_latency_p99_ms": percentile(latencies, 99) * 1e3,
        "committed_tps": committed / (len(seeds) * workload.window),
        "committed_share": committed / submitted,
        "bytes_per_tx": sum(d["bytes"] for d in data) / sum(d["committed_all"] for d in data),
        "max_commit_gap_ms": statistics.median(d["max_gap_s"] for d in data) * 1e3,
    }
    return metrics, submitted, submitted - committed


def per_layer(runner: Runner, seed: int) -> Tuple[Dict[str, float], int, int]:
    """Untraced/traced repetition pairs of the first simulation seed."""
    sim_seed = runner.workload.seeds(seed)[0]
    plain: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    while not traced or runner.fits(sum(runner.rep_seconds[-2:])):
        plain.append(runner.rep(sim_seed))
        traced.append(runner.rep(sim_seed, traced=True))
        check_same(plain[0], plain[-1], f"seed {sim_seed} run twice")
        check_same(plain[0], traced[-1], f"seed {sim_seed} traced against untraced")

    names = traced[0]["layers"].keys()
    metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    metrics.update(
        {
            "runner.import_s": statistics.median(r["import_s"] for r in plain),
            "runner.build_cluster_s": statistics.median(r["build_s"] for r in plain),
            "runner.wall_s": untraced_wall,
            "trace.overhead_ratio": statistics.median(r["wall_s"] for r in traced)
            / untraced_wall,
        }
    )
    print(
        f"{runner.workload.name} seed {seed}: {len(plain)} untraced/traced pairs of "
        f"simulation seed {sim_seed}; {traced[-1]['spans']} spans per traced run, "
        f"written under {SPANS_DIR}/"
    )
    data = plain[0]["protocol"]
    return metrics, data["submitted"], data["submitted"] - data["committed"]


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--record", type=Path, help="also append {workload, seed, trace, result} to this JSONL file"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    runner = Runner(WORKLOADS[args.workload], args.seconds)
    try:
        measure = per_layer if args.trace else end_to_end
        values, attempted, failed = measure(runner, args.seed)
        names = [m["name"] for m in wanted]
        if sorted(values) != sorted(names):
            raise CheckFailed(
                "metrics do not match BENCHMARK.json: "
                f"missing {sorted(set(names) - set(values))}, "
                f"extra {sorted(set(values) - set(names))}"
            )
    except CheckFailed as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        return 1
    for metric in wanted:
        print(f"  {metric['name']:<36} {values[metric['name']]:>16.6f} {metric['unit']}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    if args.record is not None:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "result": result}
        with open(args.record, "a") as out:
            out.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
