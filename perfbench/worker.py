"""One repetition of one workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/worker.py --workload W --seed S
[--traced --spans PATH]`` with ``src`` on ``PYTHONPATH``.  Prints one
JSON object on its last stdout line: the simulation's exact
protocol-plane data, its wall-clock figures, its trace fingerprint and
the failures of the checks it ran.  With ``--traced`` the entry points
of every layer are wrapped (see ``tracer.py``), observability is on,
and the object also carries the per-layer metrics.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

from calibrate import REF_CHUNK_S, calibration_chunk, run_calibrated  # noqa: E402

_CAL_AT_START = sorted(calibration_chunk() for _ in range(5))
_T_CALIBRATED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import TX_SIZE, WORKLOADS, Workload, make_experiment  # noqa: E402

#: Message classes reported one by one in ``bytes_per_tx.<class>``: every
#: class that carries at least 1 % of the bytes on some workload.  The
#: rest are summed into ``bytes_per_tx.other``.
BYTE_CLASSES = (
    "PayloadMsg",
    "PayloadResponseMsg",
    "ProposalHeaderMsg",
    "VoteMsg",
    "ChunkShareMsg",
    "ChunkResponseMsg",
)


def percentile(samples: List[float], q: float) -> float:
    from repro.measure.stats import percentile as _percentile

    return _percentile(samples, q) if samples else 0.0


def committed_tx_keys(cluster) -> set:
    """Keys of every transaction some honest replica committed."""
    keys = set()
    for replica in cluster.replicas:
        if replica.replica_id in cluster.honest_ids:
            ledger = replica.ledger
            for block in ledger.blocks_in_range(0, ledger.height):
                keys.update((tx.client_id, tx.seq) for tx in block.payload.transactions)
    return keys


def protocol_data(workload: Workload, cluster) -> Dict[str, object]:
    """The simulation's exact protocol-plane figures."""
    config = cluster.config
    collector = cluster.collector
    honest = [r for r in cluster.replicas if r.replica_id in cluster.honest_ids]
    latencies = collector.tx_latencies(config.max_sim_time)
    submitted = sum(
        1 for tx in cluster.workload.submitted.values() if tx.submitted_at >= workload.warmup
    )
    by_class: Dict[str, int] = {}
    for (_sender, name), size in cluster.trace.bytes_by_node_class.items():
        by_class[name] = by_class.get(name, 0) + size
    return {
        "latencies_s": latencies,
        "submitted": submitted,
        "committed": len(latencies),
        "committed_all": len(committed_tx_keys(cluster)),
        "bytes": cluster.trace.counters.get("bytes", 0),
        "bytes_by_class": dict(sorted(by_class.items())),
        "max_gap_s": collector.max_commit_gap(workload.warmup, config.max_sim_time),
        "committed_blocks": collector.committed_blocks(),
        "at_risk_blocks": max(r.ledger.at_risk_count for r in honest),
        "epoch_changes": max(r.epoch for r in honest) - 1,
    }


def fingerprint(cluster) -> str:
    """Trace fingerprint with the honest ledger hashes folded in."""
    ledger_state = b"".join(
        h
        for replica in cluster.replicas
        if replica.replica_id in cluster.honest_ids
        for h in replica.ledger.all_hashes()
    )
    return cluster.trace.fingerprint(extra=ledger_state)


def run_checks(cluster, data: Dict[str, object]) -> List[str]:
    from repro.runner.cluster import check_safety

    failures = []
    if not check_safety(cluster.replicas, cluster.honest_ids):
        failures.append("honest ledgers disagree (check_safety)")
    if cluster.wire is not None and cluster.wire.bytes_total != data["bytes"]:
        failures.append(
            f"WireAccountant.bytes_total {cluster.wire.bytes_total} != "
            f"trace byte counter {data['bytes']}"
        )
    if sum(data["bytes_by_class"].values()) != data["bytes"]:
        failures.append("per-class trace bytes do not add up to the trace byte counter")
    return failures


class Observers:
    """Counters the traced run keeps at a few entry points."""

    def __init__(self, small_threshold: int) -> None:
        self.small_threshold = small_threshold
        self.small_delays: List[float] = []
        self.large_delays: List[float] = []
        self.cancels = 0
        self.responses = 0
        self.useful_responses = 0

    def table(self):
        return {
            ("net", "delay"): self.delay,
            ("sim", "cancel"): self.cancel,
            ("dissem", "response"): self.response,
        }

    def delay(self, fn, args, kwargs):
        delay = fn(*args, **kwargs)
        if delay is not None:
            size = args[4]
            (self.small_delays if size <= self.small_threshold else self.large_delays).append(delay)
        return delay

    def cancel(self, fn, args, kwargs):
        if not args[0].cancelled:
            self.cancels += 1
        return fn(*args, **kwargs)

    def response(self, fn, args, kwargs):
        # A response is useful when it adds a share to the block's share
        # table; the table is the manager's own state, read before and
        # after the call.
        manager, msg = args[0], args[2]
        state = manager._blocks.get(msg.block_hash)
        before = len(state.shares) if state is not None else 0
        result = fn(*args, **kwargs)
        state = manager._blocks.get(msg.block_hash)
        self.responses += 1
        if state is not None and len(state.shares) > before:
            self.useful_responses += 1
        return result


def layer_metrics(
    cluster,
    data: Dict[str, object],
    tracer: Tracer,
    observers: Observers,
    traced_total: float,
) -> Dict[str, float]:
    """Every per-layer metric the traced run itself can give."""
    from repro.analysis.models import PerformanceModel
    from repro.bench.common import block_bytes, delta_big
    from repro.codec import size_cache_stats
    from repro.obs.analyze import PHASE_NAMES, summarize_recording

    summary = tracer.summarize()

    def calls(name: str) -> float:
        return float(summary.get(name, {}).get("calls", 0))

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    trace = cluster.trace
    config = cluster.config
    honest = [r for r in cluster.replicas if r.replica_id in cluster.honest_ids]
    guards = [r.guard for r in honest if r.guard is not None]
    ledger = max((r.ledger for r in honest), key=lambda ledger: ledger.height)
    blocks = ledger.blocks_in_range(0, ledger.height)
    txs_per_block = sum(len(b.payload.transactions) for b in blocks) / max(len(blocks), 1)
    size_stats = size_cache_stats()
    sizes = size_stats["hits"] + size_stats["misses"]
    total_bytes = trace.counters.get("bytes", 0)
    committed_all = data["committed_all"]

    out: Dict[str, float] = {f"{layer}.self_s": self_s(layer) for layer in LAYERS}
    out.update(
        {
            "sim.events": float(cluster.scheduler.events_processed),
            "sim.cancelled_share": observers.cancels / max(calls("sim.schedule"), 1.0),
            "net.send_calls": calls("net.send"),
            "net.broadcast_calls": calls("net.broadcast"),
            "net.messages": float(trace.counters.get("messages", 0)),
            "net.bytes": float(total_bytes),
            "net.leader_egress_share": max(trace.bytes_sent_by_node.values(), default=0)
            / max(total_bytes, 1),
            "net.small_delay_p99_ms": percentile(observers.small_delays, 99) * 1e3,
            "net.large_delay_p99_ms": percentile(observers.large_delays, 99) * 1e3,
            "codec.size_memo_hit_ratio": size_stats["hits"] / max(sizes, 1),
            "crypto.verify_s": self_s("crypto.verify") + self_s("crypto.batch_verify"),
            "crypto.merkle_s": self_s("crypto.merkle"),
            "core.handle_calls": calls("core.handle"),
            "core.handle_self_s": self_s("core.handle"),
            "core.timer_calls": calls("core.timer"),
            "consensus.commit_calls": calls("consensus.commit"),
            "consensus.epoch_changes": float(data["epoch_changes"]),
            "mempool.add_calls": calls("mempool.add"),
            "mempool.take_batch_calls": calls("mempool.take_batch"),
            "mempool.txs_per_block": txs_per_block,
            "dissem.pull_requests": float(trace.messages_by_type.get("ChunkRequestMsg", 0)),
            "dissem.pull_retries": float(trace.counters.get("dissem_rotate", 0)),
            "dissem.useful_response_ratio": observers.useful_responses
            / max(observers.responses, 1),
            "recovery.checkpoint_certs": float(trace.counters.get("checkpoint", 0)),
            "guard.delay_samples": float(sum(g.samples_seen for g in guards)),
            "guard.violations": float(sum(g.violation_count for g in guards)),
            "guard.at_risk_share": data["at_risk_blocks"] / max(data["committed_blocks"], 1),
            "obs.wire_account_calls": calls("obs.wire_account"),
            "obs.wire_account_s": self_s("obs.wire_account"),
            "obs.span_calls": calls("obs.span"),
            "obs.trace_count_s": self_s("obs.trace_count"),
            "runner.observe_commit_s": self_s("runner.observe_commit"),
            "other.self_s": traced_total - tracer.root_time(),
        }
    )
    for key in ("encode", "decode", "size"):
        out[f"codec.{key}_calls"] = calls(f"codec.{key}")
        out[f"codec.{key}_s"] = self_s(f"codec.{key}")
    for key in ("sign", "verify", "batch_verify", "aggregate"):
        out[f"crypto.{key}_calls"] = calls(f"crypto.{key}")
    for key in ("erasure_encode", "erasure_decode"):
        out[f"crypto.{key}_calls"] = calls(f"crypto.{key}")
        out[f"crypto.{key}_s"] = self_s(f"crypto.{key}")

    recording = summarize_recording(
        cluster.obs,
        delta=config.protocol_config.delta,
        small_threshold=config.network_config.small_threshold,
    )
    phase_p50 = {row["phase"]: row["p50_ms"] for row in recording.phase_rows}
    for phase in PHASE_NAMES:
        out[f"phase.{phase}_p50_ms"] = float(phase_p50.get(phase, 0.0))

    by_class = data["bytes_by_class"]
    for name in BYTE_CLASSES:
        out[f"bytes_per_tx.{name}"] = by_class.get(name, 0) / committed_all
    out["bytes_per_tx.other"] = (
        sum(size for name, size in by_class.items() if name not in BYTE_CLASSES) / committed_all
    )

    pconf = config.protocol_config
    max_block = block_bytes(pconf.max_batch, TX_SIZE)
    floor = PerformanceModel(config.network_config).predict(
        "alterbft",
        pconf,
        block_bytes(round(txs_per_block), TX_SIZE),
        delta_big(max_block, config.network_config),
        txs_per_block,
    )
    out["model.latency_floor_ms"] = floor.commit_latency * 1e3
    return out


def byte_class_check(metrics: Dict[str, float], data: Dict[str, object]) -> List[str]:
    """``bytes_per_tx.<class>`` × committed transactions must give back the
    trace byte counter exactly."""
    committed_all = data["committed_all"]
    rebuilt = sum(
        round(value * committed_all)
        for name, value in metrics.items()
        if name.startswith("bytes_per_tx.")
    )
    if rebuilt != data["bytes"]:
        return [f"bytes_per_tx by class rebuilds {rebuilt} B, trace counted {data['bytes']} B"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    import repro.runner.cluster as cluster_module

    t_imported = time.perf_counter()
    config = make_experiment(workload, args.seed, observability=args.traced)
    tracer = observers = None
    if args.traced:
        tracer = Tracer()
        observers = Observers(config.network_config.small_threshold)
        tracer.install(observers=observers.table())
        tracer.recording = True
    t_build = time.perf_counter()
    cluster = cluster_module.build_cluster(config)
    t_built = time.perf_counter()
    setup_end = time.monotonic()
    if tracer is None:
        cal_at_setup = sorted(calibration_chunk() for _ in range(5))
        cluster.start()
        wall_s, ref_s = run_calibrated(cluster)
    else:
        cluster.start()
        cluster.run()
        t_ran = time.perf_counter()
        tracer.recording = False
        wall_s = ref_s = t_ran - t_built

    data = protocol_data(workload, cluster)
    result: Dict[str, object] = {
        "seed": args.seed,
        "import_s": t_imported - _T_CALIBRATED,
        "build_s": t_built - t_build,
        "setup_end_monotonic": setup_end,
        # Subtracted from the setup time the parent measures: the five
        # calibration chunks run before the imports.
        "setup_calibration_s": _T_CALIBRATED - _T_START,
        "wall_s": wall_s,
        "ref_s": ref_s,
        "events": cluster.scheduler.events_processed,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": fingerprint(cluster),
        "protocol": data,
        "failures": run_checks(cluster, data),
    }
    if tracer is None:
        # Reference seconds per wall second during setup: the chunks
        # before the imports and after build_cluster, medians averaged.
        result["setup_ref_ratio"] = REF_CHUNK_S * 2.0 / (_CAL_AT_START[2] + cal_at_setup[2])
    else:
        failures = tracer.check(t_build, t_ran)
        metrics = layer_metrics(cluster, data, tracer, observers, t_ran - t_build)
        failures += byte_class_check(metrics, data)
        result["layers"] = metrics
        result["spans"] = tracer.span_count
        result["failures"] += failures
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
