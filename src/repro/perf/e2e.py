"""End-to-end benchmarks: seeded E3 clusters, wall-clock metrics.

Each configuration runs the full AlterBFT stack (protocol, crypto,
codec-sized network, scheduler) exactly as experiment E3 does, and
reports higher-is-better rates:

* ``events_per_sec`` — simulated events executed per wall-second, the
  simulator's raw engine speed;
* ``tx_per_sec`` — committed transactions per wall-second, the
  end-to-end regeneration speed of the paper's experiments.

Every repetition must produce a byte-identical trace fingerprint —
determinism is asserted here, so a perf regression gate never passes on
a run whose optimizations changed simulation behavior.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..bench.common import make_config
from ..runner.cluster import build_cluster
from ..sim.tracing import Trace
from .timing import BenchResult, summarize


@dataclass(frozen=True)
class E2EConfig:
    """One seeded end-to-end operating point.

    ``overrides`` are extra :class:`repro.config.ProtocolConfig` fields
    as a tuple of (name, value) pairs — a tuple, not a dict, so the
    config stays frozen/hashable and picklable for worker processes.
    """

    label: str
    rate: float
    f: int
    duration: float
    seed: int
    overrides: Tuple[Tuple[str, object], ...] = ()


#: The E3 operating points benchmarked end to end: the paper's main
#: experiment sweeps offered load at f=1; the f=3 point exercises the
#: n=7 quorum/certificate paths that dominate at larger clusters.  The
#: ``_aggcrypto`` twin of the f=3 point runs the identical workload with
#: lazy batched vote verification and aggregate certificates on, so a
#: stored baseline exposes both the wall-clock and the wire-byte deltas
#: of the crypto batching layer at the cert-heavy operating point.
FULL_CONFIGS: Tuple[E2EConfig, ...] = (
    E2EConfig("e3_r2000_f1", rate=2000.0, f=1, duration=4.0, seed=3),
    E2EConfig("e3_r8000_f1", rate=8000.0, f=1, duration=4.0, seed=3),
    E2EConfig("e3_r2000_f3", rate=2000.0, f=3, duration=4.0, seed=3),
    E2EConfig(
        "e3_r2000_f3_aggcrypto",
        rate=2000.0,
        f=3,
        duration=4.0,
        seed=3,
        overrides=(("crypto_batch", True), ("crypto_aggregate", True)),
    ),
    # An E5 scalability point (n=9): the leader-egress-share gate is only
    # meaningful where leader fan-out dominates, which needs a cluster
    # larger than the E3 points' n=3/n=7.
    E2EConfig("e5_n9_f4", rate=1000.0, f=4, duration=3.0, seed=5),
    # The chunked twin of the E5 point: erasure-coded pull-based
    # dissemination on.  Gating its leader-egress share and bytes per
    # commit against a stored baseline keeps the dissemination layer's
    # bandwidth win from silently eroding.
    E2EConfig(
        "e5_n9_f4_dissem",
        rate=1000.0,
        f=4,
        duration=3.0,
        seed=5,
        overrides=(("dissemination", True),),
    ),
)

#: The fast (CI smoke) subset runs the same operating point as the full
#: suite — identical label, duration, and seed, just fewer repetitions —
#: so its entries compare one-to-one against a full-run baseline.
FAST_CONFIGS: Tuple[E2EConfig, ...] = (
    E2EConfig("e3_r2000_f1", rate=2000.0, f=1, duration=4.0, seed=3),
)


def run_one(config: E2EConfig) -> Tuple[float, int, int, str, Trace, Dict[str, float]]:
    """One seeded run: (wall s, events, committed txs, fingerprint, trace, wire stats).

    Wire accounting is **on**: its counters are observationally inert
    (same fingerprint with or without, asserted in tests/test_wire.py),
    and the stats it yields — total wire bytes, leader-egress share,
    bytes per commit — are regression-gated alongside the wall-clock
    metrics.  A protocol change that bloats messages or re-centralizes
    egress on the leader fails the perf gate even if it runs no slower.
    """
    cfg = make_config(
        "alterbft",
        f=config.f,
        rate=config.rate,
        duration=config.duration,
        seed=config.seed,
        wire_accounting=True,
        **dict(config.overrides),
    )
    t0 = time.perf_counter()
    cluster = build_cluster(cfg)
    cluster.start()
    cluster.run()
    wall = time.perf_counter() - t0
    ledger_state = b"".join(
        h
        for replica in cluster.replicas
        if replica.replica_id in cluster.honest_ids
        for h in replica.ledger.all_hashes()
    )
    fingerprint = cluster.trace.fingerprint(extra=ledger_state)
    committed = cluster.collector.committed_tx_count(cfg.max_sim_time)
    wire = cluster.wire
    assert wire is not None
    # The accountant reads the trace's send tally, so these two totals
    # agree by construction; the check guards that wiring.
    if wire.bytes_total != cluster.trace.counters.get("bytes", 0):
        raise AssertionError(
            f"{config.label}: wire accountant ({wire.bytes_total} B) disagrees "
            f"with trace counters ({cluster.trace.counters.get('bytes', 0)} B)"
        )
    # Independent of the tally: account() attributes each message to its
    # (epoch, height) itself, and those totals must cover every send.
    attributed = (sum(wire.height_bytes.values()), sum(wire.epoch_bytes.values()))
    if attributed != (wire.bytes_total,) * 2:
        raise AssertionError(f"{config.label}: (height, epoch) bytes {attributed} != tally")
    wire_stats = {
        "wire_bytes_total": float(wire.bytes_total),
        "leader_egress_share": wire.leader_egress_share(),
        "bytes_per_commit": wire.bytes_per_commit(cluster.collector.committed_blocks()),
    }
    return (
        wall,
        cluster.scheduler.events_processed,
        committed,
        fingerprint,
        cluster.trace,
        wire_stats,
    )


def bench_e2e(config: E2EConfig, reps: int) -> List[BenchResult]:
    """Run one operating point ``reps`` times; assert determinism."""
    walls: List[float] = []
    fingerprints: List[str] = []
    traces: List[Trace] = []
    events = committed = 0
    wire_stats: Dict[str, float] = {}
    for _ in range(reps):
        wall, events, committed, fingerprint, trace, wire_stats = run_one(config)
        walls.append(wall)
        fingerprints.append(fingerprint)
        traces.append(trace)
    if len(set(fingerprints)) != 1:
        raise AssertionError(
            f"{config.label}: non-deterministic run — fingerprints {set(fingerprints)}"
        )
    # Sweep-wide wire totals: the per-rep traces merged into one.
    sweep = Trace.merged(traces).summary()
    meta = {
        "rate": config.rate,
        "f": config.f,
        "duration": config.duration,
        "seed": config.seed,
        **({"overrides": dict(config.overrides)} if config.overrides else {}),
        "events": events,
        "committed_txs": committed,
        "fingerprint": fingerprints[0],
        "sweep_messages": sweep["messages"],
        "sweep_bytes": sweep["bytes"],
    }
    results = [
        summarize(
            f"e2e.{config.label}.events_per_sec",
            "events/s",
            "higher",
            [events / w for w in walls],
            meta,
        ),
        summarize(
            f"e2e.{config.label}.tx_per_sec",
            "tx/s",
            "higher",
            [committed / w for w in walls],
            meta,
        ),
        summarize(
            f"e2e.{config.label}.wall",
            "s/run",
            "lower",
            walls,
            meta,
        ),
    ]
    # Wire-shape gates: exact per-run values (determinism is asserted
    # above, so reps agree bit-for-bit — repeated only so the stored
    # shape matches the timing benchmarks).  Direction "lower": more
    # bytes per run/commit or a more leader-concentrated egress profile
    # is a bandwidth regression under the paper's model.
    for wire_name, unit in (
        ("wire_bytes_total", "B/run"),
        ("leader_egress_share", "share"),
        ("bytes_per_commit", "B/commit"),
    ):
        results.append(
            summarize(
                f"e2e.{config.label}.{wire_name}",
                unit,
                "lower",
                [wire_stats[wire_name]] * reps,
                meta,
            )
        )
    return results


def run_e2e(fast: bool) -> List[BenchResult]:
    configs = FAST_CONFIGS if fast else FULL_CONFIGS
    reps = 2 if fast else 3
    results: List[BenchResult] = []
    for config in configs:
        results += bench_e2e(config, reps)
    return results
