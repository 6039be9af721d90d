"""Span tracing around the public entry points of each layer.

The tracer wraps functions and methods *at the name their caller looks
up*: class methods are patched on the class before ``build_cluster``
runs (``SimNetwork.attach`` and ``SimContext`` capture bound methods
such as ``replica.handle`` and ``replica.on_timer`` at assembly time),
and module-level functions are patched in the namespace of the module
that calls them (``encode_shares`` in ``repro.dissem.manager``, not in
``repro.crypto.erasure``).

Every call of a wrapped entry point records one span: entry point,
parent span, start and end.  Spans are kept in flat arrays in memory and
written out once, at the end.  A span's *self time* is its duration minus
the durations of its child spans; a layer's self time is the sum over its
spans.  :meth:`Tracer.check` is the self-time check: it fails when spans
are not properly nested, when the per-layer self times plus ``other``
(time inside the traced section but in no span) do not add up to the
traced total, or when an entry point is wrapped twice (a span whose
direct parent is a span of the same patched site).
"""

from __future__ import annotations

import importlib
import json
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Layer names, in report order.  Each is a package of ``repro``.
LAYERS: Tuple[str, ...] = (
    "sim",
    "net",
    "codec",
    "crypto",
    "core",
    "consensus",
    "mempool",
    "dissem",
    "recovery",
    "guard",
    "obs",
    "runner",
)

#: (layer, metric key, owner, attribute names).  ``owner`` is
#: ``module`` for a module-level name or ``module:Class`` for methods.
#: The metric key groups sites: ``codec.encode`` is every site where a
#: module calls the codec's ``encode`` through its own import.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim", "run", "repro.sim.scheduler:Scheduler", ("run",)),
    ("sim", "schedule", "repro.sim.scheduler:Scheduler", ("at",)),
    ("sim", "post", "repro.sim.scheduler:Scheduler", ("post_at",)),
    ("sim", "cancel", "repro.sim.scheduler:EventHandle", ("cancel",)),
    ("net", "send", "repro.net.simnet:SimNetwork", ("send",)),
    ("net", "broadcast", "repro.net.simnet:SimNetwork", ("broadcast",)),
    ("net", "delay", "repro.net.delay:HybridCloudDelayModel", ("sample",)),
    ("codec", "size", "repro.net.simnet", ("encoded_size",)),
    ("codec", "size", "repro.types.block", ("encoded_size",)),
    ("codec", "size", "repro.types.transaction", ("encoded_size",)),
    ("codec", "encode", "repro.types.block", ("encode",)),
    ("codec", "encode", "repro.types.transaction", ("encode",)),
    ("codec", "encode", "repro.types.certificates", ("encode",)),
    ("codec", "encode", "repro.dissem.manager", ("codec_encode",)),
    ("codec", "encode", "repro.recovery.wal", ("encode",)),
    ("codec", "decode", "repro.dissem.manager", ("codec_decode",)),
    ("codec", "decode", "repro.recovery.wal", ("decode",)),
    ("crypto", "sign", "repro.crypto.signatures:Signer", ("sign",)),
    ("crypto", "verify", "repro.crypto.signatures:Signer", ("verify", "verify_aggregate_digest")),
    (
        "crypto",
        "batch_verify",
        "repro.crypto.signatures:Signer",
        ("batch_verify_digest", "find_invalid_digest"),
    ),
    ("crypto", "aggregate", "repro.crypto.signatures:Signer", ("aggregate_digest",)),
    ("crypto", "erasure_encode", "repro.dissem.manager", ("encode_shares",)),
    ("crypto", "erasure_decode", "repro.dissem.manager", ("decode_shares",)),
    ("crypto", "merkle", "repro.crypto.merkle:MerkleTree", ("__init__", "prove")),
    (
        "crypto",
        "merkle",
        "repro.dissem.manager",
        ("verify_proof", "combine_proofs", "expand_multiproof"),
    ),
    ("core", "handle", "repro.consensus.replica:BaseReplica", ("handle",)),
    ("core", "timer", "repro.consensus.replica:BaseReplica", ("on_timer",)),
    ("core", "wakeup", "repro.consensus.replica:BaseReplica", ("_on_mempool_wakeup",)),
    ("consensus", "commit", "repro.consensus.ledger:Ledger", ("commit_chain",)),
    (
        "consensus",
        "quorum",
        "repro.consensus.replica:BaseReplica",
        ("record_vote", "record_blame", "verify_qc", "verify_blame_cert", "commit_through"),
    ),
    (
        "consensus",
        "store",
        "repro.consensus.blockstore:BlockStore",
        ("add_header", "add_payload", "chain_between", "prune_below"),
    ),
    ("consensus", "pacemaker", "repro.consensus.pacemaker:Pacemaker", ("enter_epoch", "handle_timer")),
    ("mempool", "add", "repro.mempool.mempool:Mempool", ("add",)),
    ("mempool", "take_batch", "repro.mempool.mempool:Mempool", ("take_batch",)),
    (
        "mempool",
        "upkeep",
        "repro.mempool.mempool:Mempool",
        ("remove_committed", "requeue_inflight"),
    ),
    ("mempool", "arrive", "repro.mempool.workload:WorkloadGenerator", ("_arrive",)),
    (
        "dissem",
        "push",
        "repro.dissem.manager:DisseminationManager",
        ("disseminate", "on_header", "on_chunk_share", "drop_blocks"),
    ),
    (
        "dissem",
        "pull",
        "repro.dissem.manager:DisseminationManager",
        ("on_chunk_request", "on_pull_timer", "on_nudge", "on_retry"),
    ),
    ("dissem", "response", "repro.dissem.manager:DisseminationManager", ("on_chunk_response",)),
    (
        "recovery",
        "checkpoint",
        "repro.recovery.manager:RecoveryManager",
        ("on_committed", "on_checkpoint_vote"),
    ),
    (
        "recovery",
        "catchup",
        "repro.recovery.manager:RecoveryManager",
        (
            "start_catchup",
            "on_retry",
            "on_status_request",
            "on_snapshot_request",
            "on_block_range_request",
            "on_status_response",
            "on_snapshot_response",
            "on_block_range_response",
        ),
    ),
    ("guard", "delay_sample", "repro.guard.monitor:SynchronyMonitor", ("on_network_delay",)),
    (
        "guard",
        "protocol",
        "repro.guard.monitor:SynchronyMonitor",
        (
            "on_probe_timer",
            "on_guard_probe",
            "on_guard_probe_echo",
            "on_delta_adjust",
            "on_delta_adjust_cert",
            "on_epoch_enter",
            "on_committed",
        ),
    ),
    ("obs", "wire_account", "repro.obs.wire:WireAccountant", ("account",)),
    ("obs", "wire_queue", "repro.obs.wire:WireAccountant", ("sample_queue",)),
    ("obs", "span", "repro.obs.recorder:SpanRecorder", ("mark", "event", "message")),
    ("obs", "trace_count", "repro.sim.tracing:Trace", ("count_message", "emit")),
    ("runner", "build_cluster", "repro.runner.cluster", ("build_cluster",)),
    ("runner", "observe_commit", "repro.runner.metrics:MetricsCollector", ("observe_commit",)),
)

#: Observer signature: observe(fn, args, kwargs) -> fn's result.  Lets an
#: entry point count something about its call (a size class, whether a
#: response was useful) inside its own span.
Observer = Callable[[Callable, tuple, dict], object]


@dataclass(frozen=True)
class Site:
    """One patched name."""

    layer: str
    key: str
    owner: str
    attr: str

    @property
    def name(self) -> str:
        return f"{self.owner}.{self.attr}"


def resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Records spans around wrapped entry points."""

    def __init__(self) -> None:
        self.sites: List[Site] = []
        self.recording = False
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("l")
        self._site_ids = array("H")
        self._stack: List[int] = [-1]
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, observers: Optional[Dict[Tuple[str, str], Observer]] = None) -> None:
        """Patch every entry point; ``observers`` is keyed by (layer, key)."""
        observers = observers or {}
        for layer, key, owner, attrs in ENTRY_POINTS:
            for attr in attrs:
                self.wrap(Site(layer, key, owner, attr), observers.get((layer, key)))

    def wrap(self, site: Site, observe: Optional[Observer] = None) -> None:
        """Patch one name with a span-recording wrapper."""
        target = resolve_owner(site.owner)
        if site.attr not in vars(target):
            raise AttributeError(f"{site.name} is not defined there; patch it where it is")
        fn = vars(target)[site.attr]
        site_id = len(self.sites)
        self.sites.append(site)
        setattr(target, site.attr, self._make_wrapper(site_id, fn, observe))
        self._patched.append((target, site.attr, fn))

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        for target, attr, fn in reversed(self._patched):
            setattr(target, attr, fn)
        self._patched.clear()

    def _make_wrapper(self, site_id: int, fn: Callable, observe: Optional[Observer]):
        tracer = self
        starts, ends, parents, site_ids, stack = (
            self._starts,
            self._ends,
            self._parents,
            self._site_ids,
            self._stack,
        )

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = len(ends)
            parents.append(stack[-1])
            site_ids.append(site_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(fn, args, kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # -- analysis ----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._ends)

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the children's durations.

        Call after recording has stopped.
        """
        starts, ends, parents = self._starts, self._ends, self._parents
        out = [ends[i] - starts[i] for i in range(len(ends))]
        for i, parent in enumerate(parents):
            if parent >= 0:
                out[parent] -= ends[i] - starts[i]
        return out

    def summarize(self, selfs: Optional[List[float]] = None) -> Dict[str, Dict[str, float]]:
        """Calls and self seconds per ``layer.key`` and per ``layer``."""
        if selfs is None:
            selfs = self.self_times()
        by_key: Dict[str, Dict[str, float]] = {}
        for i, site_id in enumerate(self._site_ids):
            site = self.sites[site_id]
            for name in (f"{site.layer}.{site.key}", site.layer):
                entry = by_key.setdefault(name, {"calls": 0, "self_s": 0.0})
                entry["calls"] += 1
                entry["self_s"] += selfs[i]
        return by_key

    def root_time(self) -> float:
        """Total duration of the spans with no parent."""
        return sum(
            self._ends[i] - self._starts[i]
            for i, parent in enumerate(self._parents)
            if parent < 0
        )

    def check(self, t_begin: float, t_end: float, tolerance: float = 1e-6) -> List[str]:
        """The self-time check over ``[t_begin, t_end]``; returns failures."""
        failures: List[str] = []
        starts, ends, parents, site_ids = self._starts, self._ends, self._parents, self._site_ids
        if len(self._stack) != 1:
            failures.append(f"{len(self._stack) - 1} spans still open")
        stacked: Dict[str, int] = {}
        last_child_end: Dict[int, float] = {}
        for i, parent in enumerate(parents):
            lo, hi = (t_begin, t_end) if parent < 0 else (starts[parent], ends[parent])
            if not lo <= starts[i] <= ends[i] <= hi:
                failures.append(f"span {i} ({self.sites[site_ids[i]].name}) escapes its parent")
                break
            if starts[i] < last_child_end.get(parent, lo):
                failures.append(f"span {i} overlaps an earlier sibling")
                break
            last_child_end[parent] = ends[i]
            name = self.sites[site_ids[i]].name
            if parent >= 0 and self.sites[site_ids[parent]].name == name:
                stacked[name] = stacked.get(name, 0) + 1
        for name, count in sorted(stacked.items()):
            failures.append(f"{name} wrapped twice: {count} spans nested in a span of the same site")
        selfs = self.self_times()
        summary = self.summarize(selfs)
        layer_self = sum(summary[layer]["self_s"] for layer in LAYERS if layer in summary)
        other = (t_end - t_begin) - self.root_time()
        total = t_end - t_begin
        if abs(layer_self + other - total) > tolerance:
            failures.append(
                f"layer self times {layer_self:.6f} s + other {other:.6f} s "
                f"!= traced total {total:.6f} s"
            )
        if min(selfs, default=0.0) < -tolerance:
            failures.append("a span has negative self time")
        return failures

    def write(self, path: Path) -> None:
        """Write the spans: ``<path>.json`` (sites, layout) and ``<path>.bin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as out:
            for column in (self._site_ids, self._parents, self._starts, self._ends):
                column.tofile(out)
        meta = {
            "spans": self.span_count,
            "columns": [
                ["site", self._site_ids.typecode, self._site_ids.itemsize],
                ["parent", self._parents.typecode, self._parents.itemsize],
                ["start_s", self._starts.typecode, self._starts.itemsize],
                ["end_s", self._ends.typecode, self._ends.itemsize],
            ],
            "sites": [[s.layer, s.key, s.name] for s in self.sites],
        }
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1))
