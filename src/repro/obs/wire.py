"""``repro.obs.wire`` — wire-level bandwidth and message-size accounting.

The paper's thesis is that *message size* decides which synchrony bound a
message can rely on; this module makes the byte flows that argument rests
on measurable.  A :class:`WireAccountant` covers every send in the
simulated network (:mod:`repro.net.simnet`) and the real transport
(:mod:`repro.net.transport`) and attributes each message's wire bytes
along five axes at once:

* **link** — (sender, receiver) pair;
* **message class** — the codec-registered wire type;
* **size class** — small (≤ the hybrid model's δ threshold) vs large;
* **protocol phase** — propose / payload / dissemination / vote /
  epoch_change / repair / recovery / guard / measure / client;
* **block coordinates** — epoch and height, where the message names them.

Each axis *telescopes*: its per-key byte (and message) counters sum
exactly to the wire totals, so a drill-down never silently loses traffic
— :func:`validate_wire_snapshot` asserts this, and the test suite pins it
for seeded runs.  Per-class log₂ size histograms and egress queueing
(backpressure) samples complete the picture the future real-cluster mode
needs on day one; :func:`to_prometheus_text` renders the standard text
exposition for that mode's scrapers, and the JSONL snapshot feeds the
``python -m repro.obs wire|bandwidth|queues`` drill-downs.

Each send is counted once, in a tally keyed by (src, dst, class name,
size): in the simulator the run's ``Trace.sends``, on the real transport
the accountant's own.  Every axis but (epoch, height), which
:meth:`WireAccountant.account` extracts per send, is a sum over that
tally computed when read (a few hundred keys against 10⁴–10⁵ sends).
Accounting is **observationally inert** — no RNG draws, no scheduler
posts, nothing the fingerprint hashes — so a seeded run with accounting
on is byte-identical to one without (asserted against the golden one).
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from operator import itemgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..sim.tracing import SendKey, sum_sends, tally_view
from .metrics import Histogram, MetricsRegistry

#: Snapshot schema version (bumped on incompatible layout changes).
WIRE_SCHEMA = 1

#: Log₂ byte buckets for per-class message-size histograms: 16 B … 8 MiB.
#: Small consensus messages land in the first few buckets; payloads and
#: snapshots in the upper ones — the two-orders-of-magnitude gap the
#: hybrid model relies on shows up as two separated modes.
SIZE_HISTOGRAM_BOUNDS: Tuple[float, ...] = tuple(float(2 ** i) for i in range(4, 24))

#: Epoch/height value for messages that name no block coordinate
#: (probes, status requests, client traffic).  Keeping them in a bucket —
#: rather than dropping them — is what lets the per-height and per-epoch
#: axes telescope to the same total as every other axis.
UNATTRIBUTED = -1

#: Canonical phase order for reports.
WIRE_PHASE_NAMES: Tuple[str, ...] = (
    "propose",
    "payload",
    "dissemination",
    "vote",
    "epoch_change",
    "repair",
    "recovery",
    "guard",
    "measure",
    "client",
    "other",
)


def _phase_map() -> Dict[str, str]:
    from ..dissem import DISSEM_WIRE_CLASSES
    from ..guard.monitor import GUARD_WIRE_CLASSES

    mapping = {
        # Leader dissemination: the proposal itself.
        "ProposalHeaderMsg": "propose",
        "SHProposalMsg": "propose",
        "HSProposalMsg": "propose",
        "PBFTPrePrepareMsg": "propose",
        # Large-payload dissemination (AlterBFT's split proposal).
        "PayloadMsg": "payload",
        # Vote floods.
        "VoteMsg": "vote",
        "PBFTPrepareMsg": "vote",
        "PBFTCommitMsg": "vote",
        # Leader replacement.
        "BlameMsg": "epoch_change",
        "BlameCertMsg": "epoch_change",
        "EquivocationProofMsg": "epoch_change",
        "StatusMsg": "epoch_change",
        "HSNewViewMsg": "epoch_change",
        "PBFTViewChangeMsg": "epoch_change",
        "PBFTNewViewMsg": "epoch_change",
        # On-demand repair of missed proposals/payloads.
        "PayloadRequestMsg": "repair",
        "PayloadResponseMsg": "repair",
        "BlockRequestMsg": "repair",
        "BlockResponseMsg": "repair",
        "PBFTSyncRequestMsg": "repair",
        "PBFTSyncReplyMsg": "repair",
        # Checkpointing and crash-recovery state transfer.
        "CheckpointVoteMsg": "recovery",
        "StatusRequestMsg": "recovery",
        "StatusResponseMsg": "recovery",
        "SnapshotRequestMsg": "recovery",
        "SnapshotResponseMsg": "recovery",
        "BlockRangeRequestMsg": "recovery",
        "BlockRangeResponseMsg": "recovery",
        # Delay characterization probes (repro.measure).
        "ProbeMsg": "measure",
        "ProbeAckMsg": "measure",
        # Client traffic over the real transport.
        "ClientRequestMsg": "client",
        "ClientReplyMsg": "client",
    }
    # The guard and dissemination modules own their wire-class sets — the
    # phase map follows them so a new message cannot silently land in
    # "other".
    for name in GUARD_WIRE_CLASSES:
        mapping[name] = "guard"
    for name in DISSEM_WIRE_CLASSES:
        mapping[name] = "dissemination"
    return mapping


_PHASE_OF: Optional[Dict[str, str]] = None


def classify_phase(class_name: str) -> str:
    """Protocol phase for a wire message class ("other" if unknown)."""
    global _PHASE_OF
    if _PHASE_OF is None:
        _PHASE_OF = _phase_map()
    return _PHASE_OF.get(class_name, "other")


def _build_ref_extractor(msg: object) -> Callable[[Any], Tuple[int, int]]:
    """Compile an (epoch, height) extractor for ``type(msg)``.

    Probed once per message class (the accountant memoizes the result),
    so the per-message cost is one dict hit plus attribute reads.  Order
    matters: a proposal's own header/block coordinates beat the view
    fields that may sit next to them.
    """
    unattributed = (UNATTRIBUTED, UNATTRIBUTED)
    if hasattr(msg, "header") and hasattr(getattr(msg, "header"), "epoch"):
        return lambda m: (m.header.epoch, m.header.height)
    if hasattr(msg, "block") and hasattr(getattr(msg, "block"), "epoch"):
        return lambda m: (m.block.epoch, m.block.height)
    if hasattr(msg, "vote"):
        vote = getattr(msg, "vote")
        if hasattr(vote, "epoch") and hasattr(vote, "height"):
            return lambda m: (m.vote.epoch, m.vote.height)
        if hasattr(vote, "height"):
            return lambda m: (UNATTRIBUTED, m.vote.height)
    if hasattr(msg, "blame") and hasattr(getattr(msg, "blame"), "epoch"):
        return lambda m: (m.blame.epoch, UNATTRIBUTED)
    if hasattr(msg, "epoch") and hasattr(msg, "height"):
        return lambda m: (m.epoch, m.height)
    if hasattr(msg, "new_epoch"):
        return lambda m: (m.new_epoch, UNATTRIBUTED)
    if hasattr(msg, "new_view"):
        return lambda m: (m.new_view, UNATTRIBUTED)
    if hasattr(msg, "view"):
        return lambda m: (m.view, UNATTRIBUTED)
    if hasattr(msg, "cert") and hasattr(getattr(msg, "cert"), "epoch"):
        return lambda m: (m.cert.epoch, UNATTRIBUTED)
    if hasattr(msg, "height"):
        return lambda m: (UNATTRIBUTED, m.height)
    return lambda m: unattributed


class QueueSample(NamedTuple):
    """One egress-queueing (backpressure) observation at a sender."""

    time: float
    node: int
    backlog: float  # seconds this message waited behind earlier egress
    queued_bytes: int  # wire size of the message that waited


class WireAccountant:
    """Multi-axis wire-byte accounting for one cluster run.

    ``sends`` is the tally to read — the simulator passes its trace's; a
    standalone accountant (real transport, unit tests) owns one and fills
    it in :meth:`account`.  Purely additive, so an attached accountant
    never perturbs simulation behavior (inertness).
    """

    def __init__(self, small_threshold: int, sends: Optional[TallyCounter] = None) -> None:
        if small_threshold <= 0:
            raise ValueError("small_threshold must be positive")
        self.small_threshold = small_threshold
        self._owns_sends = sends is None
        #: (src, dst, class name, size) → messages.
        self.sends: TallyCounter = TallyCounter() if sends is None else sends
        #: The only axes that need the message itself, filled per send.
        self.height_bytes: TallyCounter = TallyCounter()
        self.epoch_bytes: TallyCounter = TallyCounter()
        self.queue_samples: List[QueueSample] = []
        # Per-class (epoch, height) extractor: resolved on first sight.
        self._extractors: Dict[type, Callable[[Any], Tuple[int, int]]] = {}

    # -- the hot-path tap ---------------------------------------------------

    def account(self, src: int, dst: int, msg: object, size: int) -> None:
        """Attribute one *offered* send's bytes to its (epoch, height).

        Called for exactly the sends the tally counts (loopback and
        fault-dropped included), so these axes telescope to its total.
        """
        cls = type(msg)
        extract = self._extractors.get(cls)
        if extract is None:
            extract = self._extractors[cls] = _build_ref_extractor(msg)
        try:
            epoch, height = extract(msg)
        except AttributeError:  # Optional sub-field absent on this instance
            epoch = height = UNATTRIBUTED
        self.height_bytes[height] += size
        self.epoch_bytes[epoch] += size
        if self._owns_sends:
            self.sends[(src, dst, cls.__name__, size)] += 1

    def sample_queue(self, time: float, node: int, backlog: float, queued_bytes: int) -> None:
        """Record one egress-serialization wait at ``node``."""
        self.queue_samples.append(QueueSample(time, node, backlog, queued_bytes))

    # -- axes derived from the tally (computed on read) ---------------------

    link_bytes = tally_view(itemgetter(0, 1))
    link_msgs = tally_view(itemgetter(0, 1), messages=True)
    class_bytes = tally_view(itemgetter(2))
    class_msgs = tally_view(itemgetter(2), messages=True)
    sender_bytes = tally_view(itemgetter(0))
    sender_msgs = tally_view(itemgetter(0), messages=True)
    receiver_bytes = tally_view(itemgetter(1))
    phase_bytes = tally_view(lambda send: classify_phase(send[2]))
    phase_msgs = tally_view(lambda send: classify_phase(send[2]), messages=True)

    bytes_total = property(lambda self: sum(n * send[3] for send, n in self.sends.items()))
    msgs_total = property(lambda self: sum(self.sends.values()))
    size_class_bytes = property(lambda self: sum_sends(self.sends, self._size_class))
    size_class_msgs = property(lambda self: sum_sends(self.sends, self._size_class, True))
    #: (class, size class) → bytes: the small/large split per class.
    class_size_bytes = property(lambda self: sum_sends(self.sends, self._class_size))

    def _size_class(self, send: SendKey) -> str:
        return "small" if send[3] <= self.small_threshold else "large"

    def _class_size(self, send: SendKey) -> Tuple[str, str]:
        return (send[2], self._size_class(send))

    @property
    def loopback_bytes(self) -> int:
        return sum(n * send[3] for send, n in self.sends.items() if send[0] == send[1])

    @property
    def loopback_msgs(self) -> int:
        return sum(n for send, n in self.sends.items() if send[0] == send[1])

    @property
    def size_hist(self) -> Dict[str, Histogram]:
        """Per-class log₂ message-size histograms: one observe per tally key."""
        hists: Dict[str, Histogram] = {}
        for (_src, _dst, cls, size), n in self.sends.items():
            hist = hists.get(cls)
            if hist is None:
                hist = hists[cls] = Histogram(SIZE_HISTOGRAM_BOUNDS)
            hist.observe(float(size), n)
        return hists

    def leader_egress_share(self) -> float:
        """Busiest sender's share of all wire bytes (1/n ⇒ perfectly even).

        In a leader-based protocol the busiest sender is the (dominant)
        leader — this is the paper's leader-fan-out bottleneck as a
        single ratio, and the metric ROADMAP's dissemination work must
        move.
        """
        if self.bytes_total == 0:
            return 0.0
        return max(self.sender_bytes.values()) / self.bytes_total

    def bytes_per_commit(self, committed_blocks: int) -> float:
        """Total wire bytes per committed block (total if none committed)."""
        return self.bytes_total / max(committed_blocks, 1)

    # -- aggregation --------------------------------------------------------

    def merge(self, other: "WireAccountant") -> "WireAccountant":
        """Fold another run's accounting into this one (and its shared tally)."""
        if other.small_threshold != self.small_threshold:
            raise ValueError("cannot merge accountants with different size thresholds")
        self.sends.update(other.sends)
        self.height_bytes.update(other.height_bytes)
        self.epoch_bytes.update(other.epoch_bytes)
        self.queue_samples.extend(other.queue_samples)
        return self

    # -- exposure -----------------------------------------------------------

    def fill_registry(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Export every axis into a metrics registry (``wire/...`` names)."""
        registry.counter("wire/bytes_total").inc(self.bytes_total)
        registry.counter("wire/msgs_total").inc(self.msgs_total)
        registry.counter("wire/loopback_bytes").inc(self.loopback_bytes)
        for (src, dst), n in sorted(self.link_bytes.items()):
            registry.counter(f"wire/link_bytes/{src}->{dst}").inc(n)
        for cls, n in sorted(self.class_bytes.items()):
            registry.counter(f"wire/class_bytes/{cls}").inc(n)
        for node, n in sorted(self.sender_bytes.items()):
            registry.counter(f"wire/sender_bytes/{node}").inc(n)
        for size_class, n in sorted(self.size_class_bytes.items()):
            registry.counter(f"wire/size_class_bytes/{size_class}").inc(n)
        for phase, n in sorted(self.phase_bytes.items()):
            registry.counter(f"wire/phase_bytes/{phase}").inc(n)
        registry.gauge("wire/leader_egress_share").set(self.leader_egress_share())
        for cls, hist in sorted(self.size_hist.items()):
            registry.histogram(f"wire/msg_size/{cls}", hist.bounds).merge(hist)
        return registry

    def snapshot(self, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The full accounting as one JSON-serializable document."""
        link_msgs, class_msgs, phase_msgs = self.link_msgs, self.class_msgs, self.phase_msgs
        size_class_msgs, sender_msgs = self.size_class_msgs, self.sender_msgs
        class_size_bytes, size_hist = self.class_size_bytes, self.size_hist
        queues_by_node: Dict[int, List[QueueSample]] = {}
        for sample in self.queue_samples:
            queues_by_node.setdefault(sample.node, []).append(sample)
        return {
            "schema": WIRE_SCHEMA,
            "small_threshold": self.small_threshold,
            "meta": dict(meta or {}),
            "totals": {
                "bytes": self.bytes_total,
                "msgs": self.msgs_total,
                "loopback_bytes": self.loopback_bytes,
                "loopback_msgs": self.loopback_msgs,
            },
            "leader_egress_share": self.leader_egress_share(),
            "links": [
                {"src": src, "dst": dst, "bytes": n, "msgs": link_msgs[(src, dst)]}
                for (src, dst), n in sorted(self.link_bytes.items())
            ],
            "classes": [
                {
                    "class": cls,
                    "phase": classify_phase(cls),
                    "bytes": n,
                    "msgs": class_msgs[cls],
                    "small_bytes": class_size_bytes.get((cls, "small"), 0),
                    "large_bytes": class_size_bytes.get((cls, "large"), 0),
                    "hist": size_hist[cls].to_dict(),
                }
                for cls, n in sorted(self.class_bytes.items())
            ],
            "phases": [
                {"phase": phase, "bytes": n, "msgs": phase_msgs[phase]}
                for phase, n in sorted(self.phase_bytes.items())
            ],
            "size_classes": [
                {"size_class": size_class, "bytes": n, "msgs": size_class_msgs[size_class]}
                for size_class, n in sorted(self.size_class_bytes.items())
            ],
            "senders": [
                {"node": node, "bytes": n, "msgs": sender_msgs[node]}
                for node, n in sorted(self.sender_bytes.items())
            ],
            "receivers": [
                {"node": node, "bytes": n} for node, n in sorted(self.receiver_bytes.items())
            ],
            "heights": [
                {"height": height, "bytes": n} for height, n in sorted(self.height_bytes.items())
            ],
            "epochs": [
                {"epoch": epoch, "bytes": n} for epoch, n in sorted(self.epoch_bytes.items())
            ],
            "queues": [
                {
                    "node": node,
                    "samples": len(samples),
                    "max_backlog_s": max(s.backlog for s in samples),
                    "mean_backlog_s": sum(s.backlog for s in samples) / len(samples),
                    "max_queued_bytes": max(s.queued_bytes for s in samples),
                    "queued_bytes": sum(s.queued_bytes for s in samples),
                }
                for node, samples in sorted(queues_by_node.items())
            ],
        }


# ---------------------------------------------------------------------------
# Snapshot validation (structure + the telescoping invariant)
# ---------------------------------------------------------------------------

#: (snapshot key, per-row byte field) for every axis that must telescope.
_TELESCOPING_AXES: Tuple[Tuple[str, str], ...] = (
    ("links", "bytes"),
    ("classes", "bytes"),
    ("phases", "bytes"),
    ("size_classes", "bytes"),
    ("senders", "bytes"),
    ("receivers", "bytes"),
    ("heights", "bytes"),
    ("epochs", "bytes"),
)

#: Axes whose per-row message counts must also telescope.
_MSG_AXES: Tuple[str, ...] = ("links", "classes", "phases", "size_classes", "senders")


def validate_wire_snapshot(snapshot: Dict[str, Any]) -> List[str]:
    """Structural and arithmetic checks; returns problem strings (empty = ok).

    The load-bearing check is the **telescoping invariant**: every
    attribution axis — links, classes, phases, size classes, senders,
    receivers, heights, epochs — must sum byte-exactly to the wire total.
    A drill-down that violates it is silently dropping or double-counting
    traffic.
    """
    problems: List[str] = []
    if not isinstance(snapshot, dict):
        return ["snapshot is not a JSON object"]
    if snapshot.get("schema") != WIRE_SCHEMA:
        problems.append(f"schema {snapshot.get('schema')!r} != {WIRE_SCHEMA}")
    totals = snapshot.get("totals")
    if not isinstance(totals, dict) or "bytes" not in totals or "msgs" not in totals:
        return problems + ["missing/invalid 'totals' (need bytes and msgs)"]
    total_bytes, total_msgs = totals["bytes"], totals["msgs"]
    if total_bytes < 0 or total_msgs < 0:
        problems.append("negative totals")
    if totals.get("loopback_bytes", 0) > total_bytes:
        problems.append("loopback_bytes exceeds bytes total")

    for key, field_name in _TELESCOPING_AXES:
        rows = snapshot.get(key)
        if not isinstance(rows, list):
            problems.append(f"missing/invalid axis {key!r}")
            continue
        axis_sum = sum(row.get(field_name, 0) for row in rows)
        if axis_sum != total_bytes:
            problems.append(
                f"telescoping violated on {key!r}: sum {axis_sum} != total {total_bytes}"
            )
    for key in _MSG_AXES:
        rows = snapshot.get(key)
        if not isinstance(rows, list):
            continue  # already reported above
        axis_sum = sum(row.get("msgs", 0) for row in rows)
        if axis_sum != total_msgs:
            problems.append(
                f"telescoping violated on {key!r} msgs: sum {axis_sum} != total {total_msgs}"
            )

    share = snapshot.get("leader_egress_share")
    if not isinstance(share, (int, float)) or not 0.0 <= share <= 1.0:
        problems.append(f"leader_egress_share {share!r} not in [0, 1]")
    for row in snapshot.get("classes", []):
        cls = row.get("class", "?")
        if row.get("small_bytes", 0) + row.get("large_bytes", 0) != row.get("bytes", 0):
            problems.append(f"class {cls}: small+large bytes != class bytes")
        hist = row.get("hist", {})
        if hist.get("count") != row.get("msgs"):
            problems.append(f"class {cls}: histogram count != message count")
    for row in snapshot.get("queues", []):
        if row.get("samples", 0) <= 0 or row.get("max_backlog_s", 0) < 0:
            problems.append(f"queue row for node {row.get('node')!r} inconsistent")
    return problems


# ---------------------------------------------------------------------------
# Exporters: JSONL snapshot + Prometheus-style text exposition
# ---------------------------------------------------------------------------

#: Row-record axes, in emission order: (snapshot key, record name).
_JSONL_AXES: Tuple[Tuple[str, str], ...] = (
    ("links", "link"),
    ("classes", "class"),
    ("phases", "phase"),
    ("size_classes", "size_class"),
    ("senders", "sender"),
    ("receivers", "receiver"),
    ("heights", "height"),
    ("epochs", "epoch"),
    ("queues", "queue"),
)


def write_wire_jsonl(path: str, snapshot: Dict[str, Any]) -> None:
    """One meta line, then one self-describing line per attribution row."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "record": "wire_meta",
            "schema": snapshot["schema"],
            "small_threshold": snapshot["small_threshold"],
            "meta": snapshot["meta"],
            "totals": snapshot["totals"],
            "leader_egress_share": snapshot["leader_egress_share"],
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for key, record in _JSONL_AXES:
            for row in snapshot[key]:
                fh.write(json.dumps({"record": record, **row}, sort_keys=True) + "\n")


def read_wire_jsonl(path: str) -> Dict[str, Any]:
    """Reassemble a snapshot written by :func:`write_wire_jsonl`."""
    record_to_key = {record: key for key, record in _JSONL_AXES}
    snapshot: Optional[Dict[str, Any]] = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            row = json.loads(line)
            record = row.pop("record", None)
            if line_no == 1:
                if record != "wire_meta":
                    raise ValueError(f"{path}: first record is {record!r}, not wire_meta")
                snapshot = {**row, **{key: [] for key, _ in _JSONL_AXES}}
                continue
            assert snapshot is not None
            key = record_to_key.get(record)
            if key is None:
                raise ValueError(f"{path}:{line_no}: unknown record {record!r}")
            snapshot[key].append(row)
    if snapshot is None:
        raise ValueError(f"{path}: empty file")
    # Links arrive as lists after the JSON round trip; normalize to ints.
    for row in snapshot["links"]:
        row["src"], row["dst"] = int(row["src"]), int(row["dst"])
    return snapshot


def to_prometheus_text(snapshot: Dict[str, Any]) -> str:
    """Standard Prometheus text exposition of the snapshot.

    The future real-cluster mode serves exactly this from an HTTP
    endpoint; until then it documents the stable metric names.
    """
    lines: List[str] = []

    def counter(name: str, value: Any, labels: str = "") -> None:
        lines.append(f"{name}{labels} {value}")

    totals = snapshot["totals"]
    lines.append("# TYPE repro_wire_bytes_total counter")
    counter("repro_wire_bytes_total", totals["bytes"])
    lines.append("# TYPE repro_wire_messages_total counter")
    counter("repro_wire_messages_total", totals["msgs"])
    lines.append("# TYPE repro_wire_leader_egress_share gauge")
    counter("repro_wire_leader_egress_share", snapshot["leader_egress_share"])
    lines.append("# TYPE repro_wire_link_bytes_total counter")
    for row in snapshot["links"]:
        counter(
            "repro_wire_link_bytes_total",
            row["bytes"],
            f'{{src="{row["src"]}",dst="{row["dst"]}"}}',
        )
    lines.append("# TYPE repro_wire_class_bytes_total counter")
    for row in snapshot["classes"]:
        counter(
            "repro_wire_class_bytes_total",
            row["bytes"],
            f'{{class="{row["class"]}",phase="{row["phase"]}"}}',
        )
    lines.append("# TYPE repro_wire_phase_bytes_total counter")
    for row in snapshot["phases"]:
        counter("repro_wire_phase_bytes_total", row["bytes"], f'{{phase="{row["phase"]}"}}')
    lines.append("# TYPE repro_wire_size_class_bytes_total counter")
    for row in snapshot["size_classes"]:
        counter(
            "repro_wire_size_class_bytes_total",
            row["bytes"],
            f'{{size_class="{row["size_class"]}"}}',
        )
    lines.append("# TYPE repro_wire_sender_bytes_total counter")
    for row in snapshot["senders"]:
        counter("repro_wire_sender_bytes_total", row["bytes"], f'{{node="{row["node"]}"}}')
    lines.append("# TYPE repro_wire_message_size_bytes histogram")
    for row in snapshot["classes"]:
        hist, label = row["hist"], row["class"]
        cumulative = 0
        for bound, count in zip(hist["bounds"], hist["buckets"]):
            cumulative += count
            counter(
                "repro_wire_message_size_bytes_bucket",
                cumulative,
                f'{{class="{label}",le="{bound:g}"}}',
            )
        counter(
            "repro_wire_message_size_bytes_bucket",
            cumulative + hist["overflow"],
            f'{{class="{label}",le="+Inf"}}',
        )
        counter("repro_wire_message_size_bytes_sum", hist["sum"], f'{{class="{label}"}}')
        counter("repro_wire_message_size_bytes_count", hist["count"], f'{{class="{label}"}}')
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Report rows (consumed by runner/report.py and the obs CLI)
# ---------------------------------------------------------------------------


def class_rows(snapshot: Dict[str, Any]) -> List[Dict[str, object]]:
    """Per-class bandwidth table rows, heaviest class first."""
    total = max(snapshot["totals"]["bytes"], 1)
    rows = []
    for row in sorted(snapshot["classes"], key=lambda r: -r["bytes"]):
        hist = row["hist"]
        rows.append(
            {
                "class": row["class"],
                "phase": row["phase"],
                "msgs": row["msgs"],
                "bytes": row["bytes"],
                "share_%": round(100.0 * row["bytes"] / total, 1),
                "small_B": row["small_bytes"],
                "large_B": row["large_bytes"],
                "mean_B": round(hist["mean"], 1),
                "max_B": int(hist["max"]),
            }
        )
    return rows


def phase_rows(snapshot: Dict[str, Any]) -> List[Dict[str, object]]:
    """Per-phase bandwidth rows in canonical phase order."""
    total = max(snapshot["totals"]["bytes"], 1)
    by_phase = {row["phase"]: row for row in snapshot["phases"]}
    rows = []
    for phase in WIRE_PHASE_NAMES:
        row = by_phase.get(phase)
        if row is None:
            continue
        rows.append(
            {
                "phase": phase,
                "msgs": row["msgs"],
                "bytes": row["bytes"],
                "share_%": round(100.0 * row["bytes"] / total, 1),
            }
        )
    return rows


def sender_rows(snapshot: Dict[str, Any]) -> List[Dict[str, object]]:
    """Per-node egress rows (the leader-fan-out evidence)."""
    total = max(snapshot["totals"]["bytes"], 1)
    return [
        {
            "node": row["node"],
            "msgs": row["msgs"],
            "egress_B": row["bytes"],
            "share_%": round(100.0 * row["bytes"] / total, 1),
        }
        for row in sorted(snapshot["senders"], key=lambda r: -r["bytes"])
    ]


def link_rows(snapshot: Dict[str, Any], top: int = 10) -> List[Dict[str, object]]:
    """The ``top`` heaviest directed links."""
    rows = sorted(snapshot["links"], key=lambda r: -r["bytes"])[:top]
    return [
        {
            "link": f"{row['src']}->{row['dst']}",
            "msgs": row["msgs"],
            "bytes": row["bytes"],
        }
        for row in rows
    ]


def chunk_rows(snapshot: Dict[str, Any]) -> List[Dict[str, object]]:
    """Dissemination drill-down: one row per chunk message class.

    ``vs_payload_%`` relates each class to the blob path it replaces —
    the sum over ``ChunkShareMsg`` + ``ChunkResponseMsg`` is the chunked
    equivalent of the ``payload`` phase, so comparing the two runs' rows
    shows directly where the leader's egress went.
    """
    total = max(snapshot["totals"]["bytes"], 1)
    payload_bytes = sum(
        row["bytes"] for row in snapshot["phases"] if row["phase"] == "payload"
    )
    rows = []
    for row in snapshot["classes"]:
        if row["phase"] != "dissemination":
            continue
        hist = row["hist"]
        rows.append(
            {
                "class": row["class"],
                "msgs": row["msgs"],
                "bytes": row["bytes"],
                "share_%": round(100.0 * row["bytes"] / total, 1),
                "vs_payload_%": round(100.0 * row["bytes"] / max(payload_bytes, 1), 1)
                if payload_bytes
                else None,
                "mean_B": round(hist["mean"], 1),
                "max_B": int(hist["max"]),
            }
        )
    return sorted(rows, key=lambda r: -int(r["bytes"]))  # type: ignore[call-overload]


def queue_rows(snapshot: Dict[str, Any]) -> List[Dict[str, object]]:
    """Per-node egress backpressure rows (empty = no queueing observed)."""
    return [
        {
            "node": row["node"],
            "samples": row["samples"],
            "max_backlog_ms": round(row["max_backlog_s"] * 1e3, 3),
            "mean_backlog_ms": round(row["mean_backlog_s"] * 1e3, 3),
            "queued_MB": round(row["queued_bytes"] / 1e6, 2),
        }
        for row in snapshot["queues"]
    ]
