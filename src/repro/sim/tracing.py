"""Lightweight simulation tracing and counters.

A :class:`Trace` collects structured events (commits, epoch changes) with
a count per kind, and a tally of wire sends per (src, dst, class name,
size).  A send costs one tally increment; the byte and message counters,
and the wire accountant's axes (:mod:`repro.obs.wire`), are sums over the
tally computed when read.  Recording individual events can be disabled
for large runs while keeping the counts.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: One send-tally key: (src, dst, class name, size in bytes).
SendKey = Tuple[int, int, str, int]


def sum_sends(sends: Counter, key: Callable[[SendKey], Any], messages: bool = False) -> Counter:
    """Bytes (message counts if ``messages``) of a send tally per ``key(send)``."""
    out: Counter = Counter()
    for send, n in sends.items():
        out[key(send)] += n if messages else n * send[3]
    return out


def tally_view(key: Callable[[SendKey], Any], messages: bool = False) -> property:
    """A read-only view of ``self.sends``, summed per ``key`` on each read."""
    return property(lambda self: sum_sends(self.sends, key, messages))


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    time: float
    kind: str
    node: int
    detail: Tuple[Tuple[str, Any], ...]


class Trace:
    """Event log plus counters for one simulation run."""

    def __init__(self, record_events: bool = False) -> None:
        self.record_events = record_events
        self.events: List[TraceEvent] = []
        #: Event kind → number of :meth:`emit` calls.
        self.event_counts: Counter = Counter()
        #: (src, dst, class name, size) → messages: every offered send,
        #: counted once.  The byte views below are sums over it.
        self.sends: Counter = Counter()

    def emit(self, time: float, kind: str, node: int, **detail: Any) -> None:
        """Record an event (no-op unless ``record_events`` is set)."""
        self.event_counts[kind] += 1
        if self.record_events:
            self.events.append(
                TraceEvent(time=time, kind=kind, node=node, detail=tuple(sorted(detail.items())))
            )

    def count_message(self, sender: int, type_name: str, size: int, dst: int = -1) -> None:
        """Account one wire message (``dst`` -1: receiver not given)."""
        self.sends[(sender, dst, type_name, size)] += 1

    @property
    def counters(self) -> Counter:
        """Event counts plus the ``messages`` and ``bytes`` totals."""
        out = Counter(self.event_counts)
        if self.sends:
            out["messages"] += sum(self.sends.values())
            out["bytes"] += sum(n * send[3] for send, n in self.sends.items())
        return out

    bytes_sent_by_node = tally_view(itemgetter(0))
    messages_by_type = tally_view(itemgetter(2), messages=True)
    #: (sender, message class) → bytes.  NOT part of :meth:`fingerprint`:
    #: the golden fingerprints predate it (the hashed views cover the tally).
    bytes_by_node_class = tally_view(itemgetter(0, 2))

    def events_of(self, kind: str) -> List[TraceEvent]:
        """All recorded events of one kind, in time order."""
        return [e for e in self.events if e.kind == kind]

    def summary(self) -> Dict[str, Any]:
        """Aggregate view used in experiment reports."""
        by_node_class: Dict[int, Dict[str, int]] = {}
        for (sender, type_name), size in self.bytes_by_node_class.items():
            by_node_class.setdefault(sender, {})[type_name] = size
        counters = self.counters
        return {
            "messages": counters.get("messages", 0),
            "bytes": counters.get("bytes", 0),
            "by_type": dict(self.messages_by_type),
            "bytes_sent_by_node": dict(self.bytes_sent_by_node),
            "bytes_by_node_class": by_node_class,
            "counters": dict(counters),
        }

    def merge(self, other: "Trace") -> "Trace":
        """Fold ``other``'s counters (and recorded events) into this trace.

        Multi-run aggregation: repetition sweeps merge their per-run
        traces into one before summarizing, so per-node byte totals and
        message-type mixes cover the whole sweep.  Returns ``self`` for
        chaining.
        """
        self.event_counts.update(other.event_counts)
        self.sends.update(other.sends)
        if self.record_events:
            self.events.extend(other.events)
        return self

    @classmethod
    def merged(cls, traces: "List[Trace]") -> "Trace":
        """A fresh trace aggregating every trace in ``traces``."""
        out = cls(record_events=any(t.record_events for t in traces))
        for trace in traces:
            out.merge(trace)
        return out

    def fingerprint(self, extra: Optional[bytes] = None) -> str:
        """Deterministic digest of every counter this trace accumulated.

        Two runs of the same seeded scenario must produce byte-identical
        fingerprints — the replay harness (:mod:`repro.check`) relies on
        this to prove a reproduced failure is the *same* failure.  ``extra``
        lets callers fold additional run state (e.g. ledger hashes) in.
        """
        hasher = hashlib.sha256()
        for counter in (self.counters, self.bytes_sent_by_node, self.messages_by_type):
            for key in sorted(counter, key=repr):
                hasher.update(f"{key!r}={counter[key]};".encode("utf-8"))
        if extra:
            hasher.update(extra)
        return hasher.hexdigest()
