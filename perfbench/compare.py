"""Compare two sets of end-to-end benchmark results.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each line of either file is a record that ``run.py --record FILE``
appends: ``{"workload", "seed", "trace", "result"}``.  Traced records
are ignored.  Two rules flag a finding:

* The protocol-plane metrics are exact for a given seed.  Where both
  sets ran the same workload with the same seed, any difference in one
  of them is a finding, down to a single tick (one unit in the last
  place of the float).
* For every end-to-end metric and workload, the new median may be worse
  than the base median by at most the metric's ``bound`` from
  ``BENCHMARK.json`` (a share of the base median).

Exits 1 and prints the findings when there are any, else exits 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics that simulated time and the seed fix exactly.
PROTOCOL_PLANE = (
    "tx_latency_p50_ms",
    "tx_latency_p99_ms",
    "committed_tps",
    "committed_share",
    "bytes_per_tx",
    "max_commit_gap_ms",
)


def load_records(path: Path) -> List[Dict[str, object]]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def compare(
    base: Sequence[Dict[str, object]],
    new: Sequence[Dict[str, object]],
    spec: Dict[str, object],
) -> List[str]:
    """Findings of ``new`` against ``base`` under ``spec``'s bounds."""
    base = [r for r in base if r["trace"] == 0]
    new = [r for r in new if r["trace"] == 0]
    findings: List[str] = []
    base_by_run = {(r["workload"], r["seed"]): r["result"]["metrics"] for r in base}
    for record in new:
        key = (record["workload"], record["seed"])
        if key not in base_by_run:
            continue
        for name in PROTOCOL_PLANE:
            was = base_by_run[key][name]["value"]
            now = record["result"]["metrics"][name]["value"]
            if was != now:
                findings.append(
                    f"{key[0]} seed {key[1]}: {name} changed from {was!r} to {now!r}"
                )
    for workload in sorted({r["workload"] for r in new}):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            was = [r["result"]["metrics"][name]["value"] for r in base if r["workload"] == workload]
            now = [r["result"]["metrics"][name]["value"] for r in new if r["workload"] == workload]
            if not was or not now:
                continue
            was_median, now_median = statistics.median(was), statistics.median(now)
            worse = (now_median - was_median) if metric["better"] == "lower" else (
                was_median - now_median
            )
            if worse > metric["bound"] * abs(was_median):
                findings.append(
                    f"{workload}: {name} median {now_median!r} is worse than {was_median!r} "
                    f"by more than {metric['bound']:.0%}"
                )
    return findings


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    findings = compare(load_records(Path(argv[0])), load_records(Path(argv[1])), spec)
    for finding in findings:
        print(finding)
    print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
