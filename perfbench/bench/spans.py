"""Per-layer accounting over the records of one ``repro.telemetry.Tracer``.

In a traced run the benchmark records its own spans (the measured
``window`` and one span around each public call into a layer) on the same
``Tracer`` it hands to the program's entry points, and on the same thread
as the program's spans, so both nest in one tree through
``SpanRecord.parent_id``:

    self time = duration - time covered by direct children

``LayerProfiler`` seconds carry no timestamps; they lie inside the span of
the call that ran the network and are added to the accounting separately.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable

#: records that carry a latency rather than an interval of their own
#: (``serve_clip``: a clip's share of a batched forward plus its ladder)
LATENCY_RECORDS = frozenset({"serve_clip"})


def intervals(records) -> list:
    return [r for r in records if r.name not in LATENCY_RECORDS]


def self_seconds(records) -> Dict[str, float]:
    """Self time per span name, summed over the records."""
    spans = intervals(records)
    covered: Dict[str, float] = defaultdict(float)
    for record in spans:
        if record.parent_id is not None:
            covered[record.parent_id] += record.seconds
    totals: Dict[str, float] = defaultdict(float)
    for record in spans:
        totals[record.name] += max(
            0.0, record.seconds - covered.get(record.span_id, 0.0))
    return dict(totals)


def total_seconds(records, names: Iterable[str]) -> float:
    """Summed duration of the spans named ``names``."""
    names = frozenset(names)
    return sum(r.seconds for r in intervals(records) if r.name in names)


def trace_dump(records, profile=None) -> dict:
    """What a traced run writes out: its spans, self times and profile."""
    dump = {
        "spans": [record.to_dict() for record in records],
        "self_s": self_seconds(records),
    }
    if profile is not None:
        dump["profile"] = profile.to_dict()
    return dump
