"""Work units: the leasable, serializable quantum of fabric work.

A :class:`WorkUnit` wraps one :class:`~repro.exec.jobs.JobSpec` with
everything the fleet protocol needs around it: a campaign-unique unit
id (distinct from the result cache key, so a reclaim re-enqueue or a
second campaign over the same key journals separately), the
coordinator-assigned LPT rank, the shared cost model's key, and the
coordinator's :class:`~repro.obs.spans.SpanContext` so worker spans
parent under the submitting request across host boundaries.

Units are published as JSON envelopes — human-auditable metadata plus
a base64 pickle of the ``JobSpec`` itself (the spec graph is plain
dataclasses; the code-fingerprint in the cache key already guarantees
coordinator and workers run the same tree, which is exactly the
precondition pickle needs).  Queue filenames embed the zero-padded
rank (``<rank:05d>-<unit>.json``), so a worker's lexical directory
scan *is* the coordinator's longest-processing-time-first dispatch
order — no extra index file, no second source of truth.
"""

from __future__ import annotations

import base64
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path

from repro.exec.jobs import JobSpec

#: bump when the on-disk unit envelope changes shape
UNIT_SCHEMA = 1


@dataclass(frozen=True)
class WorkUnit:
    """One leasable unit of fleet work."""

    unit_id: str
    name: str
    #: result-store cache key (the dedup identity fleet-wide)
    key: str
    #: shared cost-model key (LPT ordering input)
    cost_key: str
    #: coordinator-assigned dispatch rank (0 dispatches first)
    rank: int
    job: JobSpec = field(compare=False)
    #: submitting span ``(trace_id, span_id)`` for cross-host parenting
    span: tuple[str, str] | None = None
    #: expected seconds at submission (telemetry; None = never observed)
    estimate: float | None = None
    #: leader epoch that (re)enqueued this unit
    epoch: int | None = None

    @property
    def filename(self) -> str:
        return f"{self.rank:05d}-{self.unit_id}.json"

    def to_json(self) -> dict:
        return {
            "schema": UNIT_SCHEMA,
            "unit": self.unit_id,
            "name": self.name,
            "key": self.key,
            "cost_key": self.cost_key,
            "rank": self.rank,
            "span": list(self.span) if self.span else None,
            "estimate": self.estimate,
            "epoch": self.epoch,
            "job_pkl": base64.b64encode(
                pickle.dumps(self.job,
                             protocol=pickle.HIGHEST_PROTOCOL)).decode(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "WorkUnit":
        if data.get("schema") != UNIT_SCHEMA:
            raise ValueError(
                f"unknown work-unit schema {data.get('schema')!r}")
        span = data.get("span")
        return cls(
            unit_id=data["unit"],
            name=data["name"],
            key=data["key"],
            cost_key=data["cost_key"],
            rank=int(data["rank"]),
            job=pickle.loads(base64.b64decode(data["job_pkl"])),
            span=(span[0], span[1]) if span else None,
            estimate=data.get("estimate"),
            epoch=data.get("epoch"),
        )

    @classmethod
    def load(cls, path: str | Path) -> "WorkUnit":
        return cls.from_json(json.loads(Path(path).read_text()))


def make_unit_id(seq: int, key: str) -> str:
    """Campaign-unique unit id: sequence number + key prefix.

    The key prefix makes ids greppable against the store; the sequence
    number keeps two submissions of the same key distinct (the
    duplicate-completion guard in the manifest is keyed by unit id, so
    a legitimate re-enqueue must not collide with its predecessor).
    """
    return f"u{seq:05d}-{key[:12]}"


def unit_id_of(filename: str) -> str:
    """The unit id embedded in a queue/done/lease filename."""
    stem = filename
    for suffix in (".json", ".lease"):
        if stem.endswith(suffix):
            stem = stem[:-len(suffix)]
            break
    # queue entries carry a "<rank>-" prefix; lease/done files do not
    if "-" in stem and not stem.startswith("u"):
        stem = stem.split("-", 1)[1]
    return stem
