"""``repro.fabric`` — distributed campaign fabric + service front-end.

PR 3 made one campaign survive crashed *processes*; this package makes
it survive crashed *hosts*, and puts an HTTP front door on the result.
A fabric is nothing but a directory (local, or a shared mount) with a
small protocol on top:

* :mod:`repro.fabric.units` — :class:`WorkUnit`, the leasable quantum:
  one ``JobSpec`` plus its cache key, cost key, LPT rank and the
  submitting span context, published as a JSON envelope whose queue
  filename embeds the rank (a worker's lexical scan *is* the
  coordinator's dispatch order);
* :mod:`repro.fabric.lease` — :class:`LeaseLedger`, the filesystem
  lease protocol: ``O_EXCL`` claims, atomic-replace heartbeats,
  first-writer-wins completion records, and skew-immune expiry (the
  coordinator ages heartbeat *content* on its own monotonic clock);
* :mod:`repro.fabric.coordinator` — :class:`Coordinator`, which
  decomposes a campaign into units (deduplicating against the shared
  :class:`~repro.exec.store.ResultStore` first), reclaims silent
  leases, settles outcomes through the
  :class:`~repro.exec.campaign.CampaignManifest` duplicate-completion
  guard, and reassembles the exact ``SuiteResult`` a serial run
  produces — bit-identical no matter how many workers died.  It
  coordinates only while it holds the epoch-numbered election seat
  (a lone coordinator wins it the way a standby does, and a finished
  ``repro-fabric run`` hands it over unless a standby is watching;
  ``repro-fabric standby`` waits behind a live leader), every ledger
  write is fenced by that epoch so
  a zombie ex-leader is rejected, and a new leader adopts whatever
  campaign the dead one left open;
* :mod:`repro.fabric.worker` — :class:`WorkerAgent`
  (``repro-fabric worker``), the per-host loop: claim, run through the
  existing pool/store/warm/cost-model path, report back;
* :mod:`repro.fabric.service` — ``repro-fabric serve``, a
  stdlib-asyncio HTTP front-end: characterization requests dedup
  against the store (hit → immediate, miss → enqueue), progress
  streams as NDJSON, ``/metrics`` exposes the fleet-health gauges in
  Prometheus text format, and span context crosses the HTTP boundary
  via ``X-Repro-Span``.
"""

from repro.fabric.coordinator import (Coordinator, FabricTimeout,
                                      Submission, fabric_backend,
                                      observe_outcomes, submission_id)
from repro.fabric.lease import (Election, LeadershipLost, LeaseLedger,
                                default_coordinator_id)
from repro.fabric.service import (CharacterizationService, FabricServer,
                                  ServerThread, parse_request)
from repro.fabric.units import WorkUnit, make_unit_id, unit_id_of
from repro.fabric.worker import (ResultSpool, WorkerAgent,
                                 default_worker_id)

__all__ = [
    "WorkUnit", "make_unit_id", "unit_id_of",
    "LeaseLedger", "Election", "LeadershipLost",
    "default_coordinator_id",
    "Coordinator", "FabricTimeout", "Submission", "fabric_backend",
    "submission_id", "observe_outcomes",
    "WorkerAgent", "ResultSpool", "default_worker_id",
    "CharacterizationService", "FabricServer", "ServerThread",
    "parse_request",
]
