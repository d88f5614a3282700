"""Regression sentinel: per-workload performance baselines on JSONL.

The simulator's determinism anchor makes continuous regression
detection unusually crisp: ``RunResult.seconds`` is *simulated* time
and CPI is a pure function of the op stream and machine config, so two
fault-free runs of the same commit produce bit-identical values on any
host.  A baseline history of those values is therefore flat until a
*code change* moves them — exactly the signal a CI sentinel wants —
while wall-clock seconds ride along report-only for the humans.

Storage is an append-only JSONL file (``bench_history.jsonl``) written
under the same cross-process discipline as the scheduler's cost model
sidecar: appends take an exclusive ``flock`` on ``<path>.lock``, so
concurrent CI shards interleave whole records, never torn lines.  Each
record keys a series by ``(key, fidelity)`` where ``key`` is the
scheduler's :func:`~repro.exec.costmodel.cost_key` — the
work-determining inputs — so histories survive result-cache
invalidation but fork when the instruction budget changes.  The engine
does not fork a series: engines are bit-identical by contract, so a
record's ``engine`` is provenance only and switching engines keeps the
history judging.

Detection runs an EWMA mean/variance over each series and judges the
*newest* sample with a z-score.  Deterministic series have zero
variance, so sigma is floored at ``rel_floor`` (1%) of the mean: a 20%
jump then scores z = 20 against a threshold of 6, while float-level
jitter scores ~0.  A relative floor of ``pct_floor`` percent guards
the other direction — a tiny absolute drift on a microsecond-scale
workload can have a huge z but is not a regression anyone should gate
on.  Both must trip for a ``regression`` verdict.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from pathlib import Path

try:
    import fcntl
except ImportError:          # non-POSIX: locking degrades to a no-op
    fcntl = None

#: bump when the record shape changes; foreign schemas are skipped
BASELINE_SCHEMA = 1

#: default history filename (committed under benchmarks/ for CI)
BASELINE_FILENAME = "bench_history.jsonl"

#: EWMA smoothing factor — matches the scheduler cost model
DEFAULT_ALPHA = 0.3

#: z-score a newest sample must reach to be anomalous
DEFAULT_Z_THRESHOLD = 6.0

#: sigma floor as a fraction of the EWMA mean (deterministic series
#: otherwise divide by zero); 1% means z == percent-change for them
DEFAULT_REL_FLOOR = 0.01

#: minimum percent change for a verdict — below this, never flag
DEFAULT_PCT_FLOOR = 5.0

#: prior samples a series needs before its newest one is judged
DEFAULT_MIN_HISTORY = 2

#: metrics judged for regressions (deterministic across hosts);
#: ``wall_seconds`` is recorded but report-only
GATED_METRICS = ("sim_seconds", "cpi")


def make_record(*, key: str, workload: str, engine: str, fidelity: str,
                sim_seconds: float, cpi: float,
                wall_seconds: float | None = None,
                meta: dict | None = None) -> dict:
    """One history record for the newest observation of a series."""
    rec = {"schema": BASELINE_SCHEMA, "t": time.time(), "key": key,
           "workload": workload, "engine": engine, "fidelity": fidelity,
           "sim_seconds": float(sim_seconds), "cpi": float(cpi)}
    if wall_seconds is not None:
        rec["wall_seconds"] = float(wall_seconds)
    if meta:
        rec["meta"] = dict(meta)
    return rec


def series_key(rec: dict) -> tuple[str, str]:
    return (str(rec.get("key")), str(rec.get("fidelity")))


class BaselineStore:
    """Append-only, flock-fenced JSONL history of baseline records."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)

    @contextlib.contextmanager
    def _locked(self):
        """Exclusive cross-process lock fencing appends.

        Same flock discipline as the cost-model sidecar: concurrent CI
        shards appending to one shared history serialize here, so the
        file only ever grows by whole records.
        """
        if fcntl is None:
            yield
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lock_path = self.path.with_name(self.path.name + ".lock")
        with lock_path.open("a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def append(self, records: list[dict]) -> None:
        if not records:
            return
        payload = "".join(json.dumps(r, sort_keys=True) + "\n"
                          for r in records)
        with self._locked():
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())

    def load(self) -> list[dict]:
        """All valid records in file order (torn/foreign lines skipped)."""
        out: list[dict] = []
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return out
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if (isinstance(rec, dict)
                    and rec.get("schema") == BASELINE_SCHEMA):
                out.append(rec)
        return out

    def series(self) -> dict[tuple[str, str], list[dict]]:
        """``(key, fidelity) -> records`` in append order."""
        out: dict[tuple[str, str], list[dict]] = {}
        for rec in self.load():
            out.setdefault(series_key(rec), []).append(rec)
        return out


def judge_series(values: list[float], *, alpha: float = DEFAULT_ALPHA,
                 z_threshold: float = DEFAULT_Z_THRESHOLD,
                 rel_floor: float = DEFAULT_REL_FLOOR,
                 pct_floor: float = DEFAULT_PCT_FLOOR,
                 min_history: int = DEFAULT_MIN_HISTORY) -> dict:
    """Judge the newest value of one metric series against its EWMA.

    Folds every value but the last into an EWMA mean/variance, then
    scores the last.  Returns ``{verdict, baseline, latest, pct, z,
    n}`` where verdict is ``regression`` (slower and both the z and
    percent floors tripped), ``improvement`` (the mirror image),
    ``ok``, or ``insufficient`` (< ``min_history`` prior samples).
    """
    n = len(values)
    if n < min_history + 1:
        return {"verdict": "insufficient", "baseline": None,
                "latest": values[-1] if values else None,
                "pct": None, "z": None, "n": n}
    mean = values[0]
    var = 0.0
    for x in values[1:-1]:
        diff = x - mean
        incr = alpha * diff
        mean += incr
        var = (1.0 - alpha) * (var + diff * incr)
    latest = values[-1]
    sigma = max(math.sqrt(max(var, 0.0)), rel_floor * abs(mean), 1e-12)
    z = (latest - mean) / sigma
    pct = 100.0 * (latest - mean) / mean if mean else 0.0
    if z >= z_threshold and pct >= pct_floor:
        verdict = "regression"
    elif z <= -z_threshold and pct <= -pct_floor:
        verdict = "improvement"
    else:
        verdict = "ok"
    return {"verdict": verdict, "baseline": mean, "latest": latest,
            "pct": pct, "z": z, "n": n}


def detect(records: list[dict], *, metrics: tuple[str, ...] = GATED_METRICS,
           **judge_kwargs) -> list[dict]:
    """Judge every (series, metric) pair; one verdict row each.

    Rows are sorted worst-first (regressions, then by |z|) so the
    verdict table leads with what matters.  A row's ``engine`` is the
    newest record's (provenance; it does not key the series).
    """
    by_series: dict[tuple[str, str], list[dict]] = {}
    for rec in records:
        by_series.setdefault(series_key(rec), []).append(rec)
    rows: list[dict] = []
    for key, recs in sorted(by_series.items()):
        for metric in metrics:
            values = [float(r[metric]) for r in recs
                      if isinstance(r.get(metric), (int, float))]
            if not values:
                continue
            row = judge_series(values, **judge_kwargs)
            row.update({"workload": recs[-1].get("workload") or key[0],
                        "key": key[0], "engine": recs[-1].get("engine"),
                        "fidelity": key[1], "metric": metric})
            rows.append(row)
    order = {"regression": 0, "improvement": 1, "ok": 2, "insufficient": 3}
    rows.sort(key=lambda r: (order.get(r["verdict"], 9),
                             -abs(r["z"] or 0.0)))
    return rows


def records_for_suite(results, *, machine, fidelity, engine: str,
                      seed: int = 0) -> list[dict]:
    """Baseline records for a finished suite's ``RunResult`` list.

    Keys each record with the scheduler's cost key so histories line
    up with what the fleet already tracks, and stamps the fidelity
    spelling the series forks on plus the engine as provenance.
    """
    from repro.exec.costmodel import cost_key
    from repro.exec.jobs import JobSpec
    fid = (f"w{fidelity.warmup_instructions}"
           f"+m{fidelity.measure_instructions}")
    out = []
    for r in results:
        job = JobSpec(spec=r.spec, machine=machine, fidelity=fidelity,
                      seed=seed)
        out.append(make_record(
            key=cost_key(job), workload=r.spec.name, engine=engine,
            fidelity=fid, sim_seconds=r.seconds, cpi=r.counters.cpi,
            wall_seconds=getattr(r, "wall_seconds", None),
            meta={"machine": machine.name, "seed": seed}))
    return out
