"""Characterization-as-a-service: a stdlib-asyncio HTTP front-end.

``repro-fabric serve`` turns a fabric directory into a service: POST a
characterization request and the service answers from the shared
content-addressed store when the fleet has already computed every key
(a *pure* cache hit — zero new jobs), or enqueues work units for the
misses and lets the worker fleet fill them in.  The request identity
*is* the set of job cache keys, so deduplication is exact by
construction: same workloads + machine + fidelity + seed + source
tree → same keys → same request id.

The server is hand-rolled HTTP/1.1 over ``asyncio.start_server`` —
the container policy is stdlib-only, and the protocol surface needed
here (five routes, JSON bodies, one NDJSON stream) does not justify a
framework.  Endpoints:

``POST /characterize``
    Body: ``{"benchmarks": [...]}`` or ``{"suite": "dotnet"}``, plus
    optional ``machine`` (preset name), ``instructions``, ``warmup``,
    ``seed``.  Replies with the request id, per-workload keys, and
    whether the whole request was served from the store.  The service
    coordinates only while it holds the coordinator seat; while another
    process leads, that leader adopts the persisted request and the
    service streams what it settles.
``GET /requests/<id>``
    Settlement status; includes per-workload summaries once done.
``GET /requests/<id>/stream``
    NDJSON progress events (one line per settled workload, then a
    terminal ``request-done`` line) — connection close delimits.
``GET /healthz``
    Liveness plus the fleet view: workers, queue depth, leases, the
    current coordinator leader (id + epoch), per-coordinator
    heartbeat ages, and whether the shared store answers reads.
``GET /metrics``
    Prometheus text format: the process's ``repro.obs`` registry,
    which includes the per-worker fleet-health gauges the coordinator
    publishes on every poll.

Observability crosses the HTTP boundary: a client may send an
``X-Repro-Span: <trace_id>:<span_id>`` header and the service parents
its request span (and therefore every unit span, on whatever host the
unit runs) under the caller's context; responses echo the service's
own span ids back in the same header.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import time
from dataclasses import asdict

from repro import obs
from repro.exec.jobs import JobSpec, code_fingerprint
from repro.fabric.coordinator import Coordinator
from repro.harness.runner import Fidelity
from repro.obs import timeseries
from repro.obs.metrics import labeled
from repro.obs.spans import SpanContext
from repro.uarch.machine import get_machine

SPAN_HEADER = "x-repro-span"

_SUITES = {
    "dotnet": "dotnet_category_specs",
    "aspnet": "aspnet_specs",
    "speccpu": "speccpu_specs",
}


class BadRequest(ValueError):
    """Client error: malformed characterization request."""


def _all_specs():
    from repro.workloads.aspnet import aspnet_specs
    from repro.workloads.dotnet import dotnet_category_specs
    from repro.workloads.speccpu import speccpu_specs
    return dotnet_category_specs() + aspnet_specs() + speccpu_specs()


def parse_request(body: dict) -> tuple[list, object, Fidelity, int]:
    """Resolve a request body into (specs, machine, fidelity, seed)."""
    if not isinstance(body, dict):
        raise BadRequest("request body must be a JSON object")
    specs = _all_specs()
    if "suite" in body:
        if body["suite"] not in _SUITES:
            raise BadRequest(f"unknown suite {body['suite']!r}")
        selected = [s for s in specs if s.suite == body["suite"]]
    elif "benchmarks" in body:
        names = body["benchmarks"]
        if not isinstance(names, list) or not names:
            raise BadRequest("'benchmarks' must be a non-empty list")
        by_name = {s.name: s for s in specs}
        missing = [n for n in names if n not in by_name]
        if missing:
            raise BadRequest(f"unknown benchmark(s): {missing}")
        selected = [by_name[n] for n in names]
    else:
        raise BadRequest("request needs 'benchmarks' or 'suite'")
    try:
        machine = get_machine(body.get("machine", "i9"))
    except KeyError as err:
        raise BadRequest(str(err)) from None
    fidelity = Fidelity(
        warmup_instructions=int(body.get("warmup", 60_000)),
        measure_instructions=int(body.get("instructions", 150_000)))
    return selected, machine, fidelity, int(body.get("seed", 0))


class _Request:
    """Server-side state of one characterization request."""

    def __init__(self, req_id: str, sub, jobs: list[JobSpec],
                 machine_name: str):
        self.id = req_id
        self.sub = sub
        self.jobs = jobs
        self.machine = machine_name
        self.created = time.time()
        self.events: list[dict] = []
        self.finished = threading.Event()
        self._reported: set[int] = set()

    def absorb(self) -> None:
        """Turn newly settled outcomes into stream events."""
        for i, (status, payload) in sorted(self.sub.outcomes.items()):
            if i in self._reported:
                continue
            self._reported.add(i)
            event = {"event": "settled", "request": self.id,
                     "workload": self.jobs[i].name,
                     "key": self.sub.keys[i], "status": status}
            if status == "failed":
                event["failure"] = payload.to_json()
            self.events.append(event)
        if self.sub.done and not self.finished.is_set():
            self.events.append({
                "event": "request-done", "request": self.id,
                "done": sum(1 for s, _ in self.sub.outcomes.values()
                            if s == "done"),
                "failed": sum(1 for s, _ in self.sub.outcomes.values()
                              if s == "failed")})
            self.finished.set()

    def status_json(self, store) -> dict:
        out = {
            "request": self.id,
            "machine": self.machine,
            "total": len(self.jobs),
            "settled": len(self.sub.outcomes),
            "pending": len(self.jobs) - len(self.sub.outcomes),
            "status": "done" if self.finished.is_set() else "running",
        }
        if self.finished.is_set():
            results, failures = [], []
            for i, (status, payload) in sorted(self.sub.outcomes.items()):
                if status == "failed":
                    failures.append(payload.to_json())
                    continue
                summary = {"name": self.jobs[i].name,
                           "key": self.sub.keys[i]}
                result = store.get(self.sub.keys[i])
                if result is not None:
                    summary["seconds"] = result.seconds
                    summary["ipc"] = result.ipc
                    summary["counters"] = asdict(result.counters)
                results.append(summary)
            out["results"] = results
            out["failures"] = failures
        return out


class CharacterizationService:
    """The HTTP front-end over one :class:`Coordinator`.

    The pump ticks the coordinator (:meth:`Coordinator.step`) while any
    request is open or the seat is ours — so it stands for the seat,
    and coordinates only while it holds it — and turns settlements into
    stream events.  Health and metrics views never touch the election.
    """

    def __init__(self, coordinator: Coordinator, *,
                 pump_interval: float = 0.05):
        self.coordinator = coordinator
        self.pump_interval = pump_interval
        self._requests: dict[str, _Request] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._pump_thread: threading.Thread | None = None

    # -- request lifecycle ----------------------------------------------

    @staticmethod
    def request_id(keys: list[str]) -> str:
        digest = hashlib.sha256(
            "\n".join(sorted(keys)).encode()).hexdigest()
        return f"r{digest[:16]}"

    def submit(self, body: dict,
               parent: SpanContext | None = None) -> tuple[dict, int]:
        """Handle one POST /characterize; returns (reply, http status)."""
        specs, machine, fidelity, seed = parse_request(body)
        jobs = [JobSpec(spec=spec, machine=machine, fidelity=fidelity,
                        seed=seed) for spec in specs]
        fingerprint = code_fingerprint()
        keys = [job.cache_key(fingerprint) for job in jobs]
        req_id = self.request_id(keys)
        obs.add("fabric.service_requests")

        with self._lock:
            existing = self._requests.get(req_id)
            if existing is not None:
                obs.add("fabric.service_request_dedups")
                return ({"request": req_id, "keys": keys,
                         "deduplicated": True,
                         "status": ("done" if existing.finished.is_set()
                                    else "running")}, 200)
            manifest = self.coordinator.manifest
            with obs.span("fabric.request", parent=parent,
                          request=req_id, workloads=len(jobs)):
                manifest.begin(fingerprint, total=len(jobs))
                sub = self.coordinator.submit(jobs, fingerprint)
            for i, (status, _) in sub.outcomes.items():
                if status == "done":
                    manifest.record(sub.keys[i], jobs[i].name, "done")
            req = _Request(req_id, sub, jobs, machine.name)
            req.absorb()
            self._requests[req_id] = req
        hit = sub.dedup_hits == len(jobs)
        if hit:
            obs.add("fabric.service_store_hits")
        return ({"request": req_id, "keys": keys,
                 "enqueued": len(jobs) - sub.dedup_hits, "store_hits":
                 sub.dedup_hits, "served_from_store": hit,
                 "status": "done" if sub.done else "running"}, 202)

    def _pump(self) -> None:
        while not self._stop.wait(self.pump_interval):
            with self._lock:
                live = [req for req in self._requests.values()
                        if not req.finished.is_set()]
                if live or self.coordinator.is_leader:
                    self.coordinator.step()
                for req in live:
                    self.coordinator.refresh(req.sub)
                    req.absorb()

    def start(self) -> None:
        if self._pump_thread is None:
            self._pump_thread = threading.Thread(target=self._pump,
                                                 daemon=True)
            self._pump_thread.start()

    def close(self) -> None:
        self._stop.set()
        if self._pump_thread is not None:
            self._pump_thread.join(timeout=5.0)
            self._pump_thread = None
        self.coordinator.resign()

    # -- views -----------------------------------------------------------

    def request_view(self, req_id: str) -> dict | None:
        with self._lock:
            req = self._requests.get(req_id)
            if req is None:
                return None
            return req.status_json(self.coordinator.store)

    def health_json(self) -> dict:
        ledger = self.coordinator.ledger
        workers = ledger.workers()
        election = self.coordinator.election
        leader = election.current()
        return {"ok": True,
                "requests": len(self._requests),
                "queue_depth": len(ledger.queue_entries()),
                "leases": len(ledger.active_leases()),
                "leader": ({"coordinator": leader[0],
                            "epoch": leader[1]}
                           if leader is not None else None),
                "coordinators": {
                    cid: {"age_s": rec["age_s"],
                          "epoch": rec.get("epoch"),
                          "resigned": bool(rec.get("resigned"))}
                    for cid, rec in election.coordinators().items()},
                "store_reachable": self.coordinator.store_reachable(),
                "workers": {w: {"age_s": rec["age_s"],
                                "inflight": rec.get("inflight", [])}
                            for w, rec in workers.items()}}

    def metrics_text(self) -> str:
        """Prometheus exposition: obs registry + live fleet gauges.

        The fleet-health gauges are computed here from the ledger
        directly (not just copied from ``repro.obs``), so the scrape
        is meaningful even when observability is globally disabled.
        Per-worker series are proper labeled families
        (``...{worker="w1"}``) so a scraper can aggregate across the
        fleet, and each worker's latest published time-series sample
        (:mod:`repro.obs.timeseries` rings under ``<root>/obs``) is
        folded in as ``fabric.worker.*`` gauges — the same numbers
        ``repro-obs top`` renders.
        """
        registry = obs.MetricsRegistry()
        snap = obs.metrics_snapshot()
        if snap:
            registry.merge(snap)
        ledger = self.coordinator.ledger
        leases = ledger.active_leases()
        workers = ledger.workers()
        ttl = self.coordinator.lease_ttl
        registry.gauge_set("fabric.queue_depth",
                           float(len(ledger.queue_entries())))
        registry.gauge_set("fabric.leases_active", float(len(leases)))
        registry.gauge_set("fabric.workers_alive",
                           float(sum(1 for rec in workers.values()
                                     if rec["age_s"] <= ttl)))
        per_worker: dict[str, int] = {w: 0 for w in workers}
        for rec in leases.values():
            owner = rec.get("worker", "?")
            per_worker[owner] = per_worker.get(owner, 0) + 1
        for worker, rec in workers.items():
            registry.gauge_set(
                labeled("fabric.worker.leases", worker=worker),
                float(per_worker.get(worker, 0)))
            registry.gauge_set(
                labeled("fabric.worker.heartbeat_age_s", worker=worker),
                float(rec["age_s"]))
        for source, sample in timeseries.latest_by_source(
                self.coordinator.root / "obs").items():
            registry.gauge_set(
                labeled("fabric.worker.units_run", worker=source),
                float(sample.get("units_run", 0)))
            registry.gauge_set(
                labeled("fabric.worker.spool_pending", worker=source),
                float(sample.get("spool_pending", 0)))
            registry.gauge_set(
                labeled("fabric.worker.sample_age_s", worker=source),
                max(0.0, time.time() - sample.get("t_wall", 0.0)))
            if "ops_retired" in sample:
                registry.gauge_set(
                    labeled("fabric.worker.ops_retired", worker=source),
                    float(sample["ops_retired"]))
        with self._lock:
            registry.gauge_set("fabric.service_requests_open",
                               float(len(self._requests)))
        return registry.to_prometheus()


# ---------------------------------------------------------------------------
# The asyncio HTTP layer
# ---------------------------------------------------------------------------

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            408: "Request Timeout", 500: "Internal Server Error",
            503: "Service Unavailable"}


def _response(status: int, body: bytes, content_type: str,
              extra: dict[str, str] | None = None) -> bytes:
    head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close"]
    for key, value in (extra or {}).items():
        head.append(f"{key}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


def _json_response(status: int, payload: dict,
                   extra: dict[str, str] | None = None) -> bytes:
    return _response(status,
                     (json.dumps(payload) + "\n").encode(),
                     "application/json", extra)


class FabricServer:
    """Asyncio HTTP server wrapping a :class:`CharacterizationService`."""

    def __init__(self, service: CharacterizationService,
                 host: str = "127.0.0.1", port: int = 0, *,
                 read_timeout: float = 10.0,
                 write_timeout: float = 10.0,
                 max_inflight: int = 64):
        self.service = service
        self.host = host
        self.port = port
        #: seconds a client gets to deliver its full request
        self.read_timeout = read_timeout
        #: seconds a client gets to drain each response write
        self.write_timeout = write_timeout
        #: concurrent /characterize submissions before 503 backpressure
        self.max_inflight = max_inflight
        self._inflight = 0
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.service.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling -------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            raw = await self._respond(reader, writer)
            if raw is not None:
                writer.write(raw)
                await asyncio.wait_for(writer.drain(),
                                       self.write_timeout)
        except asyncio.TimeoutError:
            pass    # slow client: drop the connection, free the slot
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as err:      # never kill the accept loop
            try:
                writer.write(_json_response(
                    500, {"error": type(err).__name__,
                          "message": str(err)}))
                await writer.drain()
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader):
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise asyncio.IncompleteReadError(b"", None)
        parts = request_line.split()
        if len(parts) < 2:
            raise BadRequest("malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", "0") or "0")
        if length:
            body = await reader.readexactly(length)
        return method, path, headers, body

    def _span_parent(self, headers) -> SpanContext | None:
        raw = headers.get(SPAN_HEADER, "")
        if ":" not in raw:
            return None
        trace_id, _, span_id = raw.partition(":")
        if not trace_id or not span_id:
            return None
        return SpanContext(trace_id, span_id)

    async def _respond(self, reader, writer) -> bytes | None:
        try:
            method, path, headers, body = await asyncio.wait_for(
                self._read_request(reader), self.read_timeout)
        except asyncio.TimeoutError:
            # slow-client guard: a dribbling request must not pin a
            # connection (and its buffers) open indefinitely
            obs.add("fabric.service_read_timeouts")
            return _json_response(408,
                                  {"error": "request read timed out"})
        except BadRequest as err:
            return _json_response(400, {"error": str(err)})
        span_echo = {}
        ids = obs.current_ids()
        if ids is not None:
            span_echo["X-Repro-Span"] = f"{ids[0]}:{ids[1]}"

        if path == "/healthz" and method == "GET":
            return _json_response(200, self.service.health_json())
        if path == "/metrics" and method == "GET":
            return _response(200, self.service.metrics_text().encode(),
                             "text/plain; version=0.0.4")
        if path == "/characterize":
            if method != "POST":
                return _json_response(405, {"error": "POST required"})
            try:
                payload = json.loads(body.decode() or "{}")
            except ValueError:
                return _json_response(400, {"error": "invalid JSON body"})
            if self._inflight >= self.max_inflight:
                # bounded request queue: shed load with an honest 503
                # instead of queueing unboundedly behind the executor
                obs.add("fabric.service_rejected")
                return _json_response(
                    503, {"error": "submission queue full"},
                    {"Retry-After": "1"})
            parent = self._span_parent(headers)
            loop = asyncio.get_running_loop()
            self._inflight += 1
            try:
                reply, status = await loop.run_in_executor(
                    None, self.service.submit, payload, parent)
            except BadRequest as err:
                return _json_response(400, {"error": str(err)})
            finally:
                self._inflight -= 1
            return _json_response(status, reply, span_echo)
        if path.startswith("/requests/"):
            if method != "GET":
                return _json_response(405, {"error": "GET required"})
            rest = path[len("/requests/"):]
            if rest.endswith("/stream"):
                await self._stream(writer, rest[:-len("/stream")])
                return None
            view = self.service.request_view(rest)
            if view is None:
                return _json_response(404,
                                      {"error": f"unknown request {rest}"})
            return _json_response(200, view, span_echo)
        return _json_response(404, {"error": f"no route for {path}"})

    async def _stream(self, writer: asyncio.StreamWriter,
                      req_id: str) -> None:
        with self.service._lock:
            req = self.service._requests.get(req_id)
        if req is None:
            writer.write(_json_response(
                404, {"error": f"unknown request {req_id}"}))
            await writer.drain()
            return
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        sent = 0
        while True:
            with self.service._lock:
                events = list(req.events)
            for event in events[sent:]:
                writer.write((json.dumps(event) + "\n").encode())
            sent = len(events)
            await asyncio.wait_for(writer.drain(), self.write_timeout)
            if req.finished.is_set() and sent == len(req.events):
                return
            await asyncio.sleep(0.05)


def serve(service: CharacterizationService, host: str = "127.0.0.1",
          port: int = 8137) -> None:
    """Run the server until interrupted (the CLI entry point)."""

    async def _main() -> None:
        server = FabricServer(service, host, port)
        await server.start()
        print(f"repro-fabric serving on {server.url}")
        try:
            await asyncio.Event().wait()
        finally:
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class ServerThread:
    """A running server on a background event loop (tests, embedding)."""

    def __init__(self, service: CharacterizationService,
                 host: str = "127.0.0.1", port: int = 0,
                 **server_kwargs):
        self.server = FabricServer(service, host, port, **server_kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._started = threading.Event()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._started.set()
        self._loop.run_forever()
        self._loop.run_until_complete(self.server.close())
        self._loop.close()

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("fabric server failed to start")
        return self

    @property
    def url(self) -> str:
        return self.server.url

    def close(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
