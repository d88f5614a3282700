"""HTTP service: dedup semantics, streaming, metrics exposition."""

import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.fabric.coordinator import Coordinator
from repro.fabric.service import (BadRequest, CharacterizationService,
                                  ServerThread, parse_request)
from repro.fabric.units import WorkUnit
from repro.fabric.worker import WorkerAgent
from repro.obs.spans import SpanContext

BENCH = ["System.Runtime", "System.Text"]
BODY = {"benchmarks": BENCH, "instructions": 10_000, "warmup": 5_000}


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def _post(url, body, headers=None):
    req = urllib.request.Request(
        url, data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json", **(headers or {})})
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


@pytest.fixture
def fabric(tmp_path):
    coordinator = Coordinator(tmp_path / "fab", lease_ttl=5.0,
                              poll_interval=0.01)
    service = CharacterizationService(coordinator, pump_interval=0.01)
    server = ServerThread(service).start()
    yield coordinator, service, server
    server.close()
    service.close()


def _spawn_worker(tmp_path, **kw):
    kw.setdefault("worker_id", "wS")
    kw.setdefault("heartbeat_interval", 0.1)
    kw.setdefault("poll_interval", 0.01)
    agent = WorkerAgent(tmp_path / "fab", **kw)
    thread = threading.Thread(target=agent.run,
                              kwargs={"idle_exit": 2.0}, daemon=True)
    thread.start()
    return agent, thread


class TestParseRequest:
    def test_unknown_benchmark(self):
        with pytest.raises(BadRequest, match="unknown benchmark"):
            parse_request({"benchmarks": ["NoSuchBench"]})

    def test_unknown_suite(self):
        with pytest.raises(BadRequest, match="unknown suite"):
            parse_request({"suite": "fortran"})

    def test_unknown_machine(self):
        with pytest.raises(BadRequest, match="unknown machine"):
            parse_request({"benchmarks": BENCH, "machine": "cray"})

    def test_needs_selection(self):
        with pytest.raises(BadRequest, match="benchmarks.*or.*suite"):
            parse_request({})

    def test_fidelity_from_body(self):
        specs, machine, fidelity, seed = parse_request(
            {"benchmarks": BENCH, "instructions": 1234, "warmup": 99,
             "seed": 7})
        assert [s.name for s in specs] == BENCH
        assert fidelity.measure_instructions == 1234
        assert fidelity.warmup_instructions == 99
        assert seed == 7


class TestEndToEnd:
    def test_miss_then_pure_cache_hit(self, tmp_path, fabric):
        coordinator, service, server = fabric
        agent, thread = _spawn_worker(tmp_path)

        status, first = _post(server.url + "/characterize", BODY)
        assert status == 202
        assert first["enqueued"] == 2
        assert not first["served_from_store"]
        rid = first["request"]

        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            _, view = _get(server.url + f"/requests/{rid}")
            if view["status"] == "done":
                break
            time.sleep(0.05)
        assert view["status"] == "done"
        assert [r["name"] for r in view["results"]] == BENCH
        assert all("counters" in r and r["seconds"] > 0
                   for r in view["results"])
        assert view["failures"] == []

        thread.join(timeout=30.0)
        ran = agent.units_run
        assert ran == 2

        # identical request again: request-level dedup, zero new jobs
        status, again = _post(server.url + "/characterize", BODY)
        assert status == 200
        assert again["deduplicated"] and again["request"] == rid
        assert coordinator.ledger.queue_entries() == []
        assert agent.units_run == ran

    def test_fresh_service_serves_same_request_from_store(
            self, tmp_path, fabric):
        # A *restarted* service (empty request table) must still answer
        # entirely from the store: zero units enqueued.
        coordinator, service, server = fabric
        _spawn_worker(tmp_path)
        status, first = _post(server.url + "/characterize", BODY)
        rid = first["request"]
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            _, view = _get(server.url + f"/requests/{rid}")
            if view["status"] == "done":
                break
            time.sleep(0.05)

        second = CharacterizationService(coordinator,
                                         pump_interval=0.01)
        reply, status = second.submit(BODY)
        assert status == 202
        assert reply["served_from_store"]
        assert reply["enqueued"] == 0 and reply["status"] == "done"
        second.close()

    def test_stream_emits_settlements_then_done(self, tmp_path, fabric):
        _, _, server = fabric
        _spawn_worker(tmp_path)
        _, first = _post(server.url + "/characterize", BODY)
        events = []
        with urllib.request.urlopen(
                server.url + f"/requests/{first['request']}/stream",
                timeout=120) as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            for line in resp:
                events.append(json.loads(line))
        kinds = [e["event"] for e in events]
        assert kinds.count("settled") == 2
        assert kinds[-1] == "request-done"
        assert events[-1]["done"] == 2 and events[-1]["failed"] == 0


    def test_request_settles_while_another_process_holds_the_seat(
            self, tmp_path, fabric):
        # the service only coordinates from the seat; here a standby
        # loop already holds it, adopts the persisted request, and the
        # service streams what that leader settles
        coordinator, _, server = fabric
        leader = Coordinator(tmp_path / "fab", coordinator_id="cOther",
                             lease_ttl=5.0, poll_interval=0.01)
        assert leader.step() and leader.epoch == 1
        stop = threading.Event()
        lead = threading.Thread(target=leader.run,
                                kwargs={"should_stop": stop.is_set},
                                daemon=True)
        lead.start()
        _spawn_worker(tmp_path)
        try:
            status, first = _post(server.url + "/characterize", BODY)
            assert status == 202 and not first["served_from_store"]
            events = []
            with urllib.request.urlopen(
                    server.url + f"/requests/{first['request']}/stream",
                    timeout=120) as resp:
                for line in resp:
                    events.append(json.loads(line))
        finally:
            stop.set()
            lead.join(timeout=30.0)
        kinds = [e["event"] for e in events]
        assert kinds.count("settled") == 2
        assert kinds[-1] == "request-done"
        assert events[-1]["done"] == 2 and events[-1]["failed"] == 0
        assert not coordinator.is_leader
        assert coordinator.election.current() == ("cOther", 1)


class TestHttpSurface:
    def test_healthz_reports_fleet(self, tmp_path, fabric):
        _, _, server = fabric
        agent, thread = _spawn_worker(tmp_path)
        deadline = time.monotonic() + 10.0
        workers = {}
        while time.monotonic() < deadline and not workers:
            _, health = _get(server.url + "/healthz")
            workers = health["workers"]
            time.sleep(0.02)
        assert health["ok"] and "wS" in workers

    def test_unknown_request_404(self, fabric):
        _, _, server = fabric
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/requests/rdeadbeef")
        assert excinfo.value.code == 404

    def test_unknown_route_404(self, fabric):
        _, _, server = fabric
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404

    def test_bad_json_400(self, fabric):
        _, _, server = fabric
        req = urllib.request.Request(
            server.url + "/characterize", data=b"{not json",
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_benchmark_400(self, fabric):
        _, _, server = fabric
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/characterize",
                  {"benchmarks": ["NoSuchBench"]})
        assert excinfo.value.code == 400

    def test_method_not_allowed(self, fabric):
        _, _, server = fabric
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/characterize")
        assert excinfo.value.code == 405


# Prometheus exposition: "# HELP"/"# TYPE" headers and samples.
_META_RE = re.compile(r"^# (HELP [a-zA-Z_][a-zA-Z0-9_]* .+"
                      r"|TYPE [a-zA-Z_][a-zA-Z0-9_]* "
                      r"(counter|gauge|histogram))$")
_SAMPLE_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*"
                        r"(\{[^}]*\})? -?[0-9.eE+-]+$")


class TestMetricsEndpoint:
    def _scrape(self, server):
        with urllib.request.urlopen(server.url + "/metrics",
                                    timeout=30) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            return resp.read().decode()

    def test_scrape_format_is_prometheus(self, tmp_path, fabric):
        _, _, server = fabric
        agent, _ = _spawn_worker(tmp_path)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if agent.ledger.workers():
                break
            time.sleep(0.02)
        text = self._scrape(server)
        lines = [l for l in text.splitlines() if l]
        assert lines, "scrape must not be empty"
        for line in lines:
            if line.startswith("#"):
                assert _META_RE.match(line), line
            else:
                assert _SAMPLE_RE.match(line), line

    def test_fleet_gauges_exposed_per_worker(self, tmp_path, fabric):
        _, _, server = fabric
        agent, _ = _spawn_worker(tmp_path)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if agent.ledger.workers():
                break
            time.sleep(0.02)
        text = self._scrape(server)
        assert "repro_fabric_queue_depth" in text
        assert "repro_fabric_leases_active" in text
        assert "repro_fabric_workers_alive 1" in text
        assert 'repro_fabric_worker_heartbeat_age_s{worker="wS"}' in text
        assert 'repro_fabric_worker_leases{worker="wS"} 0' in text
        # one family header shared by all label variants
        assert text.count("# TYPE repro_fabric_worker_leases gauge") == 1


class TestSpanPropagation:
    def test_parent_span_reaches_unit_envelope(self, tmp_path):
        obs.configure(tmp_path / "obs", export_env=False)
        try:
            coordinator = Coordinator(tmp_path / "fab")
            service = CharacterizationService(coordinator)
            parent = SpanContext("remotetrace", "remotespan")
            reply, _ = service.submit(BODY, parent)
            # every unit envelope carries the request span's context,
            # so worker-side unit spans parent under it cross-host
            entries = coordinator.ledger.queue_entries()
            assert len(entries) == len(BENCH)
            unit = WorkUnit.load(entries[0][1])
            assert unit.span is not None
            obs.flush()
            spans = []
            for path in (tmp_path / "obs").glob("spans-*.jsonl"):
                spans += [json.loads(line) for line in
                          path.read_text().splitlines()]
            request_span = next(s for s in spans
                                if s["name"] == "fabric.request")
            # the caller's span id crossed the HTTP boundary
            assert request_span["parent_id"] == "remotespan"
            assert unit.span[1] == request_span["span_id"]
            service.close()
        finally:
            obs.shutdown(dump=False)

    def test_http_span_header_accepted(self, tmp_path, fabric):
        _, _, server = fabric
        status, reply = _post(server.url + "/characterize", BODY,
                              headers={"X-Repro-Span": "t1:s1"})
        assert status == 202 and reply["enqueued"] == 2


class TestServiceHardening:
    """Per-connection timeouts, bounded backpressure, HA health."""

    def _server(self, tmp_path, **server_kwargs):
        coordinator = Coordinator(tmp_path / "fab", lease_ttl=5.0,
                                  poll_interval=0.01)
        service = CharacterizationService(coordinator,
                                          pump_interval=0.01)
        server = ServerThread(service, **server_kwargs).start()
        return coordinator, service, server

    def test_healthz_reports_leader_and_store(self, tmp_path):
        coordinator, service, server = self._server(tmp_path)
        try:
            assert coordinator.election.try_takeover("cHA",
                                                     ttl=5.0) == 1
            coordinator.election.heartbeat("cHA", 1, seq=1)
            status, health = _get(server.url + "/healthz")
            assert status == 200
            assert health["leader"] == {"coordinator": "cHA",
                                        "epoch": 1}
            assert health["coordinators"]["cHA"]["epoch"] == 1
            assert health["coordinators"]["cHA"]["resigned"] is False
            assert health["store_reachable"] is True
        finally:
            server.close()
            service.close()

    def test_slow_client_gets_408_not_a_stuck_connection(self,
                                                         tmp_path):
        import socket
        from urllib.parse import urlparse

        _, service, server = self._server(tmp_path, read_timeout=0.2)
        try:
            parsed = urlparse(server.url)
            host, port = parsed.hostname, parsed.port
            with socket.create_connection((host, port),
                                          timeout=10.0) as sock:
                # a request that never finishes arriving
                sock.sendall(b"POST /characterize HTTP/1.1\r\n"
                             b"Content-Length: 100\r\n\r\n")
                sock.settimeout(10.0)
                reply = sock.recv(4096)
            assert b"408" in reply.split(b"\r\n", 1)[0]
            snap = obs.metrics_snapshot()
            if snap:
                assert snap["counters"].get(
                    "fabric.service_read_timeouts", 0) >= 0
        finally:
            server.close()
            service.close()

    def test_backpressure_rejects_with_503_and_retry_after(self,
                                                           tmp_path):
        _, service, server = self._server(tmp_path, max_inflight=0)
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(server.url + "/characterize", BODY)
            assert err.value.code == 503
            assert err.value.headers["Retry-After"] == "1"
        finally:
            server.close()
            service.close()
