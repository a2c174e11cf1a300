"""The service end to end: correct answers, caching, shedding,
deadlines, observability, graceful drain, and the transport (kept-alive
connections, single-write responses, hits on the connection thread)."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import base_architecture
from repro.core.serialization import config_to_dict, profile_to_dict
from repro.core.simulator import simulate
from repro.errors import ServeError
from repro.farm.cache import ResultCache
from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.protocol import parse_simulate_request
from repro.serve.server import ServeSettings, SimServer
from repro.trace.benchmarks import default_suite

INSTRUCTIONS = 5_000
TIME_SLICE = 2_000
SUITE = default_suite(INSTRUCTIONS)[:2]


def request_body(instructions=INSTRUCTIONS, deadline_s=None):
    profiles = (SUITE if instructions == INSTRUCTIONS
                else default_suite(instructions)[:2])
    payload = {
        "config": config_to_dict(base_architecture()),
        "workload": {"profiles": [profile_to_dict(p) for p in profiles]},
        "time_slice": TIME_SLICE,
    }
    if deadline_s is not None:
        payload["deadline_s"] = deadline_s
    return payload


def no_retry_client(server):
    return ServeClient(f"http://127.0.0.1:{server.port}",
                       retry=RetryPolicy(max_attempts=1),
                       timeout_s=30.0)


def post_raw(server, payload):
    """One raw POST; returns (status, parsed_body, headers)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}/v1/simulate",
        data=json.dumps(payload).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (response.status, json.loads(response.read()),
                    dict(response.headers))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers or {})


@pytest.fixture
def server(tmp_path):
    """A started server with a private cache; drained at teardown."""
    instance = SimServer(
        ServeSettings(port=0, queue_depth=4, workers=2,
                      default_deadline_s=30.0, drain_grace_s=5.0),
        cache=ResultCache(tmp_path / "cache"))
    instance.start()
    yield instance
    if instance._httpd is not None:
        instance.drain(grace_s=5.0)


class TestSimulate:
    def test_200_is_bit_identical_to_direct_simulation(self, server):
        truth = simulate(base_architecture(), list(SUITE),
                         time_slice=TIME_SLICE).to_dict()
        result = no_retry_client(server).simulate(request_body())
        assert result["cached"] is False
        assert result["stats"] == truth

    def test_second_request_is_a_cache_hit_same_answer(self, server):
        client = no_retry_client(server)
        first = client.simulate(request_body())
        second = client.simulate(request_body())
        assert first["cached"] is False and second["cached"] is True
        assert first["stats"] == second["stats"]
        assert first["key"] == second["key"]
        assert server.metrics.snapshot()["executor"]["cache_hits"] == 1

    def test_bad_request_is_400_with_message_not_traceback(self, server):
        status, body, _ = post_raw(server, {"config": {"junk": 1},
                                            "workload": {"profiles": []}})
        assert status == 400
        assert "error" in body and "Traceback" not in body["error"]

    def test_retired_engine_is_400_listing_engines(self, server):
        status, body, _ = post_raw(server, {**request_body(),
                                            "engine": "batched"})
        assert status == 400
        assert "did you mean 'native'" in body["error"]
        assert "available: reference, native" in body["error"]

    def test_client_refuses_to_retry_a_400(self, server):
        with pytest.raises(ServeError) as excinfo:
            no_retry_client(server).simulate({"nonsense": True})
        assert excinfo.value.status == 400

    def test_unknown_path_is_404(self, server):
        status, body, _ = post_raw(server, request_body())
        assert status == 200  # sanity: the good path first
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/nope", data=b"{}",
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404

    def test_missing_content_length_is_400(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        try:
            conn.putrequest("POST", "/v1/simulate", skip_accept_encoding=True)
            conn.endheaders()  # no Content-Length, no body
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()


class _StalledServer(SimServer):
    """Executor that parks every job until released: deterministic
    backpressure without real simulations."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.release = threading.Event()

    def _execute(self, job):
        self.release.wait(timeout=30)
        job.finish(200, {"stalled": True})


class TestBackpressure:
    def test_full_queue_sheds_429_with_retry_after(self):
        server = _StalledServer(ServeSettings(
            port=0, queue_depth=1, workers=1, retry_after_s=2.0,
            default_deadline_s=30.0))
        server.start()
        try:
            results = []

            def fire():
                results.append(post_raw(server, request_body()))

            # One request occupies the lone executor...
            threads = [threading.Thread(target=fire)]
            threads[0].start()
            deadline = time.monotonic() + 10
            while server._in_flight < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._in_flight == 1, "executor never picked up"
            # ...then a second fills the (depth-1) queue.
            threads.append(threading.Thread(target=fire))
            threads[1].start()
            deadline = time.monotonic() + 10
            while not server.queue.full() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.queue.full(), "queue never filled"

            status, body, headers = post_raw(server, request_body())
            assert status == 429
            assert body["status"] == 429
            retry_after = {k.lower(): v for k, v in headers.items()
                           }.get("retry-after")
            assert retry_after is not None and int(retry_after) >= 1
            assert server.metrics.snapshot()["responses"]["shed"] == 1

            server.release.set()
            for thread in threads:
                thread.join(timeout=10)
            assert [status for status, _, _ in results] == [200, 200]
        finally:
            server.release.set()
            server.drain(grace_s=2.0)

    def test_draining_server_refuses_admission_503(self):
        server = _StalledServer(ServeSettings(port=0, queue_depth=4,
                                              workers=1))
        server.start()
        server.release.set()
        server._draining = True
        try:
            status, body, _ = post_raw(server, request_body())
            assert status == 503
            assert "drain" in body["error"]
        finally:
            server.drain(grace_s=2.0)


class TestDeadlines:
    def test_hopeless_deadline_is_an_explicit_504(self, server):
        # Far more work than 50ms allows: must expire, not hang or lie.
        status, body, _ = post_raw(
            server, request_body(instructions=500_000, deadline_s=0.05))
        assert status == 504
        assert "deadline" in body["error"]
        responses = server.metrics.snapshot()["responses"]
        assert responses["deadline_expired"] == 1

    def test_deadline_clamped_to_server_max(self, tmp_path):
        server = SimServer(ServeSettings(port=0, max_deadline_s=0.05,
                                         workers=1))
        server.start()
        try:
            status, body, _ = post_raw(
                server, request_body(instructions=500_000,
                                     deadline_s=3600.0))
            assert status == 504  # the hour was clamped to 50ms
        finally:
            server.drain(grace_s=2.0)


class TestObservability:
    def test_health_ready_metrics(self, server):
        client = no_retry_client(server)
        assert client.healthy() is True
        assert client.ready() is True
        client.simulate(request_body())
        doc = client.metrics()
        assert doc["draining"] is False
        assert doc["responses"]["ok"] == 1
        assert doc["executor"]["simulated"] == 1
        assert doc["queue"]["capacity"] == 4
        assert doc["requests_total"] >= 1
        assert doc["cache"]["entries"] == 1
        assert doc["isolation"] in ("fork", "inline")
        json.dumps(doc)  # the whole snapshot must be JSON-clean

    def test_metrics_counts_one_response_per_simulate(self, server):
        client = no_retry_client(server)
        client.simulate(request_body())
        client.simulate(request_body())  # cache hit
        responses = server.metrics.snapshot()["responses"]
        assert responses["ok"] == 2
        assert sum(responses.values()) == 2


class TestReadiness:
    def test_readyz_body_carries_load_signals(self, server):
        ok, body = no_retry_client(server).readiness()
        assert ok is True
        assert body["ready"] is True
        assert body["draining"] is False
        assert body["queue_capacity"] == 4
        assert isinstance(body["queue_depth"], int)
        assert isinstance(body["in_flight"], int)
        assert "reference" in body["engines"]

    def test_draining_readyz_is_503_but_still_reports_load(self, server):
        server._draining = True
        ok, body = no_retry_client(server).readiness()
        assert ok is False
        assert body["draining"] is True
        assert body["queue_capacity"] == 4


class TestTraceOverTheWire:
    def test_client_obs_trace_id_names_the_response_trace(self, server):
        payload = request_body()
        payload["obs_trace"] = "feed" * 8
        result = no_retry_client(server).simulate(payload)
        assert result["trace"]["id"] == "feed" * 8
        assert result["trace"]["spans"]  # server-side spans came back
        snapshot = server.status_snapshot()
        assert "feed" * 8 in snapshot["recent_trace_ids"]

    def test_response_stats_carry_a_matching_digest(self, server):
        from repro.serve.protocol import stats_digest

        result = no_retry_client(server).simulate(request_body())
        assert result["stats_sha256"] == stats_digest(result["stats"])


class TestDrain:
    def test_idle_drain_is_clean_and_stops_serving(self, server):
        client = no_retry_client(server)
        client.simulate(request_body())
        summary = server.drain(grace_s=2.0)
        assert summary["clean"] is True
        assert summary["cancelled"] == 0
        assert client.healthy() is False  # listener is gone

    def test_drain_waits_for_in_flight_work(self):
        server = _StalledServer(ServeSettings(port=0, queue_depth=4,
                                              workers=1, drain_grace_s=10.0))
        server.start()
        try:
            statuses = []
            thread = threading.Thread(target=lambda: statuses.append(
                post_raw(server, request_body())[0]))
            thread.start()
            deadline = time.monotonic() + 10
            while server._in_flight < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            threading.Timer(0.3, server.release.set).start()
            summary = server.drain(grace_s=8.0)
            thread.join(timeout=10)
            assert summary["clean"] is True
            assert statuses == [200]  # the in-flight request completed
        finally:
            server.release.set()

    def test_drain_is_idempotent(self, server):
        assert server.drain(grace_s=1.0)["clean"] is True
        assert server.drain(grace_s=1.0)["clean"] is True


# ------------------------------------------------------------------ transport


def connections(server):
    """``serve_connections_total`` as ``/metrics`` reports it."""
    family = server.status_snapshot()["obs"]["serve_connections_total"]
    return sum(family["values"].values())


def cached_body(cache):
    """A request body whose answer is already in ``cache``."""
    body = request_body()
    spec, _, _ = parse_simulate_request(json.dumps(body).encode("utf-8"))
    stats = simulate(base_architecture(), list(SUITE), time_slice=TIME_SLICE)
    cache.put(spec.key(), stats)
    return body, stats


class TestKeepAlive:
    def test_sequential_requests_share_one_connection(self, server):
        client = no_retry_client(server)
        first = client.simulate(request_body())
        for _ in range(4):
            assert client.simulate(request_body())["cached"] is True
        assert client.healthy() is True
        assert client.metrics()["responses"]["ok"] == 5
        assert connections(server) == 1
        assert first["cached"] is False

    def test_threads_sharing_a_client_each_reuse_their_own(self, server):
        # The grid shares one client per node across dispatcher threads.
        client = no_retry_client(server)
        client.simulate(request_body())  # fill the cache: one connection
        threads, errors = 3, []
        barrier = threading.Barrier(threads)

        def dispatcher():
            try:
                barrier.wait(timeout=10)
                for _ in range(4):
                    assert client.simulate(request_body())["cached"]
            except Exception as exc:  # reported below
                errors.append(exc)
            finally:
                client.close()

        workers = [threading.Thread(target=dispatcher)
                   for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        assert errors == []
        assert connections(server) == 1 + threads
        client.close()


class TestSingleWrite:
    def test_each_response_is_one_write_on_a_nodelay_socket(
            self, server, monkeypatch):
        handler = server._httpd.RequestHandlerClass
        setup = handler.setup
        writes = []

        class Recorder:
            def __init__(self, sock, wfile):
                self._sock, self._wfile = sock, wfile

            def write(self, data):
                writes.append((self._sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY), bytes(data)))
                return self._wfile.write(data)

            def __getattr__(self, name):
                return getattr(self._wfile, name)

        def recording_setup(self):
            setup(self)
            self.wfile = Recorder(self.connection, self.wfile)

        monkeypatch.setattr(handler, "setup", recording_setup)
        client = no_retry_client(server)
        client.simulate(request_body())          # a miss
        client.simulate(request_body())          # a hit
        assert client.healthy() is True
        assert len(writes) == 3                  # one write per response
        for nodelay, data in writes:
            assert nodelay != 0
            head, _, body = data.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200")
            length = [line for line in head.split(b"\r\n")
                      if line.lower().startswith(b"content-length:")]
            assert int(length[0].split(b":")[1]) == len(body)


class TestHitsOnTheConnectionThread:
    def _pinned(self, tmp_path):
        server = _StalledServer(
            ServeSettings(port=0, queue_depth=1, workers=1,
                          default_deadline_s=30.0),
            cache=ResultCache(tmp_path / "cache"))
        server.start()
        return server

    def test_hit_is_answered_while_the_queue_is_full(self, tmp_path):
        server = self._pinned(tmp_path)
        try:
            body, stats = cached_body(server.cache)
            statuses = []

            def miss(instructions):
                statuses.append(no_retry_client(server).simulate(
                    request_body(instructions=instructions)).get("stalled"))

            # One miss pins the lone executor, a second fills the queue.
            threads = [threading.Thread(target=miss, args=(INSTRUCTIONS + 1,))]
            threads[0].start()
            deadline = time.monotonic() + 10
            while server._in_flight < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            threads.append(threading.Thread(target=miss,
                                            args=(INSTRUCTIONS + 2,)))
            threads[1].start()
            while not server.queue.full() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._in_flight == 1 and server.queue.full()

            result = no_retry_client(server).simulate(body)
            assert result["cached"] is True
            assert result["stats"] == stats.to_dict()
            snapshot = server.metrics.snapshot()
            assert snapshot["executor"]["cache_hits"] == 1
            assert snapshot["responses"]["shed"] == 0

            server.release.set()
            for thread in threads:
                thread.join(timeout=10)
            assert statuses == [True, True]
        finally:
            server.release.set()
            server.drain(grace_s=2.0)

    def test_draining_server_refuses_a_hit_503(self, tmp_path):
        server = self._pinned(tmp_path)
        try:
            body, _ = cached_body(server.cache)
            server._draining = True
            with pytest.raises(ServeError) as excinfo:
                no_retry_client(server).simulate(body)
            assert excinfo.value.status == 503
            assert server.metrics.snapshot()["executor"]["cache_hits"] == 0
        finally:
            server.release.set()
            server.drain(grace_s=2.0)


class TestParseMemo:
    def test_memoized_bodies_keep_their_own_trace_ids(self, server):
        client = no_retry_client(server)
        client.simulate(request_body())
        traced = {name: dict(request_body(), obs_trace=name * 32)
                  for name in "ab"}
        for _ in range(2):
            for name, body in traced.items():
                assert client.simulate(body)["trace"]["id"] == name * 32
        # A body without an ID mints a fresh one per request, memo or not.
        minted = {client.simulate(request_body())["trace"]["id"]
                  for _ in range(3)}
        assert len(minted) == 3
        assert not minted & {"a" * 32, "b" * 32}

    def test_memo_is_bounded(self, server, monkeypatch):
        import repro.serve.server as server_module

        monkeypatch.setattr(server_module, "PARSE_MEMO_MAX", 2)
        for i in range(4):
            server.parse(json.dumps(dict(request_body(),
                                         obs_trace=f"t{i}")).encode())
        assert len(server._memo) == 2


class _ScriptedPeer:
    """A raw TCP server: connection ``i`` follows ``script[i]`` —
    ``"serve_then_close"`` answers one request then closes the socket
    (an idle timeout), ``"close"`` reads a request and closes without a
    byte of response."""

    RESPONSE = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: 16\r\n\r\n{\"cached\": true}")

    def __init__(self, script):
        self.script = list(script)
        self.accepted = 0
        self.closed = threading.Event()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        while self.script:
            conn, _ = self.listener.accept()
            self.accepted += 1
            behavior = self.script.pop(0)
            with conn:
                data = b""
                while b"\r\n\r\n" not in data:
                    data += conn.recv(65536)
                if behavior == "serve_then_close":
                    conn.sendall(self.RESPONSE)
            self.closed.set()

    def close(self):
        self.listener.close()


class TestPeerClosedRetry:
    def _client(self, peer):
        slept = []
        client = ServeClient(f"http://127.0.0.1:{peer.port}",
                             retry=RetryPolicy(max_attempts=1),
                             timeout_s=10.0, sleep=slept.append)
        return client, slept

    def test_idle_close_is_retried_transparently(self):
        peer = _ScriptedPeer(["serve_then_close", "serve_then_close"])
        try:
            client, slept = self._client(peer)
            assert client.simulate({})["cached"] is True
            assert peer.closed.wait(timeout=10)
            # The kept-alive socket is dead; the request goes once more on
            # a fresh one, without a backoff sleep or a breaker failure.
            assert client.simulate({})["cached"] is True
            assert peer.accepted == 2
            assert slept == []
            assert client.breaker.snapshot()["consecutive_failures"] == 0
        finally:
            peer.close()

    def test_retried_once_only(self):
        peer = _ScriptedPeer(["serve_then_close", "close",
                              "serve_then_close"])
        try:
            client, _ = self._client(peer)
            client.simulate({})
            assert peer.closed.wait(timeout=10)
            with pytest.raises(ServeError) as excinfo:
                client.simulate({})
            assert excinfo.value.status == 0
            assert peer.accepted == 2  # the third socket was never opened
        finally:
            peer.close()

    def test_fresh_connection_closed_is_not_retried(self):
        peer = _ScriptedPeer(["close", "serve_then_close"])
        try:
            client, _ = self._client(peer)
            with pytest.raises(ServeError) as excinfo:
                client.simulate({})
            assert excinfo.value.status == 0
            assert peer.accepted == 1
        finally:
            peer.close()
