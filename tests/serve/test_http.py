"""HTTP round-trip tests for ``repro-serve`` on an ephemeral port."""

import http.client
import json
import socket
import string
import sys
import threading
import urllib.error
import urllib.request
from urllib.parse import quote

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.registry import metric_names
from repro.serve import ArtifactStore, RankingServer, RankingService
from repro.serve.http import ROUTES


def serving(small_result, key):
    """A live server on an ephemeral port, shut down on exit."""
    service = RankingService(small_result, ArtifactStore(key))
    httpd = RankingServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def server(small_result):
    yield from serving(small_result, "key-http")


@pytest.fixture(scope="module")
def fuzz_server(small_result):
    yield from serving(small_result, "key-fuzz")


def raw_get(port, target):
    """``GET target`` written to a raw socket, so the target reaches the
    server exactly as given; returns (status, JSON body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(
            f"GET {target} HTTP/1.1\r\nHost: localhost\r\n"
            "Connection: close\r\n\r\n".encode("ascii")
        )
        response = http.client.HTTPResponse(sock)
        response.begin()
        assert response.getheader("Content-Type").startswith("application/json")
        return response.status, json.loads(response.read())


def get(server, path):
    url = f"http://127.0.0.1:{server.port}{path}"
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestRoutes:
    def test_healthz(self, server):
        status, payload = get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["fingerprint"] == server.service.fingerprint

    def test_rank_round_trip(self, server):
        status, payload = get(server, "/rank?metric=AHN&country=AU&k=3")
        assert status == 200
        assert payload["metric"] == "AHN"
        assert payload["country"] == "AU"
        assert len(payload["entries"]) <= 3
        assert payload["text"] == server.service.rank("AHN", "AU", k=3)["text"]

    def test_report_and_case_study(self, server):
        status, payload = get(server, "/report?country=AU")
        assert status == 200
        assert "# Internet profile: AU" in payload["markdown"]
        status, payload = get(server, "/case-study?country=AU")
        assert status == 200
        assert payload["rows"]

    def test_bad_query_is_400(self, server):
        for path, message in (
            ("/rank", "missing required parameter 'metric'"),
            ("/rank?metric=NOPE", "unknown metric"),
            ("/rank?metric=AHN&country=ZZ", "unknown country"),
            ("/rank?metric=AHN", "requires a country"),
            ("/rank?metric=AHN&country=AU&k=x", "must be an integer"),
            ("/rank?metric=AHN&country=AU&k=0", "k must be >= 1"),
            ("/report", "requires a country"),
            ("/rank?metric=AHN&metric=CCI", "more than once"),
        ):
            status, payload = get(server, path)
            assert status == 400, path
            assert message in payload["error"], path

    def test_unknown_path_is_404(self, server):
        status, payload = get(server, "/nope")
        assert status == 404
        assert "/rank" in payload["routes"]

    def test_malformed_target_is_400(self, server):
        """``urlsplit`` rejects the bracket; the handler answers 400
        instead of dropping the connection."""
        status, payload = raw_get(server.port, "http://[/rank?metric=AHN")
        assert status == 400
        assert "Invalid IPv6 URL" in payload["error"]
        # the daemon keeps serving
        assert get(server, "/healthz")[0] == 200


#: request-target characters: printable ASCII without whitespace
TARGET_CHARS = "".join(
    c for c in string.printable if not c.isspace()
)


@st.composite
def targets(draw):
    """A request target: a known route, a near miss or random text, with
    an optional query of known and random keys and values (raw or
    percent-encoded)."""
    path = draw(st.sampled_from(ROUTES + ("/", "/nope", "http://[", "//"))
                | st.text(TARGET_CHARS, max_size=20))
    words = st.sampled_from(metric_names() + ("AU", "NL", "zz", "10", "0", "-3"))
    keys = st.sampled_from(("metric", "country", "k")) | st.text(
        TARGET_CHARS, max_size=8
    )
    values = words | st.text(TARGET_CHARS, max_size=12) | st.text(
        max_size=6
    ).map(quote)
    pairs = draw(st.lists(st.tuples(keys, values), max_size=4))
    query = "&".join(f"{key}={value}" for key, value in pairs)
    target = path + (("?" + query) if draw(st.booleans()) else "")
    return target or "/"


class TestQueryFuzzing:
    @settings(max_examples=150, deadline=None)
    @given(targets())
    def test_every_response_is_a_json_verdict(self, fuzz_server, target):
        status, payload = raw_get(fuzz_server.port, target)
        assert status in (200, 400, 404), (target, payload)
        assert isinstance(payload, dict)


class TestKeepAlive:
    def test_accepted_socket_disables_nagle(self, server, monkeypatch):
        """Headers and body go out in two writes; the handler's socket
        must set TCP_NODELAY so a kept-alive client is not stalled
        waiting for its own delayed ACK."""
        seen = []
        setup = server.RequestHandlerClass.setup

        def recording_setup(handler):
            setup(handler)
            seen.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ))

        monkeypatch.setattr(server.RequestHandlerClass, "setup", recording_setup)
        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            for _ in range(2):  # the second request reuses the connection
                connection.request("GET", "/healthz")
                assert connection.getresponse().read()
        finally:
            connection.close()
        assert len(seen) == 1 and seen[0] != 0


class TestConcurrency:
    def test_concurrent_requests_are_deterministic(self, server):
        paths = (
            "/rank?metric=AHN&country=AU",
            "/rank?metric=CCI&country=AU",
            "/healthz",
        )
        results: dict[str, set] = {path: set() for path in paths}
        lock = threading.Lock()

        def hammer(path):
            status, payload = get(server, path)
            payload.pop("source", None)   # computed on first touch only
            payload.pop("requests", None)  # healthz counter advances
            payload.pop("store", None)
            with lock:
                results[path].add((status, json.dumps(payload, sort_keys=True)))

        threads = [
            threading.Thread(target=hammer, args=(paths[i % len(paths)],))
            for i in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for path, bodies in results.items():
            assert len(bodies) == 1, path
            assert next(iter(bodies))[0] == 200


class TestMaxRequests:
    def test_shuts_down_after_budget(self, small_result):
        service = RankingService(small_result, ArtifactStore("key-max"))
        httpd = RankingServer(("127.0.0.1", 0), service, max_requests=2)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        for _ in range(2):
            status, _ = get(httpd, "/healthz")
            assert status == 200
        thread.join(timeout=5)
        assert not thread.is_alive()
        httpd.server_close()


class TestServeAndStop:
    def test_serve_and_stop_race_in_either_order(self, small_result):
        """``serve`` and ``stop`` start together on four servers at a
        time, in both orders, under a short switch interval: every
        thread ends, and a ``serve`` after ``stop`` returns at once."""
        service = RankingService(small_result, ArtifactStore("key-race"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                servers = [RankingServer(("127.0.0.1", 0), service) for _ in range(4)]
                threads = []
                for index, httpd in enumerate(servers):
                    pair = [
                        threading.Thread(target=httpd.serve, daemon=True),
                        threading.Thread(target=httpd.stop, daemon=True),
                    ]
                    threads += pair if index % 2 else pair[::-1]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                for httpd in servers:
                    late = threading.Thread(target=httpd.serve, daemon=True)
                    late.start()
                    late.join(timeout=10)
                    assert not late.is_alive()
                    httpd.server_close()
        finally:
            sys.setswitchinterval(interval)
