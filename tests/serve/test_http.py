"""HTTP round-trip tests for ``repro-serve`` on an ephemeral port."""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import ArtifactStore, RankingServer, RankingService


@pytest.fixture()
def server(small_result):
    service = RankingService(small_result, ArtifactStore("key-http"))
    httpd = RankingServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)


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
