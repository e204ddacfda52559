"""The daemon's thread model: the thread that ran the pipeline computes.

``run_serve`` (what ``repro-serve`` runs) keeps its calling thread as
the daemon's compute thread: every ranking miss, report and case study
runs there, while connection threads parse, read the store, render and
write. These tests drive that wiring over HTTP on the ``small`` world,
with the daemon's main thread a thread of the test, and check where
each computation ran, that each unit is computed once, that failures
cross the hand-off as the status they had, and that every way of
stopping the daemon ends every thread it started.
"""

import http.client
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from itertools import product
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

import pytest

import repro
from repro.core.pipeline import PipelineResult
from repro.obs.trace import Tracer
from repro.serve import ArtifactStore, QueryError, RankingService
from repro.serve import cli as serve_cli
from repro.serve import service as serve_service

#: seconds any one join, wait or request may take
TIMEOUT_S = 60

RANKS = [
    f"/rank?metric={metric}&country={country}"
    for metric, country in product(("AHN", "CCI", "AHC", "CTI"), ("AU", "NL"))
] + ["/rank?metric=CCG"]
OTHERS = ["/report?country=AU", "/case-study?country=AU", "/case-study?country=NL"]


def computed_on(monkeypatch):
    """Record ``(what, thread ident)`` for the pipeline run and every
    ranking, report and case-study computation from here on."""
    calls = []

    def record(owner, name):
        original = getattr(owner, name)

        def recorded(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)

    record(serve_cli, "run_pipeline")
    record(PipelineResult, "ranking")
    record(serve_service, "country_report")
    record(serve_service, "case_study_table")
    return calls


class Daemon:
    """``repro-serve --world small --port 0 ARGS`` whose main thread is a
    thread of the test, with the server and tracer it builds."""

    def __init__(self, monkeypatch, *args):
        servers = queue.Queue()
        self.tracers = []

        class Recorded(serve_cli.RankingServer):
            def __init__(self, *server_args, **kwargs):
                super().__init__(*server_args, **kwargs)
                servers.put(self)

        def tracer():
            self.tracers.append(Tracer())
            return self.tracers[-1]

        monkeypatch.setattr(serve_cli, "RankingServer", Recorded)
        monkeypatch.setattr(serve_cli, "Tracer", tracer)
        self.before = set(threading.enumerate())
        self.code = None
        self.thread = threading.Thread(
            target=self._main, name="daemon-main", daemon=True,
            args=(["--world", "small", "--port", "0", *args],),
        )
        self.thread.start()
        self.server = servers.get(timeout=TIMEOUT_S)

    def _main(self, argv):
        self.code = serve_cli.main(argv)

    def get(self, path):
        return get(self.server.port, path)

    def counter(self, name):
        return self.tracers[0].metrics.counters().get(name, 0)

    def join(self):
        """Wait for ``run_serve`` to return; it must return 0 and leave
        every thread it started ended."""
        self.thread.join(timeout=TIMEOUT_S)
        assert not self.thread.is_alive()
        assert self.code == 0
        for thread in set(threading.enumerate()) - self.before:
            thread.join(timeout=TIMEOUT_S)
            assert not thread.is_alive(), thread.name

    def stop(self):
        """End the accept loop (which ends the compute loop), then
        :meth:`join`."""
        if self.thread.is_alive():
            self.server.shutdown()
        self.join()


def get(port, path):
    """``GET path`` over a fresh connection: (status, JSON body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


#: ``python -c`` prologue for a daemon process: SIGINT raises
#: ``KeyboardInterrupt`` (even when this process ignores it), and the
#: process runs on the one CPU given as its first argument
ON_ONE_CPU = (
    "import os, runpy, signal, sys; "
    "signal.signal(signal.SIGINT, signal.default_int_handler); "
    "os.sched_setaffinity(0, {int(sys.argv[1])}); "
    "sys.argv = ['repro-serve', *sys.argv[2:]]; "
    "runpy.run_module('repro.serve.cli', run_name='__main__')"
)


#: ``python -c`` body for a daemon interrupted while its accept loop
#: starts: the executor ``run_serve`` starts the loop on waits
#: ``sys.argv[1]`` seconds after queuing it, then sends its own process
#: SIGINT and sleeps, so the interrupt lands on the main thread before
#: ``submit`` returns
INTERRUPTED_AS_THE_LOOP_STARTS = """
import os, signal, sys, time
from concurrent.futures import ThreadPoolExecutor
from repro.serve import cli

class Interrupting(ThreadPoolExecutor):
    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        time.sleep(float(sys.argv[1]))
        os.kill(os.getpid(), signal.SIGINT)
        time.sleep(0.2)
        return future

signal.signal(signal.SIGINT, signal.default_int_handler)
cli.ThreadPoolExecutor = Interrupting
sys.exit(cli.main(sys.argv[2:]))
"""


def interrupt_after_a_miss(cpu, env, log):
    """Start a daemon on ``cpu``, ask it one miss, send SIGINT as soon
    as the answer arrives; its exit status."""
    with open(log, "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-c", ON_ONE_CPU, str(cpu),
             "--world", "small", "--port", "0"],
            stderr=stderr, env=env,
        )
    try:
        for _ in range(100 * TIMEOUT_S):
            port = re.search(rb":(\d+)$", log.read_bytes().strip())
            if port or proc.poll() is not None:
                break
            time.sleep(0.01)
        assert port, log.read_text()
        status, body = get(int(port[1]), "/rank?metric=AHN&country=AU")
        assert (status, body["source"]) == (200, "computed")
        proc.send_signal(signal.SIGINT)
        return proc.wait(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=TIMEOUT_S)


def comparable(payload):
    """A body as a client sees it, without the fields that depend on
    which request came first."""
    body = json.loads(json.dumps(payload))
    body.pop("source", None)
    return body


def serial_bodies(result):
    """Every path's body from a service answering one query at a time
    on this thread."""
    service = RankingService(result, ArtifactStore("key-serial"))
    bodies = {}
    for path in RANKS:
        params = dict(parse_qsl(urlsplit(path).query))
        bodies[path] = service.rank(params["metric"], params.get("country"))
    for path in OTHERS:
        country = path.rpartition("=")[2]
        method = service.report if path.startswith("/report") else service.case_study
        bodies[path] = method(country)
    return {path: comparable(body) for path, body in bodies.items()}


class TestOneComputeThread:
    def test_concurrent_clients_compute_once_on_the_pipeline_thread(
        self, small_result, monkeypatch, tmp_path
    ):
        """More clients than cores send misses, hits, reports and case
        studies at once; everything computed ran on the thread that ran
        the pipeline, each unit once, under its request's span, and
        every body equals a serial run's."""
        expected = serial_bodies(small_result)
        calls = computed_on(monkeypatch)
        paths = RANKS + OTHERS
        clients = max(8, 4 * (os.cpu_count() or 1))
        answers = []  # (path, status, body)
        errors = []
        start = threading.Barrier(clients)

        def client(offset):
            try:
                start.wait(timeout=TIMEOUT_S)
                for path in paths[offset:] + paths[:offset]:
                    answers.append((path, *daemon.get(path)))
            except BaseException as error:  # repro: noqa[R006] — collected and re-asserted on the test's thread; a raise here would vanish with the client thread
                errors.append(error)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            daemon = Daemon(monkeypatch, "--store", str(tmp_path / "store.ck"))
            try:
                threads = [
                    threading.Thread(target=client, args=(i % len(paths),))
                    for i in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=TIMEOUT_S)
                    assert not thread.is_alive()
            finally:
                daemon.stop()
        finally:
            sys.setswitchinterval(switch)

        assert not errors
        assert len(answers) == clients * len(paths)
        assert {status for _, status, _ in answers} == {200}
        for path in RANKS:
            sources = sorted(b["source"] for p, _, b in answers if p == path)
            assert sources == ["computed"] + ["store"] * (clients - 1), path
        assert daemon.counter("serve.computed") == len(RANKS)
        # every span computed for a request nests under its request span
        roots = [s.name for s in daemon.tracers[0].spans if s.parent_id is None]
        assert roots[0] == "pipeline" and set(roots[1:]) == {"serve.request"}
        assert len(roots) > len(RANKS)
        for path, _, body in answers:
            assert comparable(body) == expected[path], path
        assert {name for name, _ in calls} == {
            "run_pipeline", "ranking", "country_report", "case_study_table",
        }
        assert {ident for _, ident in calls} == {daemon.thread.ident}


class TestFailures:
    @pytest.mark.parametrize("error, status", [
        (RuntimeError("planted"), 500),
        (QueryError("planted"), 400),
    ], ids=["unexpected", "query"])
    def test_a_failed_compute_keeps_its_status_and_the_daemon_serves_on(
        self, monkeypatch, error, status
    ):
        raised_on = []
        ranking = PipelineResult.ranking

        def fail_once(result, *args, **kwargs):
            if not raised_on:
                raised_on.append(threading.get_ident())
                raise error
            return ranking(result, *args, **kwargs)

        monkeypatch.setattr(PipelineResult, "ranking", fail_once)
        daemon = Daemon(monkeypatch)
        try:
            got, body = daemon.get("/rank?metric=AHN&country=AU")
            assert got == status and "planted" in body["error"]
            got, body = daemon.get("/rank?metric=AHN&country=AU")
            assert (got, body["source"]) == (200, "computed")
            got, body = daemon.get("/report?country=ZZ")
            assert got == 400 and "unknown country" in body["error"]
        finally:
            daemon.stop()
        assert raised_on == [daemon.thread.ident]

    def test_an_interrupt_mid_compute_ends_the_daemon(self, monkeypatch):
        """SIGINT lands as ``KeyboardInterrupt`` on the compute thread:
        the request in flight gets a 500, and ``run_serve`` returns 0
        with every thread ended."""
        interrupted = []

        def interrupt(result, *args, **kwargs):
            interrupted.append(threading.get_ident())
            raise KeyboardInterrupt

        monkeypatch.setattr(PipelineResult, "ranking", interrupt)
        daemon = Daemon(monkeypatch)
        try:
            status, body = daemon.get("/rank?metric=AHN&country=AU")
        finally:
            daemon.join()
        assert status == 500 and "shutting down" in body["error"]
        assert interrupted == [daemon.thread.ident]


class TestShutdown:
    def test_max_requests_ending_on_a_miss(self, monkeypatch):
        """The last request computes; the daemon still exits 0 and
        leaves no thread running."""
        calls = computed_on(monkeypatch)
        daemon = Daemon(monkeypatch, "--max-requests", "2")
        assert daemon.get("/healthz")[0] == 200
        status, body = daemon.get("/rank?metric=CCI&country=NL")
        daemon.join()
        assert (status, body["source"]) == (200, "computed")
        assert {ident for _, ident in calls} == {daemon.thread.ident}

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity"
    )
    def test_sigint_right_after_a_computed_answer(self, tmp_path):
        """A real daemon, interrupted as soon as a computed answer
        arrives, on the CPU this client runs on: the SIGINT can land
        while the compute thread is about to wait for work again, and
        must still end the daemon with status 0. (An unbounded wait lost
        it in about a third of such runs.)"""
        cpus = os.sched_getaffinity(0)
        cpu = min(cpus)
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        os.sched_setaffinity(0, {cpu})
        try:
            for attempt in range(6):
                log = tmp_path / f"daemon-{attempt}.log"
                assert interrupt_after_a_miss(cpu, env, log) == 0, log.read_text()
        finally:
            os.sched_setaffinity(0, cpus)

    @pytest.mark.parametrize("delay", [0.0, 0.2])
    def test_sigint_while_the_accept_loop_starts(self, tmp_path, delay):
        """SIGINT lands after the accept loop is queued (at once, or
        once it has had time to run) and before the main thread waits
        for work: the daemon still exits 0, stopping the loop only if
        it started."""
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        log = tmp_path / "daemon.log"
        with open(log, "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-c", INTERRUPTED_AS_THE_LOOP_STARTS, str(delay),
                 "--world", "small", "--port", "0"],
                stderr=stderr, env=env,
            )
        try:
            assert proc.wait(timeout=20) == 0, log.read_text()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=TIMEOUT_S)
        assert "serving world=small" in log.read_text()
