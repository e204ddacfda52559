"""The serve workload's client side: a real ``repro-serve`` daemon
driven over HTTP.

One run starts the daemon three times on the same store file. The
first starts empty and takes the *cold pass*: one client, closed loop,
a fresh connection per request, over a seeded shuffle of every
``/rank`` unit, a few ``/report`` and every ``/case-study`` query, and
malformed queries that must get 400. The second resumes the banked
store and takes *warm* traffic: open loop on two keep-alive
connections at fixed rates (see :mod:`bench.loadgen`),
Zipf-distributed over the banked units. The third only starts, for a
third set-up sample.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import time
from pathlib import Path

from bench import loadgen, stats
from bench.procs import ChildFailed, Daemon

HOST = "127.0.0.1"
#: /report queries in the cold pass (the first qualifying countries;
#: each report costs about half a second on the medium world)
REPORTS = 3
WARM_RATE = 20.0
#: warm requests per untraced run (a median over 100 still moved by
#: 7-9% from run to run); the traced run's rungs send
#: loadgen.RUNG_REQUESTS so that p95 is supported
WARM_REQUESTS = 200
WARM_SMOKE = 40
LADDER = (80.0, 320.0, 1280.0)
LADDER_SECONDS = 2.0
ZIPF_S = 1.1
DEEP_SHARE = 0.2
DAEMON_START_TIMEOUT_S = 90.0
PROBES = 40


def unit_path(metric: str, country: str | None) -> str:
    return f"/rank?metric={metric}" + (f"&country={country}" if country else "")


def malformed(country: str) -> list[str]:
    """Queries the daemon must refuse with 400."""
    return [
        "/rank",
        f"/rank?metric=NOPE&country={country}",
        "/rank?metric=CCN",
        "/rank?metric=CCI&country=ZZ",
        f"/rank?metric=CCI&country={country}&k=0",
        f"/rank?metric=CCI&country={country}&k=ten",
        f"/rank?metric=CCI&metric=AHN&country={country}",
        "/report",
        "/report?country=ZZ",
        "/case-study?country=XX",
    ]


def get(conn: http.client.HTTPConnection, path: str) -> tuple[int, dict]:
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def get_fresh(port: int, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(HOST, port, timeout=60)
    try:
        return get(conn, path)
    finally:
        conn.close()


class Answers:
    """Every ``/rank`` text the daemons returned, checked against the
    first answer for the same query and, when given, against the
    in-process replay's ``Ranking.render``."""

    def __init__(self, reference: dict | None) -> None:
        self.reference = reference
        self.texts: dict[str, str] = {}
        self.failures: list[str] = []

    def check(self, path: str, k: int, source: str, body: dict) -> bool:
        key = f"{path}|{k}"
        text = body.get("text", "")
        problem = None
        if body.get("source") != source:
            problem = f"source {body.get('source')!r}, expected {source!r}"
        elif self.texts.setdefault(key, text) != text:
            problem = "text differs from an earlier answer"
        elif self.reference is not None and self.reference.get(key) != (
            hashlib.sha256(text.encode()).hexdigest()
        ):
            problem = "text differs from the in-process replay"
        if problem:
            self.failures.append(f"{key}: {problem}")
        return problem is None

    def digest(self) -> str:
        """Of the cold pass's answers: every unit at the default depth
        (warm traffic only repeats them, or asks for top 50)."""
        digest = hashlib.sha256()
        for key in sorted(k for k in self.texts if k.endswith("|10")):
            digest.update(f"{key}\n{self.texts[key]}\n".encode())
        return digest.hexdigest()[:16]

    def fail(self, what: str) -> bool:
        self.failures.append(what)
        return False


def start(args: list[str], log: Path) -> tuple[Daemon, int, list[float]]:
    """Spawn a daemon; return it, its port, and the interval from spawn
    to the first 200 on ``/healthz``."""
    daemon = Daemon(args, log)
    try:
        port = daemon.port(DAEMON_START_TIMEOUT_S)
        deadline = time.monotonic() + DAEMON_START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                if get_fresh(port, "/healthz")[0] == 200:
                    return daemon, port, [daemon.spawned, time.monotonic()]
            except ConnectionError:
                pass
            time.sleep(0.005)
        raise ChildFailed(f"daemon never answered /healthz (see {log})")
    except BaseException:
        daemon.kill()
        raise


def cold_pass(port: int, plan: dict, rng: random.Random, answers: Answers) -> dict:
    countries = plan["countries"]
    queries = [("rank", tuple(u)) for u in plan["units"]]
    queries += [("report", c) for c in countries[:REPORTS]]
    queries += [("case-study", c) for c in countries]
    queries += [("bad", path) for path in malformed(countries[0])]
    rng.shuffle(queries)
    ops = []
    for kind, target in queries:
        path = (
            unit_path(*target) if kind == "rank"
            else target if kind == "bad"
            else f"/{kind}?country={target}"
        )
        sent = time.monotonic()
        status, body = get_fresh(port, path)
        ops.append([sent, time.monotonic()])
        if kind == "bad":
            if status != 400:
                answers.fail(f"{path}: status {status}, expected 400")
        elif status != 200:
            answers.fail(f"{path}: status {status}")
        elif kind == "rank":
            answers.check(path, 10, "computed", body)
        elif body.get("country") != target or not (
            body.get("markdown") or body.get("rows")
        ):
            answers.fail(f"{path}: malformed body")
    return {
        "ops": ops,
        "latency_ms": stats.latency_summary(
            [(done - sent) * 1000.0 for sent, done in ops]
        ),
    }


def warm_paths(units: list, rng: random.Random, count: int) -> list[tuple[str, int]]:
    """Zipf(``ZIPF_S``) over a seeded ordering of the banked units, a
    ``DEEP_SHARE`` of them asking for the top 50."""
    order = [tuple(u) for u in units]
    rng.shuffle(order)
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, len(order) + 1)]
    return [
        (unit_path(*unit), 50 if rng.random() < DEEP_SHARE else 10)
        for unit in rng.choices(order, weights, k=count)
    ]


def ladder(
    port: int, units: list, rng: random.Random, answers: Answers,
    first: int, rates: tuple[float, ...],
) -> list[loadgen.RungResult]:
    """Open-loop rungs at each rate in turn, for as long as each passes;
    the first rung sends ``first`` requests."""
    conns = [http.client.HTTPConnection(HOST, port, timeout=30) for _ in range(2)]

    def send(lane: int, request: str) -> bool:
        path, k = request.rsplit("|", 1)
        try:
            status, body = get(conns[lane], f"{path}&k={k}")
        except (OSError, http.client.HTTPException, ValueError) as error:
            conns[lane].close()
            return answers.fail(f"{path}: {type(error).__name__}")
        if status != 200:
            return answers.fail(f"{path}: status {status}")
        return answers.check(path, int(k), "store", body)

    rungs: list[loadgen.RungResult] = []
    try:
        for rate in rates:
            count = first if not rungs else max(
                loadgen.RUNG_REQUESTS, int(rate * LADDER_SECONDS)
            )
            requests = [f"{p}|{k}" for p, k in warm_paths(units, rng, count)]
            rungs.append(loadgen.open_loop(send, requests, rate, connections=2))
            if not rungs[-1].passed:
                break
    finally:
        for conn in conns:
            conn.close()
    return rungs


def http_probes(port: int, units: list) -> dict:
    """Unloaded ``/rank`` latency of store hits: one kept-alive
    connection, then a fresh connection per request."""
    paths = [unit_path(*u) for u in units[:PROBES]]
    keepalive = []
    conn = http.client.HTTPConnection(HOST, port, timeout=30)
    try:
        for path in paths:
            sent = time.perf_counter()
            get(conn, path)
            keepalive.append((time.perf_counter() - sent) * 1000.0)
    finally:
        conn.close()
    fresh = []
    for path in paths:
        sent = time.perf_counter()
        get_fresh(port, path)
        fresh.append((time.perf_counter() - sent) * 1000.0)
    return {"keepalive_ms": stats.median(keepalive), "fresh_ms": stats.median(fresh)}


def run(
    plan: dict, seed: int, world: str, scratch: Path, smoke: bool,
    reference: dict | None = None,
) -> dict:
    """Three daemon lifetimes on one store file: the first starts empty
    and takes the cold pass, the second resumes the banked store and
    takes warm traffic, the third only starts (a third set-up sample).
    With ``reference`` (the traced run) the warm traffic is the full
    ladder, followed by the connection probes."""
    rng = random.Random(seed)
    answers = Answers(reference)
    store = scratch / "store.ck"
    args = ["--world", world, "--seed", str(seed), "--port", "0", "--store", str(store)]
    out: dict = {"setup": [], "rss_mb": [], "answers": answers}

    def cold(port: int) -> None:
        out["cold"] = cold_pass(port, plan, rng, answers)

    def warm(port: int) -> None:
        if reference is None:
            first = WARM_SMOKE if smoke else WARM_REQUESTS
            rates: tuple[float, ...] = (WARM_RATE,)
        else:
            first = WARM_SMOKE if smoke else loadgen.RUNG_REQUESTS
            rates = (WARM_RATE, *LADDER)
        out["rungs"] = ladder(port, plan["units"], rng, answers, first, rates)
        status, health = get_fresh(port, "/healthz")
        if status != 200:
            raise ChildFailed(f"/healthz answered {status}")
        hits, misses = health["store"]["hits"], health["store"]["misses"]
        out["hit_ratio"] = hits / max(1, hits + misses)
        if reference is not None:
            out["probes"] = http_probes(port, plan["units"])

    for name, work in (("cold", cold), ("warm", warm), ("restart", None)):
        daemon, port, setup = start(args, scratch / f"{name}.log")
        try:
            out["setup"].append(setup)
            if work is not None:
                work(port)
        finally:
            daemon.stop()
        out["rss_mb"].append(daemon.rss_mb)
        if name == "cold":
            out["store_mb"] = store.stat().st_size / 1e6
    return out
