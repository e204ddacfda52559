"""One message per mistake: an unknown metric or country gets the text
of the one resolver that rejects it — :func:`repro.core.registry.get_spec`
or :meth:`repro.topology.world.World.country_code` — on every surface:
``repro-rank``'s subcommands, ``repro-serve``'s flags, the
:class:`RankingService` API, HTTP ``/rank`` and the watch engine.

A ranking request's other mistakes read the same way: the replay gate
(:meth:`ReplaySession.gate`), a missing country
(:meth:`MetricSpec.require_country`), a country a release lacks (the
session's ``country_code``), also one given with a global metric, and
a metric the stability analysis cannot downsample
(:func:`repro.analysis.stability.stability_spec`)."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.analysis.stability import national_stability
from repro.cli import main as repro_rank
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.registry import get_spec
from repro.io.export import export_pathset_jsonl
from repro.io.replay import ReplaySession
from repro.monitor import WatchConfig, WatchError, resolve_snapshots, watch
from repro.serve import ArtifactStore, RankingServer, RankingService
from repro.serve.cli import main as repro_serve
from repro.serve.service import QueryError
from repro.topology.catalog import build_world


def raised(resolve, *args):
    with pytest.raises(ValueError) as caught:
        resolve(*args)
    return str(caught.value)


METRIC = raised(get_spec, "NOPE")
COUNTRY = raised(build_world("small", 0).country_code, "ZZ")


# the texts of the request check's other rules, read when a test runs
def gate(release=None):
    """The replay gate's text for AHC."""
    return raised(ReplaySession.gate, get_spec("AHC"))


def needs_country(release=None):
    """:meth:`MetricSpec.require_country`'s text for AHN, which names
    the metric."""
    message = raised(get_spec("AHN").require_country, None)
    assert "AHN" in message
    return message


def lacks(release):
    """The first release's text for a country it does not hold (ZZ)."""
    return raised(ReplaySession.from_file(release[0]).country_code, "ZZ")


def text(message):
    return message() if callable(message) else message


@pytest.mark.parametrize(("argv", "message"), [
    (["rank", "NOPE", "AU"], METRIC),
    (["rank", "AHN", "ZZ"], COUNTRY),
    (["sweep", "--metrics", "NOPE"], METRIC),
    (["sweep", "--countries", "ZZ"], COUNTRY),
    (["stability", "AU", "NOPE"], METRIC),
    (["stability", "ZZ"], COUNTRY),
    (["concentration", "AU", "--metric", "NOPE"], METRIC),
    (["concentration", "ZZ"], COUNTRY),
    (["watch", "small@0", "small@1", "--metrics", "NOPE"], METRIC),
    (["watch", "small@0", "small@1", "--countries", "ZZ"], COUNTRY),
    (["watch", "small@0", "small@1", "--metrics", "CCG", "--countries", "ZZ"],
     COUNTRY),
], ids=[
    "rank-metric", "rank-country", "sweep-metric", "sweep-country",
    "stability-metric", "stability-country", "concentration-metric",
    "concentration-country", "watch-metric", "watch-country",
    "watch-global-country",
])
def test_repro_rank(capsys, argv, message):
    assert repro_rank(["--world", "small"] + argv) == 2
    assert capsys.readouterr().err == f"repro-rank: error: {message}\n"


@pytest.mark.parametrize(("argv", "message"), [
    (["--precompute", "NOPE"], METRIC),
    (["--countries", "ZZ"], COUNTRY),
], ids=["precompute-metric", "countries-country"])
def test_repro_serve(capsys, argv, message):
    assert repro_serve(["--world", "small", "--port", "0"] + argv) == 2
    assert capsys.readouterr().err == f"repro-serve: error: {message}\n"


@pytest.fixture(scope="module")
def service():
    result = run_pipeline(build_world("small", 0), PipelineConfig(seed=0))
    return RankingService(result, ArtifactStore("key-name-errors"))


@pytest.mark.parametrize(("query", "message"), [
    (lambda service: service.rank("NOPE", "AU"), METRIC),
    (lambda service: service.rank("AHN", "ZZ"), COUNTRY),
    (lambda service: service.report("ZZ"), COUNTRY),
    (lambda service: service.rank("AHN"), needs_country),
    (lambda service: service.rank("CCG", "ZZ"), COUNTRY),
], ids=[
    "rank-metric", "rank-country", "report-country", "rank-no-country",
    "rank-global-country",
])
def test_service(service, query, message):
    with pytest.raises(QueryError) as caught:
        query(service)
    assert str(caught.value) == text(message)


@pytest.mark.parametrize(("request_", "message"), [
    (("AHN",), needs_country),
    (("CCG", "ZZ"), COUNTRY),
], ids=["no-country", "global-country"])
def test_pipeline_result(service, request_, message):
    with pytest.raises(ValueError) as caught:
        service.result.ranking(*request_)
    assert str(caught.value) == text(message)


@pytest.mark.parametrize(("query", "message"), [
    ("metric=NOPE&country=AU", METRIC),
    ("metric=AHN&country=ZZ", COUNTRY),
    ("metric=AHN", needs_country),
    ("metric=CCG&country=ZZ", COUNTRY),
], ids=["metric", "country", "no-country", "global-country"])
def test_http_rank(service, query, message):
    server = RankingServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.port}/rank?{query}"
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(url)
        with caught.value as response:
            assert response.code == 400
            assert json.loads(response.read())["error"] == text(message)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_watch_library_path():
    """The engine raises the resolver's text too (valid names included)."""
    refs = resolve_snapshots(["small@0", "small@1"])
    with pytest.raises(WatchError) as caught:
        watch(refs, WatchConfig(metrics=("NOPE",)))
    assert str(caught.value) == METRIC


@pytest.fixture(scope="module")
def release(service, tmp_path_factory):
    """Two copies of the small world's released paths."""
    directory = tmp_path_factory.mktemp("release")
    first, second = directory / "rel_a.jsonl", directory / "rel_b.jsonl"
    export_pathset_jsonl(service.result.paths, first)
    second.write_bytes(first.read_bytes())
    return str(first), str(second)


@pytest.mark.parametrize(("argv", "message"), [
    (["replay", "{a}", "AHC", "AU"], gate),
    (["watch", "{a}", "{b}", "--metrics", "AHC"], gate),
    (["rank", "AHN"], needs_country),
    (["replay", "{a}", "AHN"], needs_country),
    (["replay", "{a}", "AHN", "ZZ"], lacks),
    (["watch", "{a}", "{b}", "--metrics", "AHN", "--countries", "ZZ"], lacks),
    (["watch", "{a}", "{b}", "--metrics", "CCG", "--countries", "ZZ"], lacks),
], ids=[
    "replay-gate", "watch-gate", "rank-no-country", "replay-no-country",
    "replay-country", "watch-country", "watch-global-country",
])
def test_repro_rank_request(capsys, release, argv, message):
    """Exit 2 with the rule's one line, and no ``[page]`` for a
    country no snapshot holds."""
    a, b = release
    argv = [arg.format(a=a, b=b) for arg in argv]
    assert repro_rank(["--world", "small"] + argv) == 2
    assert capsys.readouterr() == ("", f"repro-rank: error: {message(release)}\n")


@pytest.mark.parametrize(("request_", "message"), [
    (("AHC", "AU"), gate),
    (("AHN",), needs_country),
    (("AHN", "ZZ"), lacks),
], ids=["gate", "no-country", "country"])
def test_replay_session(release, request_, message):
    with pytest.raises(ValueError) as caught:
        ReplaySession.from_file(release[0]).ranking(*request_)
    assert str(caught.value) == message(release)


@pytest.mark.parametrize(("config", "message"), [
    (WatchConfig(metrics=("AHC",)), gate),
    (WatchConfig(metrics=("AHN",), countries=("ZZ",)), lacks),
], ids=["gate", "country"])
def test_watch_releases(release, config, message):
    with pytest.raises(WatchError) as caught:
        watch(resolve_snapshots(release), config)
    assert str(caught.value) == message(release)


@pytest.mark.parametrize("metric", ["NOPE", "AHC"], ids=["metric", "gate"])
def test_watch_rejects_a_metric_before_its_checkpoint(
    capsys, tmp_path, release, metric,
):
    """A rejected metric leaves the checkpoint of an earlier run as it
    was, also without ``--resume`` (which rewrites it)."""
    a, b = release
    path = tmp_path / "watch.ck"
    argv = ["watch", a, b, "--countries", "AU", "--checkpoint", str(path)]
    assert repro_rank(argv + ["--metrics", "AHN"]) == 0
    banked = path.read_bytes()
    capsys.readouterr()
    assert repro_rank(argv + ["--metrics", metric]) == 2
    assert capsys.readouterr().err.startswith("repro-rank: error: ")
    assert path.read_bytes() == banked


@pytest.mark.parametrize("snapshots", ["release", "worlds"])
def test_watch_resume_checks_a_banked_grid(capsys, tmp_path, release, snapshots):
    """A country added to the grid of a fully banked snapshot is
    checked without loading it, with the fresh run's one line; the
    checkpoint is left as it was, and the banked grid still resumes."""
    streams = {"release": list(release), "worlds": ["small@0", "small@1"]}
    watch_ = ["watch", *streams[snapshots], "--metrics", "CCG"]
    checkpoint = ["--checkpoint", str(tmp_path / "w.ck")]
    assert repro_rank(watch_ + ["--countries", "AU"] + checkpoint) == 0
    banked = (tmp_path / "w.ck").read_bytes()
    capsys.readouterr()
    assert repro_rank(watch_ + ["--countries", "ZZ"]) == 2
    fresh = capsys.readouterr()
    assert fresh.out == "" and fresh.err.count("\n") == 1
    resume = checkpoint + ["--resume"]
    assert repro_rank(watch_ + ["--countries", "ZZ"] + resume) == 2
    assert capsys.readouterr() == fresh
    assert (tmp_path / "w.ck").read_bytes() == banked
    assert repro_rank(watch_ + ["--countries", "AU"] + resume) == 0
    assert "rankings: 0 computed, 2 resumed" in capsys.readouterr().out


def test_watch_a_country_a_later_release_lacks(capsys, tmp_path):
    """The grid is checked against the first release only: a later
    release that holds no paths to one of its countries still ranks it,
    and that country's drift pages (exit 0)."""
    days = [tmp_path / f"small{seed}.jsonl" for seed in (0, 1)]
    for seed, day in enumerate(days):
        result = run_pipeline(build_world("small", seed), PipelineConfig(seed=seed))
        export_pathset_jsonl(result.paths, day)
    first, later = (ReplaySession.from_file(day).paths.countries() for day in days)
    assert "KR" in first and "KR" not in later
    assert repro_rank(["watch", *map(str, days), "--metrics", "AHI"]) == 0
    out = capsys.readouterr().out
    assert f"(AHI | {', '.join(first)})" in out
    assert "[page] AHI:KR " in out


@pytest.mark.parametrize("metric", ["AHC", "NOPE"])
def test_stability_family(capsys, service, metric):
    """``stability_spec`` holds the family rule (and get_spec's text
    for an unknown name) for the CLI and the library."""
    from repro.analysis.stability import stability_spec

    message = raised(stability_spec, metric)
    if metric == "NOPE":
        assert message == METRIC
    else:
        assert "AHC" in message and "stability" in message
    assert repro_rank(["--world", "small", "stability", "AU", metric]) == 2
    assert capsys.readouterr().err == f"repro-rank: error: {message}\n"
    with pytest.raises(ValueError) as caught:
        national_stability(service.result, "AU", metric, trials=1)
    assert str(caught.value) == message
