"""One message per mistake: an unknown metric or country gets the text
of the one resolver that rejects it — :func:`repro.core.registry.get_spec`
or :meth:`repro.topology.world.World.country_code` — on every surface:
``repro-rank``'s subcommands, ``repro-serve``'s flags, the
:class:`RankingService` API, HTTP ``/rank`` and the watch engine."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main as repro_rank
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.registry import get_spec
from repro.monitor import WatchConfig, WatchError, resolve_snapshots, watch
from repro.serve import ArtifactStore, RankingServer, RankingService
from repro.serve.cli import main as repro_serve
from repro.serve.service import QueryError
from repro.topology.catalog import build_world


def raised(resolve, name):
    with pytest.raises(ValueError) as caught:
        resolve(name)
    return str(caught.value)


METRIC = raised(get_spec, "NOPE")
COUNTRY = raised(build_world("small", 0).country_code, "ZZ")


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
], ids=[
    "rank-metric", "rank-country", "sweep-metric", "sweep-country",
    "stability-metric", "stability-country", "concentration-metric",
    "concentration-country", "watch-metric", "watch-country",
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
], ids=["rank-metric", "rank-country", "report-country"])
def test_service(service, query, message):
    with pytest.raises(QueryError) as caught:
        query(service)
    assert str(caught.value) == message


@pytest.mark.parametrize(("query", "message"), [
    ("metric=NOPE&country=AU", METRIC),
    ("metric=AHN&country=ZZ", COUNTRY),
], ids=["metric", "country"])
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
            assert json.loads(response.read())["error"] == message
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
