"""Generated damage to a banked sweep: a unit that does not decode as
its own ranking counts as not banked.

Whatever the damage — truncation at any byte, a dropped or retyped
payload field, a payload moved under another unit — a resumed sweep
raises nothing and equals an uninterrupted one, the daemon answers
every unit, and the repaired file resumes cleanly (the later line of a
unit wins). A value changed within its type (AS 9 read back as AS
99999) reads as a valid ranking: no check short of a checksum can
catch it, so it is not generated here.
"""

import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.resilience import ArtifactStore, store_key
from repro.serve import RankingService
from repro.topology.catalog import build_world

METRICS = ("AHN", "CCN", "CCG")
COUNTRIES = ("AU", "US")
CONFIG = PipelineConfig(seed=0)

#: a value of another type than the field holds
WRONG = {
    "int": st.sampled_from((1.9, "x", None, True, [], {"x": 1})),
    "float": st.sampled_from((-1, 2**64, "x", None, True, [], {"x": 1})),
    "share": st.sampled_from((-1, 2**64, "x", True, [], {"x": 1})),
    "entries": st.sampled_from(("", "x", -1, 1.9, None, True, {}, {"x": 1})),
    "label": st.sampled_from(("", "CCN:US", 5, None, ["AU"])),
}
COLUMN = ("int", "int", "float", "share")

DAMAGES = st.one_of(
    st.tuples(st.just("truncate"), st.integers(min_value=0)),
    st.tuples(
        st.just("drop"), st.integers(min_value=0),
        st.sampled_from(("metric", "country", "entries")),
    ),
    st.tuples(
        st.just("retype"), st.integers(min_value=0),
        st.sampled_from(("metric", "country")), WRONG["label"],
    ),
    st.tuples(st.just("retype"), st.integers(min_value=0), st.just("entries"),
              WRONG["entries"]),
    st.integers(0, 3).flatmap(lambda column: st.tuples(
        st.just("cell"), st.integers(min_value=0), st.integers(min_value=0),
        st.just(column), WRONG[COLUMN[column]],
    )),
    st.tuples(st.just("move"), st.integers(min_value=0), st.integers(min_value=1)),
)


@pytest.fixture(scope="module")
def world():
    return build_world("small", 0)


@pytest.fixture(scope="module")
def uninterrupted(world):
    return run_pipeline(world, CONFIG).rank_all(METRICS, COUNTRIES)


@pytest.fixture(scope="module")
def banked(world, tmp_path_factory):
    path = tmp_path_factory.mktemp("banked") / "sweep.ck"
    with ArtifactStore(store_key(world, CONFIG), path=path) as store:
        run_pipeline(world, CONFIG).rank_all(METRICS, COUNTRIES, store=store)
    return path.read_bytes()


def damage(raw, how):
    """The bytes of a banked file after one generated damage."""
    if how[0] == "truncate":
        return raw[: how[1] % (len(raw) + 1)]
    header, *units = [json.loads(line) for line in raw.splitlines()]
    kind, index, *rest = how
    payload = units[index % len(units)]["payload"]
    if kind == "drop":
        del payload[rest[0]]
    elif kind == "retype":
        payload[rest[0]] = rest[1]
    elif kind == "cell":
        row, column, value = rest
        payload["entries"][row % len(payload["entries"])][column] = value
    else:
        units[index % len(units)]["payload"] = units[
            (index + rest[0]) % len(units)
        ]["payload"]
    return b"".join(
        json.dumps(entry, sort_keys=True).encode() + b"\n"
        for entry in (header, *units)
    )


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(how=DAMAGES)
def test_damaged_units_are_recomputed(world, uninterrupted, banked, tmp_path, how):
    key = store_key(world, CONFIG)
    sweep, serve = tmp_path / "sweep.ck", tmp_path / "serve.ck"
    sweep.write_bytes(damage(banked, how))
    serve.write_bytes(sweep.read_bytes())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with ArtifactStore(key, path=sweep) as store:
            resumed = run_pipeline(world, CONFIG).rank_all(
                METRICS, COUNTRIES, store=store
            )
        assert list(resumed.items()) == list(uninterrupted.items())
        result = run_pipeline(world, CONFIG)
        with ArtifactStore(key, path=serve) as store:
            service = RankingService(result, store)
            for (metric, country), ranking in uninterrupted.items():
                text = service.rank(metric, country)["text"]
                assert text == ranking.render(10, result.as_name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with ArtifactStore(key, path=sweep) as store:
            assert store.persisted == len(uninterrupted)
            again = run_pipeline(world, CONFIG).rank_all(
                METRICS, COUNTRIES, store=store
            )
        assert list(again.items()) == list(uninterrupted.items())
