"""Boundary tests for MRT dump ingestion: malformed input may raise only
``MrtFormatError`` (strict) or go to quarantine (lenient), and lenient
ingestion yields only well-formed announcements."""

import gzip
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.io.mrt import MrtFormatError, dump_rib, load_rib, read_header
from repro.net.prefix import Prefix, parse_address
from repro.resilience.quarantine import Quarantine
from tests.io.test_mrt import sample_announcements

ASN_MAX = 2**32 - 1
HEADER = {"type": "header", "format": "repro-mrt", "version": 1, "day": 0}
DEEP = "[" * 100_000 + "]" * 100_000


def entry(**changes):
    """A valid rib entry with some fields replaced."""
    fields = {
        "type": "rib", "peer_ip": "192.0.2.1", "peer_asn": 13,
        "collector": "test-ix", "prefix": "10.0.0.0/16", "path": [13, 10, 1],
    }
    fields.update(changes)
    return json.dumps(fields)


def write_dump(path, lines):
    """A dump of raw rib ``lines`` behind a valid header and trailer."""
    trailer = {"type": "trailer", "entries": len(lines)}
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for line in [json.dumps(HEADER), *lines, json.dumps(trailer)]:
            handle.write(line + "\n")
    return path


def assert_well_formed(announcement):
    vp = announcement.vp
    assert isinstance(vp.ip, str)
    parse_address(vp.ip)
    assert type(vp.asn) is int and 0 <= vp.asn <= ASN_MAX
    assert isinstance(vp.collector, str)
    assert isinstance(announcement.prefix, Prefix)
    assert announcement.path.asns
    assert all(type(asn) is int and 0 <= asn <= ASN_MAX
               for asn in announcement.path.asns)


def raw_field(field, text):
    """A valid rib line whose ``field`` holds the raw JSON ``text``."""
    return entry(**{field: "@raw@"}).replace('"@raw@"', text)


#: one malformed rib line per boundary leak, with its quarantine reason
BAD_LINES = {
    "peer_asn Infinity": (entry(peer_asn=float("inf")), "bad-entry"),
    "peer_asn -Infinity": (entry(peer_asn=float("-inf")), "bad-entry"),
    "path Infinity": (entry(path=[13, float("inf"), 1]), "bad-entry"),
    "path -Infinity": (entry(path=[13, float("-inf")]), "bad-entry"),
    "line nested 100,000 deep": (DEEP, "invalid-json"),
    "path nested 100,000 deep": (raw_field("path", DEEP), "invalid-json"),
    "numeric peer_ip": (entry(peer_ip=7), "bad-entry"),
    "peer_asn above 2**32-1": (entry(peer_asn=ASN_MAX + 1), "bad-entry"),
    "path ASN above 2**32-1": (entry(path=[13, ASN_MAX + 1]), "bad-entry"),
    "integer past the digit limit": (raw_field("peer_asn", "9" * 5000), "invalid-json"),
}


class TestBoundaryRegressions:
    @pytest.mark.parametrize("case", BAD_LINES.values(), ids=BAD_LINES.keys())
    def test_strict_raises_format_error_at_the_line(self, tmp_path, case):
        line, _ = case
        path = write_dump(tmp_path / "rib.jsonl.gz", [entry(), line])
        with pytest.raises(MrtFormatError) as excinfo:
            list(load_rib(path))
        assert f"{path}:3" in str(excinfo.value)

    @pytest.mark.parametrize("case", BAD_LINES.values(), ids=BAD_LINES.keys())
    def test_lenient_quarantines_the_line(self, tmp_path, case):
        line, reason = case
        path = write_dump(tmp_path / "rib.jsonl.gz", [entry(), line, entry()])
        sink = Quarantine()
        loaded = list(load_rib(path, strict=False, quarantine=sink))
        assert len(loaded) == 2
        assert [(q.line_no, q.reason) for q in sink.lines] == [(3, reason)]

    def test_asn_range_ends_accepted(self, tmp_path):
        path = write_dump(
            tmp_path / "rib.jsonl.gz",
            [entry(peer_asn=ASN_MAX, path=[ASN_MAX, 0])],
        )
        (announcement,) = load_rib(path)
        assert announcement.vp.asn == ASN_MAX
        assert announcement.path.asns == (ASN_MAX, 0)

    def test_header_without_day(self, tmp_path):
        path = tmp_path / "rib.jsonl.gz"
        header = {key: value for key, value in HEADER.items() if key != "day"}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
        with pytest.raises(MrtFormatError) as excinfo:
            read_header(path)
        assert f"{path}:1" in str(excinfo.value)
        with pytest.raises(MrtFormatError):
            list(load_rib(path, strict=False))

    @pytest.mark.parametrize("day", [-1, 1.5, "0", None, True, float("inf")])
    def test_header_day_must_be_a_non_negative_integer(self, tmp_path, day):
        path = tmp_path / "rib.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({**HEADER, "day": day}) + "\n")
        with pytest.raises(MrtFormatError):
            read_header(path)

    def test_deeply_nested_header(self, tmp_path):
        path = tmp_path / "rib.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(DEEP + "\n")
        with pytest.raises(MrtFormatError):
            read_header(path)
        with pytest.raises(MrtFormatError):
            list(load_rib(path, strict=False))


FIELDS = ("type", "peer_ip", "peer_asn", "collector", "prefix", "path")
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(["", "x", "13"]),
    st.lists(st.integers(min_value=-5, max_value=2**40), max_size=3),
    st.just({"nested": [1]}),
)


@st.composite
def mutated_lines(draw):
    """A valid rib line (JSON text) after one boundary mutation."""
    fields = json.loads(entry(
        peer_asn=draw(st.integers(min_value=0, max_value=ASN_MAX)),
        path=draw(st.lists(st.integers(min_value=0, max_value=ASN_MAX),
                           min_size=1, max_size=4)),
    ))
    kind = draw(st.sampled_from(
        ["drop", "retype", "infinity", "nan", "huge", "deep", "truncate", "none"]
    ))
    field = draw(st.sampled_from(FIELDS))
    if kind == "drop":
        del fields[field]
    elif kind == "retype":
        fields[field] = draw(ODD_VALUES)
    elif kind in ("infinity", "nan"):
        value = float("nan") if kind == "nan" else draw(
            st.sampled_from([float("inf"), float("-inf")]))
        if field == "path" and draw(st.booleans()):
            fields["path"] = [*fields["path"], value]
        else:
            fields[field] = value
    elif kind == "huge":
        huge = draw(st.sampled_from([ASN_MAX + 1, 2**64, 10**400, -(2**63)]))
        if field == "path":
            fields["path"] = [huge, *fields["path"]]
        else:
            fields[field] = huge
    if kind == "deep":
        depth = draw(st.sampled_from([10, 5_000, 100_000]))
        value = json.dumps(fields[field])
        fields[field] = "@raw@"
        return json.dumps(fields).replace(
            '"@raw@"', "[" * depth + value + "]" * depth
        )
    line = json.dumps(fields)
    if kind == "truncate":
        line = line[:draw(st.integers(min_value=0, max_value=len(line) - 1))]
    return line


class TestMutatedEntries:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(mutated_lines(), min_size=1, max_size=4))
    def test_strict_raises_only_format_errors(self, tmp_path_factory, lines):
        path = write_dump(
            tmp_path_factory.mktemp("strict") / "rib.jsonl.gz",
            [entry(), *lines],
        )
        try:
            loaded = list(load_rib(path))
        except MrtFormatError:
            return
        for announcement in loaded:
            assert_well_formed(announcement)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(mutated_lines(), min_size=1, max_size=4))
    def test_lenient_yields_only_well_formed(self, tmp_path_factory, lines):
        rows = [entry(), *lines]
        path = write_dump(
            tmp_path_factory.mktemp("lenient") / "rib.jsonl.gz", rows
        )
        sink = Quarantine()
        loaded = list(load_rib(path, strict=False, quarantine=sink))
        for announcement in loaded:
            assert_well_formed(announcement)
        # The trailer reconciles: every rib line was either parsed or
        # quarantined, and nothing else was diverted.
        assert len(loaded) + len(sink) == len(rows)
        assert set(sink.by_reason()) <= {"bad-entry", "invalid-json"}


def test_clean_dump_round_trips_strictly(tmp_path):
    announcements = sample_announcements(4)
    path = dump_rib(announcements, tmp_path / "rib.jsonl.gz")
    assert list(load_rib(path)) == announcements
