"""Unit and property tests for repro.net.aspath."""

from contextlib import nullcontext
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.net.aspath import (
    DENSE_SPAN_FLOOR,
    ASPath,
    ASPathError,
    dense_codes,
)


class TestConstruction:
    def test_of(self):
        path = ASPath.of(3356, 1299, 4826)
        assert path.asns == (3356, 1299, 4826)

    def test_parse(self):
        assert ASPath.parse("3356 1299 4826") == ASPath.of(3356, 1299, 4826)

    def test_parse_invalid(self):
        with pytest.raises(ASPathError):
            ASPath.parse("")
        with pytest.raises(ASPathError):
            ASPath.parse("12 abc")

    def test_empty_rejected(self):
        with pytest.raises(ASPathError):
            ASPath(())

    def test_negative_rejected(self):
        with pytest.raises(ASPathError):
            ASPath((1, -2))


class TestAccessors:
    def test_endpoints(self):
        path = ASPath.of(10, 20, 30)
        assert path.collector_side == 10
        assert path.origin == 30

    def test_links(self):
        assert list(ASPath.of(1, 2, 3).links()) == [(1, 2), (2, 3)]

    def test_container_protocol(self):
        path = ASPath.of(1, 2, 3)
        assert len(path) == 3
        assert 2 in path
        assert path[1] == 2
        assert list(path) == [1, 2, 3]


class TestHygiene:
    def test_collapse_prepending(self):
        assert ASPath.of(1, 1, 2, 2, 2, 3).collapse_prepending() == ASPath.of(1, 2, 3)

    def test_collapse_noop(self):
        path = ASPath.of(1, 2, 3)
        assert path.collapse_prepending() == path

    def test_loop_detection(self):
        assert ASPath.of(1, 2, 1).has_loop()
        assert ASPath.of(1, 2, 3, 2).has_loop()
        assert not ASPath.of(1, 2, 3).has_loop()

    def test_prepending_is_not_loop(self):
        assert not ASPath.of(1, 1, 2, 2).has_loop()

    def test_without(self):
        assert ASPath.of(1, 99, 2).without({99}) == ASPath.of(1, 2)

    def test_without_keeps_others(self):
        path = ASPath.of(1, 2, 3)
        assert path.without({42}) == path

    def test_without_all_rejected(self):
        with pytest.raises(ASPathError):
            ASPath.of(1, 2).without({1, 2})

    def test_prepended(self):
        assert ASPath.of(2, 3).prepended(1) == ASPath.of(1, 2, 3)
        assert ASPath.of(2,).prepended(9, times=3) == ASPath.of(9, 9, 9, 2)

    def test_prepended_invalid(self):
        with pytest.raises(ASPathError):
            ASPath.of(1).prepended(2, times=0)


paths = st.lists(st.integers(min_value=1, max_value=2**16), min_size=1, max_size=12).map(
    lambda asns: ASPath(tuple(asns))
)


class TestProperties:
    @given(paths)
    def test_collapse_idempotent(self, path):
        once = path.collapse_prepending()
        assert once.collapse_prepending() == once

    @given(paths)
    def test_collapse_preserves_endpoints(self, path):
        collapsed = path.collapse_prepending()
        assert collapsed.collector_side == path.collector_side
        assert collapsed.origin == path.origin

    @given(paths, st.integers(min_value=1, max_value=4))
    def test_loop_invariant_under_prepending(self, path, times):
        prepended = path.prepended(path.collector_side, times)
        assert prepended.has_loop() == path.has_loop()

    @given(paths)
    def test_parse_str_roundtrip(self, path):
        assert ASPath.parse(str(path)) == path


class TestDenseCodes:
    """``dense_codes`` returns ``np.unique(values, return_inverse=True)``
    exactly — values, codes and dtypes — on both of its branches."""

    DTYPES = (np.int64, np.uint64, np.int32, np.uint16, np.int8)

    @staticmethod
    def assert_unique(values, sorting=True):
        """``dense_codes(values)`` equals ``np.unique``'s answer; with
        ``sorting`` false, it must get there without calling it."""
        expected, inverse = np.unique(values, return_inverse=True)
        with nullcontext() if sorting else patch.object(
            np, "unique", side_effect=AssertionError("numbered by sorting"),
        ):
            distinct, codes = dense_codes(values)
        assert distinct.dtype == expected.dtype
        assert codes.dtype == inverse.dtype
        assert distinct.tolist() == expected.tolist()
        assert codes.tolist() == inverse.tolist()

    @given(st.data())
    def test_narrow_span_marks_a_presence_table(self, data):
        dtype = data.draw(st.sampled_from(self.DTYPES))
        info = np.iinfo(dtype)
        # any span up to the floor is narrow, whatever the count
        width = min(DENSE_SPAN_FLOOR - 1, int(info.max) - int(info.min))
        low = data.draw(st.integers(int(info.min), int(info.max) - width))
        values = data.draw(st.lists(
            st.integers(low, low + width), min_size=1, max_size=200,
        ))
        self.assert_unique(np.asarray(values, dtype=dtype), sorting=False)

    @given(st.data())
    def test_wide_span_sorts(self, data):
        dtype = data.draw(st.sampled_from((np.int64, np.uint64)))
        info = np.iinfo(dtype)
        values = data.draw(st.lists(
            st.integers(int(info.min), int(info.max)), min_size=2, max_size=200,
        ).filter(lambda drawn: max(drawn) - min(drawn) > 2**40))
        self.assert_unique(np.asarray(values, dtype=dtype))

    @given(st.sampled_from(DTYPES), st.integers(0, 100))
    def test_single_value(self, dtype, value):
        self.assert_unique(np.full(3, value, dtype=dtype))
        self.assert_unique(np.asarray([value], dtype=dtype))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_empty(self, dtype):
        self.assert_unique(np.empty(0, dtype=dtype))
