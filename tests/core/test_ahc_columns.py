"""AHC's column average is the definition's average bit for bit.

``ahc_ranking`` averages the per-origin hegemony columns with one
``np.bincount`` (``core.ahc._column_average``); the oracle
(``tests/oracles/hegemony.py``) adds dict entries one at a time
(``weighted_average``). Both are compared by ``repr`` on generated
tables whose origins share ASes, whose rows include 0.0 values, and
whose origins include zero address footprints, under both weightings.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ahc import (
    AHC_WEIGHTINGS,
    _column_average,
    _origin_weights,
    ahc_ranking,
)
from repro.core.ranking import ScoreColumns
from repro.core.views import View

from tests.oracles.hegemony import ahc_scores, weighted_average
from tests.oracles.inputs import record_sets

#: a few recurring values, 0.0 among them, and arbitrary floats
VALUES = st.sampled_from((0.0, 1.0, 0.5, 1 / 3, 2 / 3, 0.1)) | st.floats(
    min_value=0.0, max_value=1.0
)


@st.composite
def origin_tables(draw):
    """Up to eight origins, each with a table over a pool of six ASes
    (so the tables share ASes), an address footprint (0 among them) and
    possibly no table at all (an unobserved origin)."""
    origins = draw(st.lists(
        st.integers(min_value=1, max_value=40), min_size=1, max_size=8,
        unique=True,
    ))
    tables = {}
    footprints = {}
    for origin in origins:
        if draw(st.booleans()) or not tables:
            tables[origin] = draw(st.dictionaries(
                st.integers(min_value=1, max_value=6), VALUES, max_size=6,
            ))
        footprints[origin] = draw(st.sampled_from((0, 1, 256, 768, 2 ** 64 + 3)))
    return sorted(origins), tables, footprints


def columns(table):
    asns = sorted(table)
    return ScoreColumns(
        np.array(asns, dtype=np.int64),
        np.array([table[asn] for asn in asns], dtype=np.float64),
    )


def reprs(asns, values):
    return {asn: repr(value) for asn, value in zip(asns, values)}


@settings(max_examples=300, deadline=None)
@given(drawn=origin_tables(), weighting=st.sampled_from(AHC_WEIGHTINGS))
def test_column_average_equals_reference(drawn, weighting):
    origins, tables, footprints = drawn
    weights = _origin_weights(
        origins, weighting, tables, footprints.__getitem__
    )
    expected = weighted_average(tables, weights)
    asns, values = _column_average(
        origins, weights, lambda origin: columns(tables[origin])
    )
    assert asns.tolist() == sorted(expected)
    assert reprs(asns.tolist(), values.tolist()) == reprs(
        expected, expected.values()
    )


@settings(max_examples=150, deadline=None)
@given(
    drawn=record_sets(),
    registered=st.sets(st.integers(min_value=1, max_value=9), min_size=1),
    trim=st.sampled_from((0.0, 0.1, 0.25, 0.49)),
    weighting=st.sampled_from(AHC_WEIGHTINGS),
)
def test_ranking_equals_ahc_scores(drawn, registered, trim, weighting):
    """Through the kernel: random record sets (paths over ASes 1-8, so
    origins share transit ASes; zero-address prefixes give zero
    footprints), registered origins that may be unobserved."""
    view = View.of("global", None, drawn[0])
    ranking = ahc_ranking(view, "XX", registered, trim, weighting)
    # the records as the store holds them: a prefix keeps its first count
    expected = ahc_scores(view.records, registered, trim, weighting)
    assert {entry.asn: repr(entry.value) for entry in ranking} == reprs(
        expected, expected.values()
    )
    assert all(entry.share is entry.value for entry in ranking)
