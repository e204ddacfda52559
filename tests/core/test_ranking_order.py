"""``Ranking.from_scores`` orders a table exactly as ``sorted`` on the
key ``(-value, asn)`` does: ties break on ascending ASN, ``-0.0`` ties
``0.0``, and each entry keeps the table's own value object."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.ranking import Ranking

#: a few recurring values, so that draws tie often, ±0.0 among them
TIES = (0.0, -0.0, 0.5, 1.0, -1.5, 5e-324, float("inf"), float("-inf"))
values = st.sampled_from(TIES) | st.floats(allow_nan=False)
asns = st.integers(min_value=0, max_value=2**32 - 1)


def reference(scores):
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))


@given(st.dictionaries(asns, values, max_size=80), st.booleans())
def test_order_equals_sorted(scores, with_shares):
    shares = {asn: value / 2 for asn, value in scores.items()} if with_shares else None
    ranking = Ranking.from_scores("m", scores, shares)
    expected = reference(scores)
    assert [(entry.asn, repr(entry.value)) for entry in ranking] == [
        (asn, repr(value)) for asn, value in expected
    ]
    assert [entry.rank for entry in ranking] == list(range(1, len(scores) + 1))
    assert [entry.share for entry in ranking] == [
        shares[asn] if shares is not None else None for asn, _ in expected
    ]


@given(st.dictionaries(asns, st.sampled_from((0.0, -0.0)), max_size=20))
def test_signed_zeros_tie(scores):
    ranking = Ranking.from_scores("m", scores)
    assert [entry.asn for entry in ranking] == sorted(scores)
    assert all(entry.value is scores[entry.asn] for entry in ranking)


def test_empty_table():
    assert Ranking.from_scores("m", {}).entries == []
