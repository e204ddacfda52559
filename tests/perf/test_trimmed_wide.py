"""Step 2 of the hegemony kernel against its definition on keys wider
than 16 bits.

``_trimmed`` sorts its cells by value, then stably by AS code and by
group id, each key in the smallest unsigned dtype its range allows.
The record sets the other kernel tests draw number their groups and AS
codes below 2**16, where numpy sorts the keys by radix; here both reach
70,000, so both keys are 32-bit and the comparison sort runs. Values
come from a small set, so most rows hold ties, whose order the value
sort leaves open.
"""

import numpy as np
import pytest

from repro.perf.hegemony import _trimmed

from tests.oracles.hegemony import trimmed_mean
from tests.perf.test_hegemony_kernel import TRIMS

#: the largest group id and AS code, past 16 bits
WIDEST = 70_000
ROWS = 3_000
#: a few values, so rows repeat them
VALUES = (0.1, 0.125, 0.25, 1 / 3, 0.5, 0.7, 1.0)


def columns(seed):
    """Shuffled (group, code, value) cells of ``ROWS`` distinct (group,
    AS) rows, the group ids and codes reaching :data:`WIDEST`, and each
    group's VP count ``n`` (at least its rows' cells)."""
    rng = np.random.default_rng(seed)
    keys = rng.choice((WIDEST + 1) ** 2, size=ROWS, replace=False)
    keys[:2] = [WIDEST * (WIDEST + 1), WIDEST]  # group WIDEST; code WIDEST
    groups, codes = np.divmod(keys, WIDEST + 1)
    cells = rng.integers(1, 9, size=ROWS)
    vp_counts = np.zeros(WIDEST + 1, dtype=np.int64)
    np.maximum.at(vp_counts, groups, cells + rng.integers(0, 4, size=ROWS))
    values = rng.choice(VALUES, size=int(cells.sum()))
    order = rng.permutation(len(values))
    return (
        np.repeat(groups, cells)[order], np.repeat(codes, cells)[order],
        values[order], vp_counts,
    )


@pytest.mark.parametrize("seed", range(3))
def test_rows_equal_the_definition(seed):
    groups, codes, values, vp_counts = columns(seed)
    assert np.min_scalar_type(WIDEST) == np.uint32
    asns = np.arange(WIDEST + 1, dtype=np.int64) * 3 + 7  # sorted, distinct
    rows = {}
    for group, code, value in zip(groups.tolist(), codes.tolist(), values.tolist()):
        rows.setdefault((group, code), []).append(value)
    for trim in TRIMS:
        tables = _trimmed(groups, codes, values, vp_counts, trim, asns)
        assert len(tables) == WIDEST + 1
        got = {
            (group, asn): repr(score)
            for group, table in enumerate(tables)
            for asn, score in zip(table.asns.tolist(), table.values.tolist())
        }
        expected = {
            (group, int(asns[code])): repr(trimmed_mean(
                [0.0] * (int(vp_counts[group]) - len(cells)) + cells, trim,
            ))
            for (group, code), cells in rows.items()
        }
        assert got == expected
        assert list(got) == sorted(expected)  # each table ascending by ASN
