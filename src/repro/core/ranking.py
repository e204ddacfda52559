"""Ranking containers shared by every metric.

A :class:`Ranking` is an ordered list of (ASN, raw value, share)
entries. ``value`` is the metric's raw score (addresses in a cone,
average betweenness, …); ``share`` is the paper's percentage — of a
country's address space for CC metrics, of observed paths for AH
metrics — and is what the case-study tables print.

A score table travels from the kernels to its ranking as
:class:`ScoreColumns`, an ``(asns, values)`` column pair;
:meth:`Ranking.from_columns` ranks it without a per-AS dict.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np


class ScoreColumns(NamedTuple):
    """A score table as columns: row ``i`` scores AS ``asns[i]``.

    Every kernel product (hegemony, CTI, AHC's average, the cone
    closure) takes this form, its rows in ascending ASN order.
    """

    #: distinct int64 ASNs
    asns: np.ndarray
    #: float64 scores; the cone closure holds exact address counts
    #: instead (int64, or Python ints in an object array)
    values: np.ndarray


def no_scores() -> ScoreColumns:
    """The empty score table."""
    return ScoreColumns(np.empty(0, dtype=np.int64), np.empty(0))


def _rank_order(asns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The row order by descending value, ties on ascending ASN: one
    ``np.lexsort``, exactly as ``sorted`` on the key ``(-value, asn)``
    would order the rows (``-0.0`` ties ``0.0``; an int value ranks by
    its float, exact up to 2**53)."""
    return np.lexsort((asns, -values))


class RankEntry(NamedTuple):
    """One ranked AS.

    A named tuple rather than a frozen dataclass: a sweep builds one
    per ranked AS, and a frozen dataclass's ``__init__`` sets each
    field through ``object.__setattr__`` (about twice the cost).
    """

    rank: int
    asn: int
    value: float
    share: float | None = None

    def share_pct(self) -> float:
        """Share as a 0–100 percentage (0 when unknown)."""
        return 100.0 * self.share if self.share is not None else 0.0


class Ranking:
    """An immutable metric ranking with O(1) rank lookups."""

    def __init__(
        self,
        metric: str,
        entries: list[RankEntry],
        country: str | None = None,
    ) -> None:
        self.metric = metric
        self.country = country
        self.entries = entries
        #: ASN → entry, built on the first lookup
        self._by_asn: dict[int, RankEntry] | None = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        metric: str,
        asns: np.ndarray,
        values: np.ndarray,
        shares: np.ndarray | None = None,
        country: str | None = None,
    ) -> "Ranking":
        """Rank a column table by descending value; ties break on
        ascending ASN.

        The entries hold the ordered columns' ``.tolist()`` items —
        Python ints and floats. ``shares`` is a float64 column aligned
        with ``asns`` (``None`` leaves every share unknown); passing
        ``values`` itself shares the value objects.
        """
        order = _rank_order(asns, values)
        ranked = values[order].tolist()
        if shares is values:
            share_list = ranked
        elif shares is None:
            share_list = [None] * len(ranked)
        else:
            share_list = shares[order].tolist()
        return cls(metric, list(map(
            RankEntry, range(1, len(ranked) + 1), asns[order].tolist(),
            ranked, share_list,
        )), country)

    @classmethod
    def from_scores(
        cls,
        metric: str,
        scores: Mapping[int, float],
        shares: Mapping[int, float] | None = None,
        country: str | None = None,
    ) -> "Ranking":
        """:meth:`from_columns` for a dict table: the same order, and
        each entry keeps the table's own value object and
        ``shares.get(asn)``."""
        asns = list(scores)
        values = list(scores.values())
        order = _rank_order(
            np.array(asns, dtype=np.int64), np.array(values, dtype=np.float64)
        ).tolist()
        share = shares.get if shares is not None else lambda asn: None
        entries = [
            RankEntry(rank, asns[at], values[at], share(asns[at]))
            for rank, at in enumerate(order, start=1)
        ]
        return cls(metric, entries, country)

    # -- queries ----------------------------------------------------------------

    def top(self, k: int = 10) -> list[RankEntry]:
        """The k best entries (the paper's TRA uses k = 10)."""
        return self.entries[:k]

    def top_asns(self, k: int = 10) -> list[int]:
        """Just the ASNs of the top-k."""
        return [entry.asn for entry in self.entries[:k]]

    def _entry(self, asn: int) -> RankEntry | None:
        if self._by_asn is None:
            self._by_asn = {entry.asn: entry for entry in self.entries}
        return self._by_asn.get(asn)

    def rank_of(self, asn: int) -> int | None:
        """1-based rank, or ``None`` when the AS is unranked."""
        entry = self._entry(asn)
        return entry.rank if entry is not None else None

    def value_of(self, asn: int) -> float:
        """Raw metric value (0.0 when unranked)."""
        entry = self._entry(asn)
        return entry.value if entry is not None else 0.0

    def share_of(self, asn: int) -> float | None:
        """Share (0..1), or ``None`` when unknown/unranked."""
        entry = self._entry(asn)
        return entry.share if entry is not None else None

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[RankEntry]:
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return (
            self.metric == other.metric
            and self.country == other.country
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.metric, self.country, tuple(self.entries)))

    # -- presentation --------------------------------------------------------------

    def render(
        self,
        k: int = 10,
        name_of: Callable[[int], str] | None = None,
    ) -> str:
        """A printable top-k table."""
        title = self.metric
        if self.country is not None and self.country not in self.metric:
            title = f"{self.metric} ({self.country})"
        lines = [f"== {title} ==", f"{'rank':>4}  {'ASN':>8}  {'share':>7}  name"]
        for entry in self.top(k):
            name = name_of(entry.asn) if name_of is not None else ""
            lines.append(
                f"{entry.rank:>4}  {entry.asn:>8}  {entry.share_pct():>6.1f}%  {name}"
            )
        return "\n".join(lines)
