"""Ranking containers shared by every metric.

A :class:`Ranking` is an ordered list of (ASN, raw value, share)
entries. ``value`` is the metric's raw score (addresses in a cone,
average betweenness, …); ``share`` is the paper's percentage — of a
country's address space for CC metrics, of observed paths for AH
metrics — and is what the case-study tables print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np


@dataclass(frozen=True, slots=True)
class RankEntry:
    """One ranked AS."""

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
        self._rank_of = {entry.asn: entry.rank for entry in entries}
        self._value_of = {entry.asn: entry.value for entry in entries}
        self._share_of = {entry.asn: entry.share for entry in entries}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_scores(
        cls,
        metric: str,
        scores: Mapping[int, float],
        shares: Mapping[int, float] | None = None,
        country: str | None = None,
    ) -> "Ranking":
        """Rank by descending value; ties break on ascending ASN.

        One ``np.lexsort`` orders the table, exactly as ``sorted`` on
        the key ``(-value, asn)`` would (``-0.0`` ties ``0.0``; an int
        value ranks by its float, exact up to 2**53); the entries keep
        the table's own Python values.
        """
        asns = list(scores)
        values = list(scores.values())
        order = np.lexsort((
            np.array(asns, dtype=np.int64),
            -np.array(values, dtype=np.float64),
        )).tolist()
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

    def rank_of(self, asn: int) -> int | None:
        """1-based rank, or ``None`` when the AS is unranked."""
        return self._rank_of.get(asn)

    def value_of(self, asn: int) -> float:
        """Raw metric value (0.0 when unranked)."""
        return self._value_of.get(asn, 0.0)

    def share_of(self, asn: int) -> float | None:
        """Share (0..1), or ``None`` when unknown/unranked."""
        return self._share_of.get(asn)

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

    def rank_changes(self, other: "Ranking", k: int = 10) -> list[tuple[int, int, int | None]]:
        """(asn, rank_here, rank_in_other) for this ranking's top-k.

        Used by the temporal tables (10 and 11): ``other`` is the later
        snapshot; ``None`` means the AS dropped out of the other ranking.
        """
        return [
            (entry.asn, entry.rank, other.rank_of(entry.asn))
            for entry in self.top(k)
        ]
