"""Address space as painted intervals.

An :class:`IntervalMap` cuts one address family's space into ascending
segments, each carrying one int64 value (``-1`` where nothing was
painted). Offsets count units of ``2**(bits - width)`` addresses, where
``width`` is the longest prefix length painted, so every CIDR block of
length ``<= width`` starts and ends on a unit boundary and every
address count is an exact integer. Offsets are int64 while
``2**width`` fits (``width <= 62``) and Python-int object arrays past
that, so IPv6 prefixes of any length stay exact through the same code.

:meth:`IntervalMap.paint` lays CIDR blocks down shortest first, so a
more specific block overwrites the less specific blocks around it: the
most-specific-match rule of a routing table or a geolocation database,
as array passes instead of trie walks.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

#: widest unit count whose offsets (up to ``2**width``) fit in int64
INT64_WIDTH = 62


def offsets(networks: Sequence[int], bits: int, width: int) -> np.ndarray:
    """Network addresses of a ``bits``-wide family as unit offsets."""
    shift = bits - width
    if bits <= INT64_WIDTH:
        return np.array(networks, dtype=np.int64) >> shift
    dtype = np.int64 if width <= INT64_WIDTH else object
    return np.array([n >> shift for n in networks], dtype=dtype)


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (a plain ``np.unique`` would import
    ``numpy.ma`` on first use)."""
    ordered = np.sort(values)
    keep = np.ones(len(ordered), dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


class IntervalMap(NamedTuple):
    """Ascending ``bounds`` (``0`` to ``2**width``) and one value per
    segment ``[bounds[i], bounds[i + 1])``; neighbours never share a
    value."""

    width: int
    bounds: np.ndarray
    values: np.ndarray

    @classmethod
    def paint(
        cls, starts: np.ndarray, lengths: np.ndarray, values: np.ndarray,
        width: int,
    ) -> "IntervalMap":
        """Paint CIDR blocks (unit ``starts``, prefix ``lengths``) with
        ``values``, shortest length first. Blocks of one length must be
        disjoint, so each length is one vectorised scatter."""
        space = 1 << width
        dtype = starts.dtype
        if dtype == object:
            sizes = np.array(
                [1 << (width - int(n)) for n in lengths], dtype=object
            )
        else:
            sizes = np.left_shift(np.int64(1), width - lengths)
        ends = starts + sizes
        bounds = _distinct(np.concatenate(
            [np.array([0, space], dtype=dtype), starts, ends]
        ))
        painted = np.full(len(bounds) - 1, -1, dtype=np.int64)
        order = np.argsort(lengths, kind="stable")
        _, heads = np.unique(lengths[order], return_index=True)
        for group in np.split(order, heads[1:]):
            first = np.searchsorted(bounds, starts[group])
            span = np.searchsorted(bounds, ends[group]) - first
            base = np.cumsum(span) - span
            cells = np.arange(int(span.sum())) + np.repeat(first - base, span)
            painted[cells] = np.repeat(values[group], span)
        keep = np.flatnonzero(np.diff(painted, prepend=-2))
        return cls(width, np.append(bounds[keep], bounds[-1]), painted[keep])

    def rescaled(self, width: int) -> "IntervalMap":
        """The same map counted in the finer units of ``width``."""
        shift = width - self.width
        if shift == 0:
            return self
        if width <= INT64_WIDTH:
            bounds = self.bounds << shift
        else:
            bounds = np.array([b << shift for b in self.bounds.tolist()],
                              dtype=object)
        return IntervalMap(width, bounds, self.values)

    def at(self, offset: int) -> int:
        """The value of the segment holding one unit offset."""
        return int(self.values[
            np.searchsorted(self.bounds, offset, side="right") - 1
        ])

    def clip(self, lo: int, hi: int) -> tuple[list[int], list[int]]:
        """Values and unit counts of the segments cut to ``[lo, hi)``,
        in address order."""
        first = int(np.searchsorted(self.bounds, lo, side="right")) - 1
        last = int(np.searchsorted(self.bounds, hi, side="left"))
        cuts = [lo, *self.bounds[first + 1:last].tolist(), hi]
        sizes = [b - a for a, b in zip(cuts, cuts[1:])]
        return self.values[first:last].tolist(), sizes

    def overlay(
        self, other: "IntervalMap"
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both maps' values and the unit count of every segment of
        their common refinement (both maps of one ``width``)."""
        cuts = _distinct(np.concatenate([self.bounds, other.bounds]))
        left = cuts[:-1]
        mine = self.values[np.searchsorted(self.bounds, left, side="right") - 1]
        theirs = other.values[
            np.searchsorted(other.bounds, left, side="right") - 1
        ]
        return mine, theirs, np.diff(cuts)
