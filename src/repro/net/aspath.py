"""AS paths as immutable sequences with the hygiene operations the
sanitizer needs: prepending collapse, loop detection, ASN removal.

Convention used throughout the codebase: index 0 is the AS closest to
the vantage point (the VP's own AS), and the last element is the origin
AS of the announced prefix — the same order BGP wire format and MRT
dumps use.

:class:`PathColumns` is the columnar form of a table of paths: their
ASNs concatenated in one int64 ``tokens`` column, with per-path
``offsets`` and ``lengths``. It is a ``Sequence[ASPath]`` that builds
each :class:`ASPath` on access, so the hot loops pass columns while
callers that want objects still get them.

:func:`dense_codes` numbers an integer column as ``np.unique(values,
return_inverse=True)`` does, by a presence table instead of a sort
when the values span a narrow range — the Table-1 judge's per-token
ASN codes and the store's shared AS codes both come from it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


class ASPathError(ValueError):
    """Raised for structurally invalid AS paths."""


@dataclass(frozen=True, slots=True)
class ASPath:
    """An AS-level path from a vantage point toward an origin."""

    asns: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.asns:
            raise ASPathError("empty AS path")
        for asn in self.asns:
            if not isinstance(asn, int) or asn < 0:
                raise ASPathError(f"invalid ASN in path: {asn!r}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def of(cls, *asns: int) -> "ASPath":
        """Build a path from positional ASNs, VP-side first."""
        return cls(tuple(asns))

    @classmethod
    def trusted(cls, asns: tuple[int, ...]) -> "ASPath":
        """Wrap an already-validated non-empty ASN tuple without
        re-running per-element validation.

        Only for callers that hold ASNs proven valid by construction
        (propagated routes, collapsed copies of validated paths) — the
        hot loops build hundreds of thousands of paths per run and the
        public constructor's validation dominates their cost.
        """
        path = object.__new__(cls)
        object.__setattr__(path, "asns", asns)
        return path

    @classmethod
    def parse(cls, text: str) -> "ASPath":
        """Parse a space-separated path string, e.g. ``"3356 1299 4826"``."""
        parts = text.split()
        if not parts:
            raise ASPathError(f"empty AS path text: {text!r}")
        try:
            return cls(tuple(int(part) for part in parts))
        except ValueError as exc:
            raise ASPathError(f"non-numeric ASN in {text!r}") from exc

    # -- accessors --------------------------------------------------------

    @property
    def collector_side(self) -> int:
        """The AS adjacent to the vantage point (the VP's own AS)."""
        return self.asns[0]

    @property
    def origin(self) -> int:
        """The AS that originated the prefix."""
        return self.asns[-1]

    def links(self) -> Iterator[tuple[int, int]]:
        """Adjacent AS pairs in VP→origin order."""
        return zip(self.asns, self.asns[1:])

    def unique_asns(self) -> frozenset[int]:
        """The set of distinct ASNs on the path."""
        return frozenset(self.asns)

    # -- hygiene ----------------------------------------------------------

    def collapse_prepending(self) -> "ASPath":
        """Merge runs of adjacent duplicate ASNs (BGP path prepending)."""
        asns = self.asns
        previous = None
        for asn in asns:
            if asn == previous:
                break
            previous = asn
        else:  # no adjacent duplicates: already collapsed
            return self
        collapsed: list[int] = []
        for asn in asns:
            if not collapsed or collapsed[-1] != asn:
                collapsed.append(asn)
        return ASPath.trusted(tuple(collapsed))

    def has_loop(self) -> bool:
        """Whether any ASN repeats non-adjacently (e.g. ``A C A``).

        Adjacent duplicates are prepending, not loops; collapse first,
        then look for any remaining repetition.
        """
        collapsed = self.collapse_prepending().asns
        return len(set(collapsed)) != len(collapsed)

    def without(self, asns: Iterable[int]) -> "ASPath":
        """Drop the given ASNs (e.g. IXP route servers) from the path.

        Raises :class:`ASPathError` if the result would be empty.
        """
        drop = set(asns)
        kept = tuple(asn for asn in self.asns if asn not in drop)
        if not kept:
            raise ASPathError(f"removing {sorted(drop)} empties path {self}")
        return ASPath.trusted(kept)

    def prepended(self, asn: int, times: int = 1) -> "ASPath":
        """Return the path with ``asn`` prepended (VP side) ``times`` times."""
        if times < 1:
            raise ASPathError(f"invalid prepend count: {times}")
        return ASPath((asn,) * times + self.asns)

    # -- protocol ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.asns)

    def __iter__(self) -> Iterator[int]:
        return iter(self.asns)

    def __contains__(self, asn: int) -> bool:
        return asn in self.asns

    def __getitem__(self, index: int) -> int:
        return self.asns[index]

    def __str__(self) -> str:
        return " ".join(str(asn) for asn in self.asns)

    def __repr__(self) -> str:
        return f"ASPath({str(self)!r})"


#: :func:`dense_codes` numbers by a presence table while the values
#: span at most this many slots per value plus the floor; beyond, it
#: sorts (the shape of ``perf.hegemony``'s dense-bin rule)
DENSE_SPAN_PER_VALUE = 4
DENSE_SPAN_FLOOR = 65_536


def dense_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` for a 1-D array: its
    sorted distinct values and each value's index among them.

    When integer values span a narrow range (``max - min`` within
    :data:`DENSE_SPAN_PER_VALUE` slots per value plus
    :data:`DENSE_SPAN_FLOOR`), each value is marked in a boolean table
    over that range and the marked slots are numbered by a running
    count — no sort, and every transient proportional to the input.
    Otherwise it is ``np.unique`` itself.
    """
    values = np.asarray(values)
    if not len(values) or values.dtype.kind not in "iu":
        return np.unique(values, return_inverse=True)
    low, high = values.min(), values.max()
    span = int(high) - int(low) + 1
    if span > DENSE_SPAN_PER_VALUE * len(values) + DENSE_SPAN_FLOOR:
        return np.unique(values, return_inverse=True)
    # unsigned differences cannot wrap; signed ones are taken in int64
    slot = (
        values - low if values.dtype.kind == "u"
        else values.astype(np.int64, copy=False) - int(low)
    )
    present = np.zeros(span, dtype=bool)
    present[slot] = True
    code = np.cumsum(present) - 1
    distinct = np.flatnonzero(present).astype(values.dtype) + low
    return distinct, code[slot]


def runs(
    tokens: np.ndarray, offsets: np.ndarray, lengths: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The runs ``tokens[offsets[i]:offsets[i] + lengths[i]]`` for each
    ``i`` in ``ids``, concatenated, and their lengths."""
    sizes = lengths[ids]
    ends = np.cumsum(sizes)
    at = np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64)
    at += np.repeat(offsets[ids] - (ends - sizes), sizes)
    return tokens[at], sizes


class PathColumns(Sequence):
    """A table of AS paths as int64 token columns.

    Path ``i`` is ``tokens[offsets[i]:offsets[i] + lengths[i]]``. The
    table only grows (:meth:`extend`); indexing builds the
    :class:`ASPath` on access, and :meth:`columns` gathers the tokens
    of many paths at once without building any.
    """

    __slots__ = ("_tokens", "_offsets", "_lengths", "_count", "_size")

    def __init__(
        self,
        tokens: np.ndarray | None = None,
        lengths: np.ndarray | None = None,
    ) -> None:
        """The table of the paths ``tokens`` holds, ``lengths`` tokens
        each (empty by default). The arrays are adopted, not copied."""
        none = np.empty(0, dtype=np.int64)
        self._tokens = np.asarray(none if tokens is None else tokens, dtype=np.int64)
        self._lengths = np.asarray(
            none if lengths is None else lengths, dtype=np.int64
        )
        self._offsets = np.cumsum(self._lengths) - self._lengths
        self._count, self._size = len(self._lengths), len(self._tokens)

    @property
    def tokens(self) -> np.ndarray:
        return self._tokens[:self._size]

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets[:self._count]

    @property
    def lengths(self) -> np.ndarray:
        return self._lengths[:self._count]

    def extend(self, tokens: np.ndarray, lengths: np.ndarray) -> None:
        """Append the paths ``tokens`` holds, ``lengths`` tokens each
        (every length at least 1)."""
        tokens = np.asarray(tokens, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        count, size = self._count + len(lengths), self._size + len(tokens)
        self._tokens = _room(self._tokens, size)
        self._offsets = _room(self._offsets, count)
        self._lengths = _room(self._lengths, count)
        self._tokens[self._size:size] = tokens
        self._offsets[self._count:count] = self._size + np.cumsum(lengths) - lengths
        self._lengths[self._count:count] = lengths
        self._count, self._size = count, size

    def columns(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The tokens of the paths at ``ids``, concatenated, and their
        lengths."""
        return runs(self._tokens, self._offsets, self._lengths, ids)

    def objects(self, ids: np.ndarray) -> list[ASPath]:
        """The paths at ``ids`` as objects, each distinct path built
        once (equal ids share one object)."""
        distinct, inverse = np.unique(ids, return_inverse=True)
        built = [self[pid] for pid in distinct.tolist()]
        return [built[at] for at in inverse.tolist()]

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("path id out of range")
        start = int(self._offsets[index])
        end = start + int(self._lengths[index])
        # propagated, judged and interned paths are valid by construction
        return ASPath.trusted(tuple(self._tokens[start:end].tolist()))


def _room(column: np.ndarray, size: int) -> np.ndarray:
    """``column`` with room for ``size`` elements, doubling so that a
    growing column costs amortised O(1) per element."""
    if len(column) >= size:
        return column
    grown = np.empty(max(size, 2 * len(column)), dtype=column.dtype)
    grown[:len(column)] = column
    return grown
