"""One content key and one store for every persisted ranking.

A ranking is a function of its input's *content* and of the config
knobs that shape values, and of nothing else. So every persisted
ranking (``repro-rank sweep --checkpoint``, ``repro-rank watch
--checkpoint``, ``repro-serve --store``) is banked under
:func:`store_key` of exactly those two: a :class:`World` (keyed on its
fingerprint, never its name) or a release file's sha256, plus the
config's :data:`SEMANTIC_KNOBS`. The request, labels, ``top`` and
alert thresholds choose which units are read, never what one holds, so
they are not in a key. :func:`unit_name` names every banked line
``<store_key>|<spec.unit_key(country)>`` (``<store_key>|snapshot`` for
a watch snapshot's record), so one file banks any number of worlds,
releases and configs, and a sweep's file is a ``repro-serve --store``
file. :class:`ArtifactStore` is the store the sweep and the daemon
bank through; the watch engine banks through the file directly.

Payloads are value-exact (floats round-trip through JSON ``repr``), a
banked ranking is checked when first read and recomputed when damaged,
and anything missing is recomputed, so a run resumed from any prefix
of a crashed run is byte-identical to an uninterrupted one.

File format (one JSON object per line; the later line of a unit wins)::

    {"format": "repro-checkpoint", "type": "header", "version": 2}
    {"payload": {...}, "type": "unit", "unit": "<store_key>|ranking:AHN:AU"}

Any other header (version 1 keyed the whole file) is foreign: the file
starts fresh.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import IO, TYPE_CHECKING

from repro.core.ranking import RankEntry, Ranking
from repro.obs.trace import NULL_TRACER, AnyTracer

if TYPE_CHECKING:
    from repro.core.registry import MetricSpec
    from repro.topology.world import World

HEADER = {"type": "header", "format": "repro-checkpoint", "version": 2}


class CheckpointError(ValueError):
    """Raised for an unusable checkpoint path or a malformed ranking
    payload."""


class Checkpoint:
    """An append-only file of completed work units: :meth:`open` it,
    read units with :meth:`get` (or :meth:`ranking`, which checks what
    it decodes), record new ones with :meth:`put`."""

    def __init__(self, path: Path, done: dict[str, object], handle: IO[str]) -> None:
        self.path = path
        self._done = done
        self._handle = handle

    @classmethod
    def open(cls, path: str | Path, resume: bool = True) -> "Checkpoint":
        """Open the file at ``path``, creating it: ``resume=True`` loads
        every unit it banks; a missing, foreign or corrupt file — or
        ``resume=False`` — is rewritten to a bare header at once. A
        path that cannot be written (a missing directory, a directory)
        raises :class:`CheckpointError` here, before any work is done.
        """
        path = Path(path)
        done = _banked_units(path) if resume else {}
        try:
            handle = open(path, "at" if done else "wt", encoding="utf-8")
        except OSError as error:
            raise CheckpointError(
                f"checkpoint {path}: cannot open ({error.strerror})"
            ) from error
        checkpoint = cls(path, done, handle)
        if not done:
            checkpoint._append(HEADER)
        return checkpoint

    @property
    def loaded(self) -> int:
        """How many units the file banks."""
        return len(self._done)

    def units(self) -> list[str]:
        """The names of every banked unit."""
        return list(self._done)

    def get(self, unit: str) -> object | None:
        """The recorded payload for a unit, or ``None``."""
        return self._done.get(unit)

    def ranking(
        self, unit: str, spec: "MetricSpec", country: str | None
    ) -> Ranking | None:
        """The ranking banked under ``unit`` if it decodes as ``spec``'s
        ranking for ``country``, else ``None`` (a damaged unit is
        :meth:`discard`\\ ed)."""
        payload = self._done.get(unit)
        if payload is None:
            return None
        try:
            ranking = ranking_from_payload(payload)
            label = spec.label_for(country)
            if (ranking.metric, ranking.country) != (label, country):
                raise CheckpointError(
                    f"holds {ranking.metric!r} for {ranking.country!r}, "
                    f"not {label!r} for {country!r}"
                )
        except CheckpointError as error:
            self.discard(unit, str(error))
            return None
        return ranking

    def discard(self, unit: str, reason: str) -> None:
        """Forget a damaged unit: it reads as missing, and the next
        :meth:`put` banks it again (the later line wins on reopen)."""
        del self._done[unit]
        warnings.warn(
            f"checkpoint {self.path}: unit {unit!r} is damaged ({reason}) "
            "— it will be recomputed",
            RuntimeWarning,
            stacklevel=3,
        )

    def put(self, unit: str, payload: object) -> None:
        """Record one completed unit, appended and fsynced at once (a
        crash loses at most the unit in flight)."""
        self._append({"type": "unit", "unit": unit, "payload": payload})
        self._done[unit] = payload

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "Checkpoint":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def _append(self, entry: dict) -> None:
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())


def _banked_units(path: Path) -> dict[str, object]:
    """Every unit the file at ``path`` banks.

    A crash mid-append leaves a torn final line: it is dropped and the
    file truncated to the last complete line before any append (else
    the next put would corrupt two records at once), so the unit in
    flight is recomputed. Corruption *before* the final line is not a
    crash-append signature: the whole file is distrusted.
    """
    try:
        raw = path.read_bytes()
    except OSError:
        return {}
    body, _, torn = raw.rpartition(b"\n")  # torn == b"" for a clean file
    entries: list[object] = []
    for line in body.split(b"\n") if body else []:
        try:
            entries.append(json.loads(line))
        except (ValueError, RecursionError):
            return {}  # mid-file corruption: distrust the whole file
    done: dict[str, object] = {}
    if entries and entries[0] == HEADER:
        for entry in entries[1:]:
            if (
                isinstance(entry, dict)
                and entry.get("type") == "unit"
                and isinstance(entry.get("unit"), str)
            ):
                done[entry["unit"]] = entry.get("payload")
    if torn:
        warnings.warn(
            f"checkpoint {path}: dropped a torn trailing line "
            f"({len(torn)} bytes, crash mid-append?) — "
            f"{len(done)} banked unit(s) kept, the unit in "
            "flight will be recomputed",
            RuntimeWarning,
            stacklevel=4,
        )
        try:
            with open(path, "r+b") as handle:
                handle.truncate(len(body) + 1 if body else 0)
                os.fsync(handle.fileno())
        except OSError:
            # cannot repair in place: appending would corrupt, so
            # distrust the file and start fresh (the open rewrites it)
            return {}
    return done


# -- the content key ----------------------------------------------------------

#: Config attributes that shape ranking *values*, the only config
#: fields in a key (``workers``, ``trace``, ``store_backend`` and
#: ``spill_dir`` never change output bytes; a ``PipelineConfig`` field in
#: neither list fails ``tests/resilience/test_checkpoint.py``).
SEMANTIC_KNOBS = (
    "rib", "geo_noise_rate", "geo_miss_rate", "geo_threshold", "trim",
    "use_inferred_relationships", "tiebreak", "path_diversity",
    "family", "seed",
)


def store_key(content: "World | str", config: object) -> str:
    """The content key of every ranking computed from ``content``
    under ``config``: a digest of the world's fingerprint (or a
    release's sha256) and the config's :data:`SEMANTIC_KNOBS`."""
    digest = content if isinstance(content, str) else content.fingerprint()
    knobs = ";".join(
        f"{name}={getattr(config, name)!r}" for name in SEMANTIC_KNOBS
    )
    return hashlib.sha256(f"{digest}/{knobs}".encode()).hexdigest()[:16]


def unit_name(
    key: str, spec: "MetricSpec | None" = None, country: str | None = None
) -> str:
    """The name every banked line goes under:
    ``<store_key>|<spec.unit_key(country)>`` for a ranking, and
    ``<store_key>|snapshot`` for a watch snapshot's record (no
    ``spec``)."""
    return f"{key}|{'snapshot' if spec is None else spec.unit_key(country)}"


class ArtifactStore:
    """The rankings of one :func:`store_key`, in memory and — with a
    ``path`` — in a :class:`Checkpoint` file (which may bank other keys
    too). ``persisted`` counts the key's units in the file at open;
    :meth:`lookup` is the sweep's read, :meth:`get` the daemon's,
    counted in ``hits``/``misses`` and the ``serve.store.*`` counters.
    """

    def __init__(
        self,
        key: str,
        path: str | Path | None = None,
        tracer: AnyTracer = NULL_TRACER,
        resume: bool = True,
    ) -> None:
        self.key = key
        self._tracer = tracer
        self._memory: dict[str, Ranking] = {}
        self._checkpoint = (
            None if path is None else Checkpoint.open(path, resume=resume)
        )
        #: units banked under this key when the file was opened
        self.persisted = 0 if self._checkpoint is None else sum(
            unit.partition("|")[0] == key for unit in self._checkpoint.units()
        )
        self.hits = 0
        self.misses = 0

    def lookup(self, spec: "MetricSpec", country: str | None) -> Ranking | None:
        """The banked ranking for one unit, or ``None``: memory first,
        then the file (a unit is decoded and checked once, then
        promoted into memory)."""
        unit = unit_name(self.key, spec, country)
        ranking = self._memory.get(unit)
        if ranking is None and self._checkpoint is not None:
            ranking = self._checkpoint.ranking(unit, spec, country)
            if ranking is not None:
                self._memory[unit] = ranking
        return ranking

    def get(self, spec: "MetricSpec", country: str | None) -> Ranking | None:
        """:meth:`lookup`, counted as a hit or a miss."""
        ranking = self.lookup(spec, country)
        if ranking is None:
            self.misses += 1
            self._tracer.metrics.counter("serve.store.misses").inc()
        else:
            self.hits += 1
            self._tracer.metrics.counter("serve.store.hits").inc()
        return ranking

    def put(self, spec: "MetricSpec", country: str | None, ranking: Ranking) -> None:
        """Bank one computed ranking (idempotent: a unit already on
        disk is not appended twice)."""
        unit = unit_name(self.key, spec, country)
        self._memory[unit] = ranking
        if self._checkpoint is not None and self._checkpoint.get(unit) is None:
            self._checkpoint.put(unit, ranking_to_payload(ranking))

    def __len__(self) -> int:
        return len(self._memory)

    def close(self) -> None:
        if self._checkpoint is not None:
            self._checkpoint.close()

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


# -- ranking (de)serialization ------------------------------------------------


def ranking_to_payload(ranking: Ranking) -> dict:
    """A JSON-safe, value-exact encoding of one ranking."""
    return {
        "metric": ranking.metric,
        "country": ranking.country,
        "entries": [
            [entry.rank, entry.asn, entry.value, entry.share]
            for entry in ranking.entries
        ],
    }


def ranking_from_payload(payload: object) -> Ranking:
    """Rebuild a ranking recorded by :func:`ranking_to_payload`; its
    entries must be a list of ``[int rank, int asn, float value,
    float-or-null share]``."""
    try:
        rows = payload["entries"]  # type: ignore[index]
        metric, country = payload["metric"], payload["country"]  # type: ignore[index]
        if type(rows) is not list:
            raise TypeError(f"entries are a {type(rows).__name__}")
        entries = [
            RankEntry(rank=rank, asn=asn, value=value, share=share)
            for rank, asn, value, share in rows
        ]
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(f"malformed ranking payload: {error}") from error
    for entry in entries:
        if not (
            type(entry.rank) is int and type(entry.asn) is int
            and type(entry.value) is float
            and (entry.share is None or type(entry.share) is float)
        ):
            raise CheckpointError(f"malformed ranking payload: {entry}")
    return Ranking(metric, entries, country)
