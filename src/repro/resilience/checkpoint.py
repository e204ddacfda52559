"""Content-keyed checkpoints for resumable sweeps.

A :class:`Checkpoint` is an append-only JSONL file recording completed
work units under a *content key* — a fingerprint of everything that
determines the output (world, semantic config knobs, request). Resume
only replays units recorded under the *same* key; a stale file from a
different world/config/request is discarded wholesale, so a resumed
run can never mix incompatible results.

Equivalence guarantee: units are serialized value-exactly (floats
round-trip through JSON via ``repr``, which Python guarantees is
lossless), and the consumer recomputes anything not found — so a run
resumed from any prefix of a crashed run produces byte-identical
output to an uninterrupted run. ``tests/resilience/test_checkpoint.py``
pins this down.

File format (one JSON object per line)::

    {"type": "header", "format": "repro-checkpoint", "version": 1,
     "key": "..."}
    {"type": "unit", "unit": "ranking:AHN:AU", "payload": {...}}
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import IO, Mapping

from repro.core.ranking import RankEntry, Ranking

FORMAT_NAME = "repro-checkpoint"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Raised for an unreadable or incompatible checkpoint file."""


class Checkpoint:
    """An append-only store of completed work units.

    Open with :meth:`open`; read units back with :meth:`get`; record
    new ones with :meth:`put` (appended and flushed immediately, so a
    crash loses at most the unit in flight).
    """

    def __init__(self, path: str | Path, key: str) -> None:
        self.path = Path(path)
        self.key = key
        self._done: dict[str, object] = {}
        self._handle: IO[str] | None = None

    @classmethod
    def open(cls, path: str | Path, key: str, resume: bool = True) -> "Checkpoint":
        """Open a checkpoint for ``key``.

        ``resume=True`` loads every unit previously recorded under the
        same key; a missing file, a foreign key, or a corrupt file
        starts fresh (the file is truncated on the first ``put``).
        ``resume=False`` always starts fresh.
        """
        checkpoint = cls(path, key)
        if resume:
            checkpoint._load()
        return checkpoint

    @property
    def loaded(self) -> int:
        """How many units resume recovered from disk."""
        return len(self._done)

    def get(self, unit: str) -> object | None:
        """The recorded payload for a unit, or ``None``."""
        return self._done.get(unit)

    def put(self, unit: str, payload: object) -> None:
        """Record one completed unit (appended, flushed, and fsynced —
        a crash loses at most the unit in flight, and :meth:`_load`
        truncates any torn trailing line that write leaves behind)."""
        handle = self._ensure_handle()
        handle.write(json.dumps({
            "type": "unit", "unit": unit, "payload": payload,
        }, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
        self._done[unit] = payload

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Checkpoint":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- internals ------------------------------------------------------------

    def _load(self) -> None:
        """Load every unit recorded under this key, tolerating a torn
        trailing line.

        A crash mid-append leaves a final line with no terminating
        newline (possibly partial JSON). That tail is *dropped and the
        file truncated* to the last complete line before any append —
        otherwise the next :meth:`put` would concatenate onto the torn
        fragment and corrupt two records at once. The recoverable
        newline-terminated prefix is kept, so resume still replays
        every fully-banked unit; the unit in flight is simply
        recomputed. Corruption *before* the final line is not a
        crash-append signature, so the whole file is distrusted and
        resume starts fresh.
        """
        try:
            raw = self.path.read_bytes()
        except OSError:
            return
        if not raw:
            return
        body, _, torn = raw.rpartition(b"\n")  # torn == b"" for a clean file
        entries: list[object] = []
        for line in body.split(b"\n") if body else []:
            try:
                entries.append(json.loads(line))
            except ValueError:
                return  # mid-file corruption: distrust the whole file
        header = entries[0] if entries else None
        if (
            isinstance(header, dict)
            and header.get("format") == FORMAT_NAME
            and header.get("version") == FORMAT_VERSION
            and header.get("key") == self.key
        ):
            for entry in entries[1:]:
                if isinstance(entry, dict) and entry.get("type") == "unit":
                    self._done[entry["unit"]] = entry.get("payload")
        if torn:
            warnings.warn(
                f"checkpoint {self.path}: dropped a torn trailing line "
                f"({len(torn)} bytes, crash mid-append?) — "
                f"{len(self._done)} banked unit(s) kept, the unit in "
                "flight will be recomputed",
                RuntimeWarning,
                stacklevel=3,
            )
            try:
                with open(self.path, "r+b") as handle:
                    handle.truncate(len(body) + 1 if body else 0)
                    os.fsync(handle.fileno())
            except OSError:
                # cannot repair in place: appending would corrupt, so
                # distrust the file and start fresh (first put rewrites)
                self._done.clear()

    def _ensure_handle(self) -> IO[str]:
        if self._handle is None:
            fresh = not self._done
            self._handle = open(
                self.path, "wt" if fresh else "at", encoding="utf-8"
            )
            if fresh:
                self._handle.write(json.dumps({
                    "type": "header", "format": FORMAT_NAME,
                    "version": FORMAT_VERSION, "key": self.key,
                }, sort_keys=True) + "\n")
                self._handle.flush()
                os.fsync(self._handle.fileno())
        return self._handle


# -- content keys -------------------------------------------------------------

#: Config attributes that shape ranking *values*. Telemetry,
#: ``workers`` (accepted and ignored), the fault plan and the store
#: backend are deliberately excluded — they never change output bytes. Shared by every content key (the
#: sweep's and the serving layer's artifact store).
SEMANTIC_KNOBS = (
    "rib", "geo_noise_rate", "geo_miss_rate", "geo_threshold", "trim",
    "use_inferred_relationships", "tiebreak", "path_diversity",
    "family", "seed",
)


def config_knobs(config: object) -> str:
    """The semantic-knob fragment of a content key (value-exact:
    floats go through ``repr``)."""
    return ";".join(
        f"{name}={getattr(config, name)!r}"
        for name in SEMANTIC_KNOBS if hasattr(config, name)
    )


def sweep_key(
    world_name: str,
    config: object,
    metrics: tuple[str, ...] | list[str],
    countries: tuple[str, ...] | list[str] | None,
) -> str:
    """The content key for a ``rank_all`` sweep: world + every config
    knob that shapes ranking values + the request itself.

    ``world_name`` must change whenever the world's content does — the
    CLI passes :meth:`repro.topology.world.World.fingerprint`, since a
    catalog name and seed do not pin a generated world's content."""
    knobs = config_knobs(config)
    wanted = ",".join(metrics)
    where = ",".join(countries) if countries is not None else "<auto>"
    return f"sweep/world={world_name}/{knobs}/metrics={wanted}/countries={where}"


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


def ranking_from_payload(payload: Mapping) -> Ranking:
    """Rebuild a ranking recorded by :func:`ranking_to_payload`."""
    try:
        entries = [
            RankEntry(rank=rank, asn=asn, value=value, share=share)
            for rank, asn, value, share in payload["entries"]
        ]
        return Ranking(payload["metric"], entries, payload["country"])
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(f"malformed ranking payload: {error}") from error
