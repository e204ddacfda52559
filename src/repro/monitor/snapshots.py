"""Resolving watch inputs into an ordered snapshot stream.

The watch CLI accepts a mixed list of snapshot specs and this module
turns them into :class:`SnapshotRef` objects — labelled, ordered, and
loadable on demand (the engine never materializes two pipelines at
once):

* ``paper2021`` / ``small`` … — a named world from the catalog
  (:mod:`repro.topology.catalog`), built with the run seed;
* ``small@7`` — a named world with an explicit per-snapshot seed,
  which is how a synthetic "day stream" is scripted (``small@0
  small@1 small@2``: same profile, fresh draw per day);
* ``path/to/paths.jsonl`` — a released dataset, replayed through
  :class:`repro.io.replay.ReplaySession`;
* a directory or glob — expanded to its ``*.jsonl`` files in sorted
  (= chronological, for date-stamped names) order.

Labels are derived from the spec alone, before any loading, because
they name the snapshots in the event stream: the label must be
identical on resume. Labels key nothing: a snapshot's banked rankings
are keyed by :meth:`SnapshotRef.content` — a world ref's built world,
a release ref's streamed sha256 — and :meth:`SnapshotRef.config`, so a
world regenerated or a release rewritten under the same label keys
fresh units.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.io.replay import ReplaySession
from repro.topology.catalog import WORLD_CHOICES, build_world

if TYPE_CHECKING:
    from repro.topology.world import World


class WatchError(ValueError):
    """Raised for unresolvable snapshot specs and invalid watch input."""


@dataclass(frozen=True, slots=True)
class SnapshotRef:
    """One snapshot in the stream, resolvable to rankings on demand."""

    label: str
    kind: str  # "world" | "release"
    spec: str  # the original user-supplied spec (for error messages)
    world: str | None = None  # catalog name, world refs only
    seed: int | None = None  # per-snapshot seed, world refs only
    path: str | None = None  # paths.jsonl location, release refs only

    def config(self, seed: int, trim: float) -> PipelineConfig:
        """The config this snapshot is ranked under: a world ref's
        pipeline config (its own seed, else ``seed``), or — for a
        release, which only ``trim`` reaches — the default config at
        ``trim``."""
        if self.kind == "world":
            return PipelineConfig(
                seed=self.seed if self.seed is not None else seed, trim=trim
            )
        return PipelineConfig(trim=trim)

    def content(self, config: PipelineConfig) -> "World | str":
        """What this snapshot's rankings are computed from: a world
        ref's world, built once at ``config.seed``, or the sha256 of a
        release file's bytes — streamed, so keying a release never
        loads it."""
        if self.kind == "world":
            return build_world(self.world, config.seed)
        digest = hashlib.sha256()
        with open(self.path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        return digest.hexdigest()

    def load(
        self,
        config: PipelineConfig,
        content: "World | str | None" = None,
        tracer=None,
    ):
        """Materialize the snapshot's ranking provider under its
        :meth:`config`.

        World refs run the full pipeline (under ``tracer`` so its
        stages appear as spans of the surrounding watch.load span) on
        ``content`` — the world already built to key the snapshot —
        or on a freshly built one; release refs open a
        :class:`ReplaySession` over the file.
        """
        if self.kind == "world":
            world = content if content is not None else self.content(config)
            return run_pipeline(world, config, tracer=tracer)
        return ReplaySession.from_file(self.path, trim=config.trim)


def _world_ref(spec: str) -> SnapshotRef | None:
    """Parse ``name`` / ``name@seed`` against the world catalog."""
    name, sep, seed_text = spec.partition("@")
    if name not in WORLD_CHOICES:
        return None
    seed: int | None = None
    if sep:
        try:
            seed = int(seed_text)
        except ValueError:
            raise WatchError(
                f"snapshot {spec!r}: seed {seed_text!r} is not an integer"
            ) from None
        if seed < 0:
            raise WatchError(f"snapshot {spec!r}: seed must be >= 0")
    label = name if seed is None else f"{name}@{seed}"
    return SnapshotRef(label=label, kind="world", spec=spec, world=name, seed=seed)


def _release_refs(spec: str) -> list[SnapshotRef]:
    """Expand a file / directory / glob spec to release refs."""
    path = Path(spec)
    if path.is_file():
        files = [path]
    elif path.is_dir():
        files = sorted(path.glob("*.jsonl"))
        if not files:
            raise WatchError(f"snapshot {spec!r}: directory has no *.jsonl files")
    elif any(ch in spec for ch in "*?["):
        files = sorted(path.parent.glob(path.name))
        files = [f for f in files if f.is_file()]
        if not files:
            raise WatchError(f"snapshot {spec!r}: glob matched no files")
    else:
        raise WatchError(
            f"snapshot {spec!r}: not a known world "
            f"({', '.join(WORLD_CHOICES)}), file, directory, or glob"
        )
    return [
        SnapshotRef(label=f.stem, kind="release", spec=spec, path=str(f))
        for f in files
    ]


def resolve_snapshots(specs: Iterable[str]) -> list[SnapshotRef]:
    """Resolve specs, in order, into a stream of snapshot refs.

    Labels must be unique — the stream, the checkpoint units, and the
    drift before/after identifiers all key on them. Duplicate labels
    (e.g. two directories both containing ``day1.jsonl``) fall back to
    their full path, and a collision after that is an error.
    """
    refs: list[SnapshotRef] = []
    for spec in specs:
        spec = spec.strip()
        if not spec:
            raise WatchError("empty snapshot spec")
        world = _world_ref(spec)
        refs.extend([world] if world is not None else _release_refs(spec))
    if len(refs) < 2:
        raise WatchError(
            f"need at least 2 snapshots to watch for drift (got {len(refs)})"
        )
    labels = [ref.label for ref in refs]
    if len(set(labels)) != len(labels):
        relabelled: list[SnapshotRef] = []
        for ref in refs:
            if labels.count(ref.label) > 1 and ref.path is not None:
                relabelled.append(SnapshotRef(
                    label=ref.path, kind=ref.kind, spec=ref.spec, path=ref.path,
                ))
            else:
                relabelled.append(ref)
        refs = relabelled
        labels = [ref.label for ref in refs]
        if len(set(labels)) != len(labels):
            duplicate = next(l for l in labels if labels.count(l) > 1)
            raise WatchError(f"duplicate snapshot label {duplicate!r}")
    return refs
