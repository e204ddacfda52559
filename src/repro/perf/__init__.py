"""repro.perf — the batch ranking engine under the pipeline.

Three layers, designed to compose (see DESIGN.md §4):

* :mod:`repro.perf.index` — :class:`PathIndex` buckets sanitized
  records so views are O(selected) lookups; :class:`ViewSlicer` does
  the same for VP-downsampled trial views.
* :mod:`repro.perf.cache` — :class:`SuffixCache` and
  :class:`ViewComputation` memoise the intermediates the metric
  families share (transit suffixes, cones, hegemony tables, address
  totals), with hit/miss observability counters.
* :mod:`repro.perf.hegemony` — the columnar hegemony kernel: AH* and
  AHC tables straight from the store's columns, bit-identical to
  :func:`repro.core.hegemony.hegemony_scores`.
* :mod:`repro.perf.parallel` — deterministic process fan-out for
  propagation origins and stability trials (``workers=1`` stays the
  byte-identical serial path).
* :mod:`repro.perf.pool` — :class:`WorkerPool`, the persistent
  process pool under both fan-outs, with ship-once broadcast of heavy
  shared state (zero-copy under ``fork``).
* :mod:`repro.perf.pathstore` — :class:`PathStore`, the
  structure-of-arrays mirror of the sanitized records (flat interned
  token arrays) feeding the suffix bulk-prime, the index's origin
  buckets and the hegemony kernel.
* :mod:`repro.perf.spill` — the out-of-core variant:
  :class:`MmapPathStore` maps the same columns read-only from disk
  (written append-only by streaming ingestion), so worlds far larger
  than RAM rank with bounded RSS and byte-identical results.

The pipeline (:class:`repro.core.pipeline.PipelineResult`) wires all
three together; ``rank_all`` / ``repro-rank sweep`` are the batch entry
points.
"""

from repro.perf.cache import SuffixCache, ViewComputation
from repro.perf.index import PathIndex, ViewSlicer
from repro.perf.parallel import chunked, propagate_origins, stability_trials
from repro.perf.pathstore import PathStore
from repro.perf.pool import WorkerPool, broadcast_get
from repro.perf.spill import MmapPathStore, open_spill, sanitize_to_store

__all__ = [
    "MmapPathStore",
    "PathIndex",
    "PathStore",
    "SuffixCache",
    "ViewComputation",
    "ViewSlicer",
    "WorkerPool",
    "broadcast_get",
    "chunked",
    "open_spill",
    "propagate_origins",
    "sanitize_to_store",
    "stability_trials",
]
