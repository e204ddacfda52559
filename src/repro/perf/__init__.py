"""repro.perf — the batch ranking engine under the pipeline.

Three layers, designed to compose (see DESIGN.md §4):

* :mod:`repro.perf.index` — :class:`PathIndex` buckets sanitized
  record positions so views are O(selected) lookups: a view is its
  store plus the merged positions of the selected buckets.
* :mod:`repro.perf.cache` — :class:`ViewComputation`, each view's
  memoised intermediates shared by the metric families (cones, address
  totals, CTI and hegemony tables), with hit/miss observability
  counters: the one path every ranking takes.
* :mod:`repro.perf.cone` — the columnar cone and CTI kernel: interned
  transit suffixes, CC* closure totals and CTI tables straight from
  the store's columns, bit-identical to :mod:`repro.core.cone` and
  :func:`repro.core.cti.cti_scores`.
* :mod:`repro.perf.hegemony` — the columnar hegemony kernel: AH* and
  AHC tables straight from the store's columns, bit-identical to
  :func:`repro.core.hegemony.hegemony_scores`.
* :mod:`repro.perf.pool` — :class:`WorkerPool`, a pool handle that
  starts no process: the engine runs serially in one process, and the
  handle only keeps callers that still pass ``pool`` working.
* :mod:`repro.perf.pathstore` — :class:`PathStore`, the
  structure-of-arrays form of the sanitized records (flat interned
  token arrays, filled by the one ``ColumnBuilder``) feeding the
  index's pair buckets, the views and the cone, CTI and hegemony
  kernels; records are a façade rebuilt from its columns on access.
* :mod:`repro.perf.spill` — the out-of-core variant:
  :class:`MmapPathStore` maps the same columns read-only from disk
  (written append-only by streaming ingestion), so worlds far larger
  than RAM rank with bounded RSS and byte-identical results.

The pipeline (:class:`repro.core.pipeline.PipelineResult`) wires all
three together; ``rank_all`` / ``repro-rank sweep`` are the batch entry
points.
"""

from repro.perf.cache import ViewComputation
from repro.perf.index import PathIndex
from repro.perf.pathstore import PathStore
from repro.perf.pool import WorkerPool
from repro.perf.spill import MmapPathStore, open_spill, sanitize_to_store

__all__ = [
    "MmapPathStore",
    "PathIndex",
    "PathStore",
    "ViewComputation",
    "WorkerPool",
    "open_spill",
    "sanitize_to_store",
]
