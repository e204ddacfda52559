"""Reference implementations that the production kernels are held to.

Each module spells one family out as its definition, record by record,
with no columns, caches or indexes:

* :mod:`tests.oracles.cone` — Luckie et al.'s observed-path customer
  cone and its address closure (CCG, CCI, CCN);
* :mod:`tests.oracles.hegemony` — Fontugne et al.'s trimmed mean of
  per-VP betweenness (AHG, AHI, AHN), local hegemony and IHR's AHC;
* :mod:`tests.oracles.cti` — Gamero-Garrido et al.'s per-VP transit
  influence (CTI);
* :mod:`tests.oracles.views` — the Table 2 views as full scans of the
  records;
* :mod:`tests.oracles.propagation` — the per-origin three-phase
  Gao–Rexford sweep;
* :mod:`tests.oracles.prefixes` — a radix trie over prefixes and the
  §3.2.1 split into owned blocks.

``tests/oracles/test_matrix.py`` holds every production product to its
oracle, by the rows of ``tests/oracles/matrix.py``;
``tests/oracles/inputs.py`` builds the records and stores the matrix
and the kernel tests share.
"""
