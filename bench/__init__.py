"""The repository's benchmark: named workloads run outside-in against
the ``repro`` package of this checkout. See ``bench/README.md``."""
