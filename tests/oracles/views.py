"""The Table 2 views by definition (paper §3.2): each a full scan that
tests every record of a path set.

* **national** — in-country VPs to in-country prefixes;
* **international** — out-of-country VPs to in-country prefixes;
* **outbound** — in-country VPs to out-of-country prefixes (the §7
  future-work direction);
* **global** — every record;
* **destination** — every VP toward the prefixes of given origin ASes
  (AHC's selector: registration country, not geolocation).

:class:`repro.perf.index.PathIndex` bucket lookups are held to these:
same names, countries, stores and positions.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.sanitize import PathRecord, PathSet
from repro.core.views import View


def _scan(
    paths: PathSet,
    name: str,
    country: str | None,
    keep: Callable[[PathRecord], bool],
) -> View:
    positions = [
        position for position, record in enumerate(paths.records)
        if keep(record)
    ]
    return View(name, country, paths.store(), positions)


def national_view(paths: PathSet, country: str) -> View:
    return _scan(
        paths, f"national:{country}", country,
        lambda r: r.vp_country == country and r.prefix_country == country,
    )


def international_view(paths: PathSet, country: str) -> View:
    return _scan(
        paths, f"international:{country}", country,
        lambda r: r.vp_country != country and r.prefix_country == country,
    )


def outbound_view(paths: PathSet, country: str) -> View:
    return _scan(
        paths, f"outbound:{country}", country,
        lambda r: r.vp_country == country and r.prefix_country != country,
    )


def global_view(paths: PathSet) -> View:
    return _scan(paths, "global", None, lambda r: True)


def destination_view(paths: PathSet, origins: Iterable[int]) -> View:
    wanted = frozenset(origins)
    return _scan(
        paths, f"destination:{len(wanted)}ases", None,
        lambda r: r.origin in wanted,
    )


#: view kind → its builder (``global`` takes no country)
BUILDERS = {
    "national": national_view,
    "international": international_view,
    "outbound": outbound_view,
}
