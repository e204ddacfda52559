"""Country and continent registry.

The paper's regional analysis (Table 12) groups countries by continent,
and its Figure 7 singles out former-Soviet-bloc countries that still
rely on Russian transit. We keep a small ISO-3166-like registry with
exactly the attributes those analyses need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, overload

#: Continent identifiers used by Table 12, in the paper's column order.
CONTINENTS: tuple[str, ...] = (
    "North America",
    "South America",
    "Europe",
    "Africa",
    "Asia",
    "Oceania",
)


@overload
def normalize_country(code: str) -> str: ...
@overload
def normalize_country(code: None) -> None: ...
def normalize_country(code: str | None) -> str | None:
    """The canonical form of a country-code argument (or ``None``).

    Every layer that accepts a country — the CLI, the daemon, the
    ranking sessions — funnels through this, so ``"au"``, ``" AU "`` and
    ``"AU"`` name the same ranking everywhere. Membership is checked
    where the known countries are (``World.country_code``, a release's
    observed countries); this only canonicalises the spelling.
    """
    if code is None:
        return None
    return code.strip().upper()


@dataclass(frozen=True, slots=True)
class Country:
    """A country (or territory) that address space can geolocate to."""

    code: str
    name: str
    continent: str
    former_soviet: bool = False

    def __post_init__(self) -> None:
        if len(self.code) != 2 or not self.code.isupper():
            raise ValueError(f"country code must be two uppercase letters: {self.code!r}")
        if self.continent not in CONTINENTS:
            raise ValueError(f"unknown continent {self.continent!r} for {self.code}")

    def __str__(self) -> str:
        return self.code


class CountryRegistry:
    """Lookup table of countries keyed by two-letter code."""

    def __init__(self, countries: Iterable[Country] = ()) -> None:
        self._by_code: dict[str, Country] = {}
        for country in countries:
            self.add(country)

    def add(self, country: Country) -> Country:
        """Register a country; rejects duplicate codes."""
        if country.code in self._by_code:
            raise ValueError(f"duplicate country code {country.code}")
        self._by_code[country.code] = country
        return country

    def get(self, code: str) -> Country:
        """The country for ``code``; raises ``KeyError`` when unknown."""
        return self._by_code[code]

    def maybe(self, code: str) -> Country | None:
        """The country for ``code`` or ``None``."""
        return self._by_code.get(code)

    def codes(self) -> list[str]:
        """All registered codes, sorted."""
        return sorted(self._by_code)

    def by_continent(self, continent: str) -> list[Country]:
        """Countries on one continent, sorted by code."""
        if continent not in CONTINENTS:
            raise ValueError(f"unknown continent {continent!r}")
        return sorted(
            (c for c in self._by_code.values() if c.continent == continent),
            key=lambda c: c.code,
        )

    def former_soviet(self) -> list[Country]:
        """Countries tagged as former Soviet bloc (Figure 7)."""
        return sorted(
            (c for c in self._by_code.values() if c.former_soviet),
            key=lambda c: c.code,
        )

    def __contains__(self, code: str) -> bool:
        return code in self._by_code

    def __len__(self) -> int:
        return len(self._by_code)

    def __iter__(self) -> Iterator[Country]:
        return iter(sorted(self._by_code.values(), key=lambda c: c.code))


_DEFAULT_COUNTRIES: tuple[tuple[str, str, str, bool], ...] = (
    # North America
    ("US", "United States", "North America", False),
    ("CA", "Canada", "North America", False),
    ("MX", "Mexico", "North America", False),
    ("PA", "Panama", "North America", False),
    ("CR", "Costa Rica", "North America", False),
    ("GT", "Guatemala", "North America", False),
    # South America
    ("BR", "Brazil", "South America", False),
    ("AR", "Argentina", "South America", False),
    ("CL", "Chile", "South America", False),
    ("CO", "Colombia", "South America", False),
    ("PE", "Peru", "South America", False),
    ("EC", "Ecuador", "South America", False),
    # Europe
    ("NL", "Netherlands", "Europe", False),
    ("GB", "United Kingdom", "Europe", False),
    ("DE", "Germany", "Europe", False),
    ("FR", "France", "Europe", False),
    ("IT", "Italy", "Europe", False),
    ("ES", "Spain", "Europe", False),
    ("SE", "Sweden", "Europe", False),
    ("CH", "Switzerland", "Europe", False),
    ("AT", "Austria", "Europe", False),
    ("PL", "Poland", "Europe", False),
    ("PT", "Portugal", "Europe", False),
    ("GR", "Greece", "Europe", False),
    ("NO", "Norway", "Europe", False),
    ("FI", "Finland", "Europe", False),
    ("RU", "Russia", "Europe", True),
    ("UA", "Ukraine", "Europe", True),
    ("BY", "Belarus", "Europe", True),
    ("EE", "Estonia", "Europe", True),
    ("LV", "Latvia", "Europe", True),
    ("LT", "Lithuania", "Europe", True),
    ("MD", "Moldova", "Europe", True),
    ("HR", "Croatia", "Europe", False),
    ("GG", "Guernsey", "Europe", False),
    # Africa
    ("ZA", "South Africa", "Africa", False),
    ("KE", "Kenya", "Africa", False),
    ("UG", "Uganda", "Africa", False),
    ("NG", "Nigeria", "Africa", False),
    ("MA", "Morocco", "Africa", False),
    ("CI", "Ivory Coast", "Africa", False),
    ("TN", "Tunisia", "Africa", False),
    ("EG", "Egypt", "Africa", False),
    ("MU", "Mauritius", "Africa", False),
    ("NA", "Namibia", "Africa", False),
    ("GH", "Ghana", "Africa", False),
    ("TZ", "Tanzania", "Africa", False),
    # Asia
    ("JP", "Japan", "Asia", False),
    ("CN", "China", "Asia", False),
    ("TW", "Taiwan", "Asia", False),
    ("KR", "South Korea", "Asia", False),
    ("SG", "Singapore", "Asia", False),
    ("IN", "India", "Asia", False),
    ("ID", "Indonesia", "Asia", False),
    ("TH", "Thailand", "Asia", False),
    ("MY", "Malaysia", "Asia", False),
    ("PH", "Philippines", "Asia", False),
    ("VN", "Vietnam", "Asia", False),
    ("HK", "Hong Kong", "Asia", False),
    ("AF", "Afghanistan", "Asia", False),
    ("KZ", "Kazakhstan", "Asia", True),
    ("KG", "Kyrgyzstan", "Asia", True),
    ("TJ", "Tajikistan", "Asia", True),
    ("TM", "Turkmenistan", "Asia", True),
    ("UZ", "Uzbekistan", "Asia", True),
    ("AM", "Armenia", "Asia", True),
    ("GE", "Georgia", "Asia", True),
    ("AZ", "Azerbaijan", "Asia", True),
    # Oceania
    ("AU", "Australia", "Oceania", False),
    ("NZ", "New Zealand", "Oceania", False),
    ("FJ", "Fiji", "Oceania", False),
    ("PG", "Papua New Guinea", "Oceania", False),
    ("NC", "New Caledonia", "Oceania", False),
    ("WS", "Samoa", "Oceania", False),
)


def default_registry() -> CountryRegistry:
    """The registry used by the generated and curated worlds."""
    return CountryRegistry(
        Country(code, name, continent, former_soviet)
        for code, name, continent, former_soviet in _DEFAULT_COUNTRIES
    )
