"""Geolocation substrate: address database, prefix geolocation, VP geolocation."""

from repro.geo.database import GeoDatabase
from repro.geo.prefix_geo import (
    AddressTable,
    GeolocationStats,
    PrefixGeolocation,
    address_table,
    geolocate_prefixes,
)
from repro.geo.vp_geo import VPGeolocator

__all__ = [
    "AddressTable",
    "GeoDatabase",
    "GeolocationStats",
    "PrefixGeolocation",
    "VPGeolocator",
    "address_table",
    "geolocate_prefixes",
]
