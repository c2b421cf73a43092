"""Geographic coordinates and great-circle distances."""

from __future__ import annotations

import math
from dataclasses import dataclass

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class GeoPoint:
    """A latitude/longitude pair in degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in kilometres."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


#: Cities used by the paper's unit case and by synthetic worldwide
#: populations.  The first two are the physical campuses of Figure 2.
WORLD_CITIES = {
    "hkust_cwb": GeoPoint(22.3364, 114.2655),   # HKUST Clear Water Bay
    "hkust_gz": GeoPoint(22.8855, 113.5364),    # HKUST Guangzhou (Nansha)
    "kaist": GeoPoint(36.3721, 127.3604),       # Daejeon, South Korea
    "mit": GeoPoint(42.3601, -71.0942),         # Cambridge MA, USA
    "cambridge_uk": GeoPoint(52.2053, 0.1218),  # Cambridge, UK
    "tokyo": GeoPoint(35.6762, 139.6503),
    "singapore": GeoPoint(1.3521, 103.8198),
    "sydney": GeoPoint(-33.8688, 151.2093),
    "london": GeoPoint(51.5074, -0.1278),
    "paris": GeoPoint(48.8566, 2.3522),
    "berlin": GeoPoint(52.5200, 13.4050),
    "new_york": GeoPoint(40.7128, -74.0060),
    "san_francisco": GeoPoint(37.7749, -122.4194),
    "toronto": GeoPoint(43.6532, -79.3832),
    "sao_paulo": GeoPoint(-23.5505, -46.6333),
    "mumbai": GeoPoint(19.0760, 72.8777),
    "nairobi": GeoPoint(-1.2921, 36.8219),
    "dubai": GeoPoint(25.2048, 55.2708),
    "beijing": GeoPoint(39.9042, 116.4074),
    "seoul": GeoPoint(37.5665, 126.9780),
}


#: Region label per city, used by the peering model and regional servers.
CITY_REGIONS = {
    "hkust_cwb": "east_asia",
    "hkust_gz": "east_asia",
    "kaist": "east_asia",
    "tokyo": "east_asia",
    "beijing": "east_asia",
    "seoul": "east_asia",
    "singapore": "southeast_asia",
    "sydney": "oceania",
    "mumbai": "south_asia",
    "dubai": "middle_east",
    "london": "europe",
    "paris": "europe",
    "berlin": "europe",
    "cambridge_uk": "europe",
    "mit": "north_america",
    "new_york": "north_america",
    "san_francisco": "north_america",
    "toronto": "north_america",
    "sao_paulo": "south_america",
    "nairobi": "africa",
}
