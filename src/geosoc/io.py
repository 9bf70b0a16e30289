"""File formats: location/edge TSVs, check-in ingestion, and JSON-lines
community output.

Locations are serialized with 17 significant digits so a write/read round
trip reproduces every float64 bit-exactly.
"""

from __future__ import annotations

import enum
import json
import math
from datetime import datetime, timezone
from typing import Iterable, Mapping, Sequence

from .baseline import min_enclosing_circle
from .model import (
    Community,
    DuplicateId,
    GeoPoint,
    GeoSocError,
    euclidean_distance,
)

EARTH_RADIUS_M = 6371000.0


class ParseError(GeoSocError):
    """A line of an input file could not be parsed."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class CheckinPolicy(enum.Enum):
    LATEST = "latest"
    MEAN = "mean"


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield line_no, line


def load_locations(path) -> list[GeoPoint]:
    """Parse `id<TAB>x<TAB>y` lines; `#` starts a comment line."""
    points: list[GeoPoint] = []
    seen: set[int] = set()
    for line_no, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(path, line_no, f"expected 3 tab-separated fields, got {len(parts)}")
        try:
            pid = int(parts[0])
            x = float(parts[1])
            y = float(parts[2])
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(path, line_no, "coordinates must be finite")
        if pid in seen:
            raise DuplicateId(f"{path}:{line_no}: duplicate point id {pid}")
        seen.add(pid)
        points.append(GeoPoint(pid, x, y))
    return points


def write_locations(points: Iterable[GeoPoint], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# id\tx\ty\n")
        for p in points:
            fh.write(f"{p.id}\t{p.x:.17g}\t{p.y:.17g}\n")


def load_edges(path) -> list[tuple[int, int]]:
    """Parse `u<TAB>v` lines; validation happens in build_network."""
    edges: list[tuple[int, int]] = []
    for line_no, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(path, line_no, f"expected 2 tab-separated fields, got {len(parts)}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
    return edges


def write_edges(edges: Iterable[tuple[int, int]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# u\tv\n")
        for u, v in edges:
            fh.write(f"{u}\t{v}\n")


def _stamp_seconds(stamp: str) -> float:
    """Seconds since the Unix epoch of a check-in timestamp given as epoch
    seconds or as ISO-8601, where a trailing Z or no offset means UTC."""
    try:
        seconds = float(stamp)
    except ValueError:
        try:  # fromisoformat takes no Z before Python 3.11
            when = datetime.fromisoformat(stamp[:-1] + "+00:00" if stamp.endswith("Z") else stamp)
        except ValueError:
            raise ValueError(f"timestamp {stamp!r} is neither epoch seconds nor ISO-8601") from None
        return (when if when.tzinfo else when.replace(tzinfo=timezone.utc)).timestamp()
    if not math.isfinite(seconds):
        raise ValueError(f"timestamp {stamp!r} is not finite")
    return seconds


def _unwrap_longitudes(lons: set[float]):
    """The map putting each longitude in one 360-degree window cut in the
    middle of the widest circular gap between `lons` (the first ascending on
    a tie), so the cut depends on the set, not the line order; the identity
    where all lie in [-180, 180) and none is wider than the gap across +-180."""
    ring = sorted({(lon + 180.0) % 360.0 - 180.0 for lon in lons})
    widest, cut = ring[0] + 360.0 - ring[-1], 180.0
    for a, b in zip(ring, ring[1:]):
        if b - a > widest:
            widest, cut = b - a, (a + b) / 2
    if cut == 180.0 and all(-180.0 <= lon < 180.0 for lon in lons):
        return lambda lon: lon
    return lambda lon: cut - 360.0 + (lon - cut) % 360.0


def load_checkins(path, policy: CheckinPolicy = CheckinPolicy.LATEST) -> list[GeoPoint]:
    """One point per user from `user<TAB>timestamp<TAB>lat<TAB>lon[<TAB>loc]`.

    The chosen position is either the latest check-in's or the coordinate
    mean, then all positions are projected to planar meters with an
    equirectangular projection about the dataset centroid:
    x = R * (lon - lon0) * cos(lat0), y = R * (lat - lat0), R = 6371 km.
    Longitudes first go into one 360-degree window (_unwrap_longitudes), so
    users on both sides of the antimeridian project next to each other.
    The latest check-in is the one with the greatest instant (see
    _stamp_seconds), the later line on a tie; the mean policy ignores
    timestamps.
    """
    latest: dict[int, tuple[float, float, float]] = {}
    checkins: dict[int, list[tuple[float, float]]] = {}
    for line_no, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) < 4:
            raise ParseError(path, line_no, f"expected at least 4 tab-separated fields, got {len(parts)}")
        try:
            user = int(parts[0])
            lat = float(parts[2])
            lon = float(parts[3])
            stamp = _stamp_seconds(parts[1]) if policy is CheckinPolicy.LATEST else None
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise ParseError(path, line_no, "coordinates must be finite")
        if policy is CheckinPolicy.LATEST:
            prev = latest.get(user)
            if prev is None or stamp >= prev[0]:
                latest[user] = (stamp, lat, lon)
        else:
            checkins.setdefault(user, []).append((lat, lon))

    if policy is CheckinPolicy.LATEST:
        checkins = {u: [(lat, lon)] for u, (_, lat, lon) in latest.items()}
    if not checkins:
        return []
    unwrap = _unwrap_longitudes({lon for seen in checkins.values() for _, lon in seen})
    per_user = {}
    for u, seen in checkins.items():
        slat = slon = -0.0  # the identity of +: one check-in keeps its bits
        for lat, lon in seen:
            slat, slon = slat + lat, slon + unwrap(lon)
        per_user[u] = (slat / len(seen), slon / len(seen))
    lat0 = sum(lat for lat, _ in per_user.values()) / len(per_user)
    lon0 = sum(lon for _, lon in per_user.values()) / len(per_user)
    cos0 = math.cos(math.radians(lat0))
    points = []
    for user in sorted(per_user):
        lat, lon = per_user[user]
        x = EARTH_RADIUS_M * math.radians(lon - lon0) * cos0
        y = EARTH_RADIUS_M * math.radians(lat - lat0)
        points.append(GeoPoint(user, x, y))
    return points


def _diameter(points: Sequence[GeoPoint]) -> float:
    best = 0.0
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            best = max(best, euclidean_distance(a, b))
    return best


def write_communities(
    communities: Iterable[Community],
    points: Mapping[int, GeoPoint],
    meta: Mapping[str, object],
    path,
) -> None:
    """One JSON object per community, lines sorted by member list.

    Each line carries the member ids, constraint, algorithm label and
    distance threshold, plus the realized diameter and smallest enclosing
    circle radius so distance guarantees can be audited from the file
    alone.
    """
    records = []
    for c in sorted(communities, key=lambda c: c.members):
        member_points = [points[m] for m in c.members]
        center, radius = min_enclosing_circle(member_points)
        obj: dict[str, object] = {
            "members": list(c.members),
            "k": c.k,
            "social": c.social_kind.value,
            "algo": meta["algo"],
            "d": meta["d"],
            "diameter": _diameter(member_points),
            "mec_radius": radius,
        }
        for key in sorted(meta):
            if key not in obj:
                obj[key] = meta[key]
        records.append(json.dumps(obj, separators=(", ", ": ")))
    with open(path, "w", encoding="utf-8") as fh:
        for line in records:
            fh.write(line + "\n")


def write_clusters(clusters, meta: Mapping[str, object], path) -> None:
    """JSON-lines output for raw spatial clusters (stage 1 only)."""
    records = []
    for c in sorted(clusters, key=lambda c: c.members):
        obj = {
            "members": list(c.members),
            "reference": c.reference,
            "kind": c.kind.value,
            "algo": meta["algo"],
            "d": meta["d"],
        }
        records.append(json.dumps(obj, separators=(", ", ": ")))
    with open(path, "w", encoding="utf-8") as fh:
        for line in records:
            fh.write(line + "\n")
