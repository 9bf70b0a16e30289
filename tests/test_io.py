import itertools
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geosoc.io import (
    CheckinPolicy,
    EARTH_RADIUS_M,
    ParseError,
    load_checkins,
    load_edges,
    load_locations,
    write_communities,
    write_locations,
)
from geosoc.model import Community, DuplicateId, GeoPoint, SocialKind


def test_load_locations_basic(tmp_path):
    path = tmp_path / "loc.tsv"
    path.write_text("0\t1.5\t2.5\n", encoding="utf-8")
    assert load_locations(path) == [GeoPoint(0, 1.5, 2.5)]


def test_load_locations_skips_comments(tmp_path):
    path = tmp_path / "loc.tsv"
    path.write_text("# header\n1\t0\t0\n\n2\t1\t1\n", encoding="utf-8")
    assert [p.id for p in load_locations(path)] == [1, 2]


def test_load_locations_parse_error_carries_line(tmp_path):
    path = tmp_path / "loc.tsv"
    path.write_text("0\tx\t2\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_locations(path)
    assert err.value.line_no == 1


def test_load_locations_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "loc.tsv"
    path.write_text("0\t1\t1\n0\t2\t2\n", encoding="utf-8")
    with pytest.raises(DuplicateId):
        load_locations(path)


def test_load_locations_wrong_field_count(tmp_path):
    path = tmp_path / "loc.tsv"
    path.write_text("0\t1\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_locations(path)


@given(
    st.lists(
        st.floats(min_value=-1e8, max_value=1e8, allow_nan=False),
        min_size=0,
        max_size=30,
    )
)
def test_locations_round_trip_bit_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("rt") / "loc.tsv"
    pts = [GeoPoint(i, v, -v / 3 if v else 0.0) for i, v in enumerate(values)]
    write_locations(pts, path)
    back = load_locations(path)
    assert back == pts


def test_load_edges(tmp_path):
    path = tmp_path / "e.tsv"
    path.write_text("1\t2\n1\t1\n# c\n", encoding="utf-8")
    assert load_edges(path) == [(1, 2), (1, 1)]


def test_load_edges_malformed(tmp_path):
    path = tmp_path / "e.tsv"
    path.write_text("1\ttwo\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_edges(path)


CHECKINS = (
    "7\t2010-10-19T23:55:27Z\t30.26\t-97.74\t22847\n"
    "7\t2010-10-18T22:17:43Z\t30.27\t-97.75\t420315\n"
    "9\t2010-10-12T00:21:28Z\t40.64\t-73.78\t23261\n"
)


def test_load_checkins_latest_policy(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text(CHECKINS, encoding="utf-8")
    pts = load_checkins(path, CheckinPolicy.LATEST)
    assert [p.id for p in pts] == [7, 9]
    # user 7 keeps the 10-19 position: lat 30.26 -> y below/above centroid
    lat0 = (30.26 + 40.64) / 2
    want_y = EARTH_RADIUS_M * math.radians(30.26 - lat0)
    assert pts[0].y == pytest.approx(want_y, rel=1e-12)


def _latest_lat(tmp_path, lines):
    """Latitude the latest policy keeps for user 1, given check-in lines
    (user, stamp, lat); user 2 at latitude 0 anchors the centroid."""
    path = tmp_path / "c.tsv"
    path.write_text("".join(f"{u}\t{t}\t{lat}\t0\n" for u, t, lat in lines) + "2\t0\t0\t0\n")
    p1 = load_checkins(path, CheckinPolicy.LATEST)[0]
    # y1 = R * (lat1 - lat0) with lat0 = lat1 / 2
    return 2 * math.degrees(p1.y / EARTH_RADIUS_M)


def test_load_checkins_latest_compares_epoch_seconds_as_numbers(tmp_path):
    # as strings "999" > "1000"
    assert _latest_lat(tmp_path, [(1, "1000", 10.0), (1, "999", 20.0)]) == pytest.approx(10.0)
    assert _latest_lat(tmp_path, [(1, "999", 20.0), (1, "1000.5", 10.0)]) == pytest.approx(10.0)


def test_load_checkins_latest_compares_instants_across_offsets(tmp_path):
    # 2010-10-20T01:00:00+02:00 is 2010-10-19T23:00:00Z, before 23:55:27Z
    lines = [(1, "2010-10-19T23:55:27Z", 10.0), (1, "2010-10-20T01:00:00+02:00", 20.0)]
    assert _latest_lat(tmp_path, lines) == pytest.approx(10.0)
    # a stamp without an offset is UTC; the same instant twice: the later line wins
    lines = [(1, "2010-10-19T23:55:27", 20.0), (1, "2010-10-20T01:55:27+02:00", 10.0)]
    assert _latest_lat(tmp_path, lines) == pytest.approx(10.0)
    # epoch seconds and ISO-8601 in one file
    lines = [(1, "1287532528", 10.0), (1, "2010-10-19T23:55:27Z", 20.0)]
    assert _latest_lat(tmp_path, lines) == pytest.approx(10.0)


def test_load_checkins_unparseable_stamp(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("1\t2010-10-19T23:55:27Z\t0\t0\n1\tyesterday\t1\t1\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_checkins(path, CheckinPolicy.LATEST)
    assert err.value.line_no == 2


def test_load_checkins_mean_policy(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text(
        "1\t2010-01-01T00:00:00Z\t0\t0\t1\n1\t2010-01-02T00:00:00Z\t2\t2\t2\n",
        encoding="utf-8",
    )
    pts = load_checkins(path, CheckinPolicy.MEAN)
    # single user: the mean position (1, 1) is itself the centroid
    assert pts[0].x == pytest.approx(0.0, abs=1e-9)
    assert pts[0].y == pytest.approx(0.0, abs=1e-9)


def test_checkin_centroid_projects_to_origin(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("5\t2010-01-01T00:00:00Z\t12.5\t-33.25\t0\n", encoding="utf-8")
    pts = load_checkins(path)
    assert pts == [GeoPoint(5, 0.0, 0.0)]


@pytest.mark.parametrize("first, second", [(179.9999, -179.9999), (-179.9999, 179.9999)])
def test_load_checkins_across_the_antimeridian(tmp_path, first, second):
    # 0.0002 degrees of longitude apart at 10 degrees N: about 22 m
    path = tmp_path / "c.tsv"
    path.write_text(f"1\t0\t10\t{first}\n2\t0\t10\t{second}\n", encoding="utf-8")
    a, b = load_checkins(path)
    want = EARTH_RADIUS_M * math.radians(0.0002) * math.cos(math.radians(10.0))
    assert abs(a.x - b.x) == pytest.approx(want, rel=1e-6)
    assert a.y == b.y == 0.0


def test_load_checkins_seam_ignores_line_order(tmp_path):
    # anchored on the first line's longitude (Austin), a seam would fall at 82.3 E,
    # between users 2 and 3; the widest gap puts it in the Pacific for every order
    lines = ["1\t0\t30.27\t-97.7\n", "2\t0\t26.8\t82.2\n", "3\t0\t26.8\t82.4\n"]
    path = tmp_path / "c.tsv"
    runs = []
    for order in itertools.permutations(lines):
        path.write_text("".join(order), encoding="utf-8")
        runs.append(load_checkins(path))
    # the same points up to the centroid's rounding, which sums users in line order
    flat = [[v for p in run for v in (p.id, p.x, p.y)] for run in runs]
    assert all(run == pytest.approx(flat[0], abs=1e-6) for run in flat)
    _, b, c = runs[0]
    lat0 = (30.27 + 26.8 + 26.8) / 3
    want = EARTH_RADIUS_M * math.radians(0.2) * math.cos(math.radians(lat0))
    assert abs(b.x - c.x) == pytest.approx(want, rel=1e-6)


def test_load_checkins_mean_across_the_antimeridian(tmp_path):
    # user 1 checks in on both sides of +-180: its mean lies at 180, 0.2 degrees from user 2
    path = tmp_path / "c.tsv"
    lines = ["3\t0\t0\t0\n", "1\t0\t0\t179.9\n", "2\t0\t0\t179.8\n", "1\t0\t0\t-179.9\n"]
    path.write_text("".join(lines), encoding="utf-8")
    a, b, _ = load_checkins(path, CheckinPolicy.MEAN)
    assert a.x - b.x == pytest.approx(EARTH_RADIUS_M * math.radians(0.2), rel=1e-6)


def test_load_checkins_keeps_a_seam_in_the_widest_gap(tmp_path):
    # world-wide users whose widest longitude gap is the Pacific: no longitude moves
    coords = [(30.27, -97.7), (40.64, -73.8), (51.5, -0.1), (48.86, 2.35), (52.5, 13.4),
              (41.0, 28.9), (25.2, 55.3), (28.6, 77.2), (1.35, 103.8), (39.9, 116.4),
              (35.7, 139.7), (-33.9, 151.2)]  # fmt: skip
    path = tmp_path / "c.tsv"
    path.write_text("".join(f"{u}\t0\t{lat}\t{lon}\n" for u, (lat, lon) in enumerate(coords)))
    lat0 = sum(lat for lat, _ in coords) / len(coords)
    lon0 = sum(lon for _, lon in coords) / len(coords)
    cos0 = math.cos(math.radians(lat0))
    r = EARTH_RADIUS_M
    want = [
        GeoPoint(u, r * math.radians(lon - lon0) * cos0, r * math.radians(lat - lat0))
        for u, (lat, lon) in enumerate(coords)
    ]
    assert load_checkins(path) == want


def test_load_checkins_malformed(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("5\t2010-01-01\tnorth\t0\t0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_checkins(path)


def test_write_communities_empty(tmp_path):
    out = tmp_path / "c.jsonl"
    write_communities([], {}, {"algo": "exact-r12", "d": 4.0}, out)
    assert out.read_text(encoding="utf-8") == ""


def test_write_communities_example_network(tmp_path):
    from geosoc.framework import DetectionConfig, SpatialAlgo, detect_mccs
    from geosoc.model import Params
    from helpers import EXAMPLE_D, example_network

    net = example_network()
    out = tmp_path / "mccs.jsonl"
    cfg = DetectionConfig(params=Params(d=EXAMPLE_D, k=2))
    write_communities(
        detect_mccs(net, cfg), net.point_map, {"algo": "exact-r12", "d": EXAMPLE_D}, out
    )
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert [json.loads(l)["members"] for l in lines] == [[0, 1, 2, 3], [8, 9, 10, 11]]


def test_write_communities_approx_diameter_bound(tmp_path):
    from geosoc.framework import DetectionConfig, SpatialAlgo, detect_mccs
    from geosoc.model import Params
    from helpers import random_network

    net = random_network(23, 80)
    d = 25.0
    cfg = DetectionConfig(params=Params(d=d, k=2), spatial_algo=SpatialAlgo.APPROX)
    out = tmp_path / "approx.jsonl"
    write_communities(
        detect_mccs(net, cfg), net.point_map, {"algo": "approx", "d": d, "bound": "sqrt2"}, out
    )
    lines = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert lines
    for obj in lines:
        assert obj["diameter"] <= math.sqrt(2) * d + 1e-9
        assert obj["bound"] == "sqrt2"


def test_write_communities_fields_and_order(tmp_path):
    pts = {i: GeoPoint(i, float(i), 0.0) for i in range(6)}
    comms = [
        Community.from_members([3, 4, 5], 2, SocialKind.CORE),
        Community.from_members([0, 1, 2], 2, SocialKind.CORE),
    ]
    out = tmp_path / "c.jsonl"
    write_communities(comms, pts, {"algo": "exact-r12", "d": 4.0}, out)
    lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [tuple(obj["members"]) for obj in lines] == [(0, 1, 2), (3, 4, 5)]
    first = lines[0]
    assert first["k"] == 2
    assert first["social"] == "core"
    assert first["algo"] == "exact-r12"
    assert first["d"] == 4.0
    assert first["diameter"] == pytest.approx(2.0)
    assert first["mec_radius"] == pytest.approx(1.0)
