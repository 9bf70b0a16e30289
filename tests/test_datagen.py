import pytest

from geosoc.datagen import (
    Distribution,
    GenSpec,
    InvalidSpec,
    attach_social_edges,
    generate,
)
from geosoc.model import build_network
from geosoc.spatial_index import build_grid, range_query_disk


def test_side_from_density():
    spec = GenSpec(n=4, density=1.0)
    assert spec.side == 2.0
    pts = generate(spec)
    assert len(pts) == 4
    assert all(0 <= p.x <= 2 and 0 <= p.y <= 2 for p in pts)


def test_ids_are_consecutive():
    pts = generate(GenSpec(n=50, density=0.01, seed=3))
    assert [p.id for p in pts] == list(range(50))


def test_same_seed_same_output():
    spec = GenSpec(n=200, density=0.008, distribution=Distribution.GAUSSIAN, seed=42)
    assert generate(spec) == generate(spec)


def test_different_seeds_differ():
    a = generate(GenSpec(n=50, density=0.01, seed=1))
    b = generate(GenSpec(n=50, density=0.01, seed=2))
    assert a != b


def test_empirical_density_is_exact_by_construction():
    spec = GenSpec(n=10_000, density=0.008, seed=7)
    pts = generate(spec)
    area = spec.side**2
    assert len(pts) / area == pytest.approx(0.008, rel=1e-12)
    assert all(0 <= p.x <= spec.side and 0 <= p.y <= spec.side for p in pts)


def test_gaussian_points_stay_in_square():
    spec = GenSpec(n=5000, density=0.008, distribution=Distribution.GAUSSIAN, seed=9)
    pts = generate(spec)
    assert len(pts) == 5000
    assert all(0 <= p.x <= spec.side and 0 <= p.y <= spec.side for p in pts)


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        GenSpec(n=0, density=1.0)
    with pytest.raises(InvalidSpec):
        GenSpec(n=10, density=0.0)
    with pytest.raises(InvalidSpec):
        GenSpec(n=10, density=1.0, n_centers=0)


def _locality(points, d):
    grid = build_grid(points, d)
    counts = [len(range_query_disk(grid, p, d)) - 1 for p in points]
    avg = sum(counts) / len(counts)
    return max(counts) / avg if avg > 0 else float("inf")


def test_gaussian_has_higher_locality_than_uniform():
    d = 30.0
    wins = 0
    for seed in range(10):
        uni = _locality(generate(GenSpec(10_000, 0.008, Distribution.UNIFORM, seed=seed)), d)
        gau = _locality(generate(GenSpec(10_000, 0.008, Distribution.GAUSSIAN, seed=seed)), d)
        if gau > uni:
            wins += 1
    assert wins == 10


def test_attach_social_edges_shape_and_determinism():
    pts = generate(GenSpec(n=100, density=0.01, seed=5))
    edges = attach_social_edges(pts, m_nearest=3, n_random=20, seed=5)
    assert edges == attach_social_edges(pts, m_nearest=3, n_random=20, seed=5)
    assert edges == sorted(edges)
    net = build_network(pts, edges)
    # each vertex reaches at least its m nearest neighbors
    assert all(len(net.neighbors(p.id)) >= 1 for p in pts)
    assert all(u != v for u, v in edges)


def test_attach_social_edges_tiny_inputs():
    pts = generate(GenSpec(n=1, density=1.0, seed=0))
    assert attach_social_edges(pts, m_nearest=3, n_random=5, seed=0) == []


@pytest.mark.parametrize("m_nearest, n_random", [(-1, 0), (3, -1)])
def test_attach_social_edges_rejects_negative_counts(m_nearest, n_random):
    pts = generate(GenSpec(n=10, density=0.01, seed=0))
    with pytest.raises(ValueError, match="non-negative"):
        attach_social_edges(pts, m_nearest=m_nearest, n_random=n_random)
