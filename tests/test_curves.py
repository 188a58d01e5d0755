import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haptolab.curves import (
    InterfaceCurve,
    _point_segment_distances,
    circle_polyline,
    crossing_number_inside,
    distance_to_curve,
    extract_level_curve,
    one_sided_sup_distance,
    signed_distance_to_loop,
    write_curve,
)
from haptolab.errors import EmptyLevelSetError
from haptolab.grid import Grid, ScalarField, interpolate_bilinear


def hausdorff(a, b, seg_step):
    return max(one_sided_sup_distance(a, b, seg_step),
               one_sided_sup_distance(b, a, seg_step))


def circle_field(n, R, center=(0.5, 0.5)):
    g = Grid.unit_square(n)
    return ScalarField.from_function(
        g, lambda x, y: (x - center[0]) ** 2 + (y - center[1]) ** 2 - R**2
    )


class TestExtraction:
    def test_circle_vertices_near_circle(self):
        R = 0.3
        f = circle_field(64, R)
        c = extract_level_curve(f, 0.0)
        r = np.linalg.norm(c.points - 0.5, axis=1)
        assert np.abs(r - R).max() < f.grid.h
        assert c.n_components == 1
        assert len(c.points) >= 8

    def test_vertices_interpolate_to_level(self):
        f = circle_field(48, 0.27)
        c = extract_level_curve(f, 0.0)
        vals = interpolate_bilinear(f, c.points)
        assert np.abs(vals).max() <= 1e-9

    def test_affine_field_gives_collinear_chain(self):
        g = Grid.unit_square(32)
        f = ScalarField.from_function(g, lambda x, y: x + 0.5 * y)
        with pytest.raises(EmptyLevelSetError):
            # an open chain never closes into a loop
            extract_level_curve(f, 0.8)

    def test_two_components_reported(self):
        g = Grid.unit_square(96)
        f = ScalarField.from_function(
            g,
            lambda x, y: np.minimum(
                (x - 0.3) ** 2 + (y - 0.5) ** 2 - 0.12**2,
                (x - 0.72) ** 2 + (y - 0.5) ** 2 - 0.1**2,
            ),
        )
        c = extract_level_curve(f, 0.0)
        assert c.n_components == 2

    def test_empty_level_raises(self):
        f = circle_field(32, 0.3)
        with pytest.raises(EmptyLevelSetError):
            extract_level_curve(f, 10.0)

    def test_curve_is_simple(self):
        c = extract_level_curve(circle_field(48, 0.31), 0.0)
        assert c.is_simple()


class TestDistances:
    def test_identical_curves_zero(self):
        c = circle_polyline((0.5, 0.5), 0.3, 256)
        assert one_sided_sup_distance(c, c, seg_step=0.01) == 0.0
        assert hausdorff(c, c, seg_step=0.01) == 0.0

    def test_concentric_circles(self):
        a = circle_polyline((0.5, 0.5), 0.2, 2048)
        b = circle_polyline((0.5, 0.5), 0.25, 2048)
        d = hausdorff(a, b, seg_step=1e-3)
        assert d == pytest.approx(0.05, rel=0.02)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(9)
        a = circle_polyline(rng.uniform(0.4, 0.6, 2), 0.2, 300)
        b = circle_polyline(rng.uniform(0.4, 0.6, 2), 0.27, 300)
        assert hausdorff(a, b, seg_step=0.01) == hausdorff(b, a, seg_step=0.01)

    def test_triangle_inequality_random_triples(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            curves = [
                circle_polyline(rng.uniform(0.35, 0.65, 2),
                                rng.uniform(0.1, 0.3), 400)
                for _ in range(3)
            ]
            dab = hausdorff(curves[0], curves[1], seg_step=5e-3)
            dbc = hausdorff(curves[1], curves[2], seg_step=5e-3)
            dac = hausdorff(curves[0], curves[2], seg_step=5e-3)
            assert dac <= dab + dbc + 1e-12

    def test_kdtree_path_matches_bruteforce(self):
        rng = np.random.default_rng(21)
        c = circle_polyline((0.5, 0.5), 0.3, 500)
        pts = rng.uniform(0.1, 0.9, size=(200, 2))
        fast = distance_to_curve(pts, c)
        exact = np.abs(np.linalg.norm(pts - 0.5, axis=1) - 0.3)
        assert np.abs(fast - exact).max() < 1e-5


TWO_CIRCLES = (((0.3, 0.5), 0.12), ((0.72, 0.5), 0.1))


@pytest.fixture(scope="module")
def two_fronts():
    """The two-circle front at n = 96, the front of its first circle, and
    the exact signed distance to the pair."""
    g = Grid.unit_square(96)
    X, Y = g.meshgrid()
    d = [np.hypot(X - cx, Y - cy) - r for (cx, cy), r in TWO_CIRCLES]
    two = extract_level_curve(ScalarField(g, np.minimum(*d)), 0.0)
    one = extract_level_curve(ScalarField(g, d[0]), 0.0)
    assert (two.n_components, one.n_components) == (2, 1)
    return two, one, np.minimum(*d)


class TestEveryLoop:
    def test_segments_close_each_loop(self, two_fronts):
        two, _, _ = two_fronts
        a, b = two.segments()
        start = 0
        for loop in (two.points, *two.extras):
            end = start + len(loop)
            np.testing.assert_array_equal(a[start:end], loop)
            np.testing.assert_array_equal(b[end - 1], loop[0])
            start = end
        assert start == len(a)

    def test_hausdorff_sees_a_lost_component(self, two_fronts):
        # the far side of the second circle lies 0.52 - 0.12 = 0.4 from the
        # first circle
        two, one, _ = two_fronts
        h = 1 / 96
        assert hausdorff(two, one, 0.5 * h) == pytest.approx(0.4, abs=2e-3)
        assert one_sided_sup_distance(one, two, 0.5 * h) < 2e-3

    def test_distance_matches_bruteforce(self, two_fronts):
        two, _, _ = two_fronts
        pts = np.random.default_rng(5).uniform(0.0, 1.0, size=(400, 2))
        np.testing.assert_allclose(
            distance_to_curve(pts, two),
            _point_segment_distances(pts, *two.segments()), rtol=0,
            atol=1e-12)

    def test_area_and_length_sum_the_loops(self, two_fronts):
        two, _, _ = two_fronts
        area = np.pi * sum(r**2 for _, r in TWO_CIRCLES)
        length = 2 * np.pi * sum(r for _, r in TWO_CIRCLES)
        assert abs(abs(two.area()) - area) < 5e-3 * area
        assert abs(two.length() - length) < 5e-3 * length

    def test_signed_distance_to_every_loop(self, two_fronts):
        two, _, exact = two_fronts
        sd = signed_distance_to_loop(two, Grid.unit_square(96))
        assert np.abs(sd.values - exact).max() < 1e-3

    def test_inside_test_covers_every_loop(self, two_fronts):
        two, _, _ = two_fronts
        pts = np.array([[0.3, 0.5], [0.72, 0.5], [0.51, 0.5], [0.9, 0.9]])
        assert crossing_number_inside(pts, two).tolist() == [
            True, True, False, False]


SEMICIRCLE = np.linspace(0.0, 1.0, 200).tolist()


@settings(max_examples=60, deadline=None)
@given(
    fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=300,
                       unique=True),
    span=st.floats(0.3, 2 * np.pi),
    radius=st.floats(0.05, 0.4),
    center=st.tuples(st.floats(0.3, 0.7), st.floats(0.2, 0.7)),
    queries=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                     min_size=1, max_size=40),
)
@example(fractions=SEMICIRCLE, span=np.pi, radius=0.3, center=(0.5, 0.2),
         queries=[(0.5, 0.24)])
def test_distance_matches_bruteforce_on_uneven_arcs(fractions, span, radius,
                                                    center, queries):
    # an arc with uneven vertex spacing, closed by its chord: the chord is
    # one long segment whose end vertices can both be far from a point
    # that lies next to it
    th = span * np.sort(fractions)
    c = InterfaceCurve(np.stack([center[0] + radius * np.cos(th),
                                 center[1] + radius * np.sin(th)], axis=1))
    pts = np.array(queries)
    a, b = c.segments()
    np.testing.assert_allclose(distance_to_curve(pts, c),
                               _point_segment_distances(pts, a, b),
                               rtol=0, atol=1e-12)


def test_crossing_number_circle():
    c = circle_polyline((0.5, 0.5), 0.3, 600)
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, size=(500, 2))
    inside = crossing_number_inside(pts, c)
    truth = np.linalg.norm(pts - 0.5, axis=1) < 0.3
    # points almost on the polyline may flip either way
    margin = np.abs(np.linalg.norm(pts - 0.5, axis=1) - 0.3) > 1e-3
    assert np.array_equal(inside[margin], truth[margin])


@pytest.mark.parametrize("field, exact", [
    # an annulus 0.15 < r < 0.3: both loops turn the same way
    (lambda X, Y, r: np.abs(r - 0.225) - 0.075,
     np.pi * (0.3**2 - 0.15**2)),
    # the annulus 0.2 < r < 0.3 with an island r < 0.1 in its hole
    (lambda X, Y, r: np.minimum(np.abs(r - 0.25) - 0.05, r - 0.1),
     np.pi * (0.3**2 - 0.2**2 + 0.1**2)),
    # two blobs
    (lambda X, Y, r: np.minimum(np.hypot(X - 0.3, Y - 0.5) - 0.12,
                                np.hypot(X - 0.72, Y - 0.5) - 0.1),
     np.pi * (0.12**2 + 0.1**2)),
], ids=["annulus", "island-in-annulus", "two-blobs"])
def test_area_counts_holes_by_even_odd(field, exact):
    g = Grid.unit_square(128)
    X, Y = g.meshgrid()
    c = extract_level_curve(
        ScalarField(g, field(X, Y, np.hypot(X - 0.5, Y - 0.5))), 0.0)
    assert c.n_components > 1
    assert abs(c.area() - exact) < 2 * g.h**2


def test_area_and_roundtrip(tmp_path):
    c = circle_polyline((0.5, 0.5), 0.25, 2000)
    assert abs(abs(c.area()) - np.pi * 0.25**2) < 1e-5
    write_curve(tmp_path / "c.csv", c)
    data = np.loadtxt(tmp_path / "c.csv", delimiter=",", skiprows=1)
    assert np.allclose(data[0], data[-1])
    assert len(data) == len(c.points) + 1


def inside_oracle(points, curve):
    """Even-odd count of every point against every segment, with the
    crossing abscissa computed in the scan's order of operations."""
    a, b = curve.segments()
    px, py = points[:, :1], points[:, 1:]
    ay, by = a[:, 1], b[:, 1]
    straddle = (ay <= py) != (by <= py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = a[:, 0] + (py - ay) / (by - ay) * (b[:, 0] - a[:, 0])
    return (straddle & (xint > px)).sum(axis=1) % 2 == 1


def simple_oracle(curve):
    """The orientation test on every pair of segments."""
    a, b = curve.segments()
    d = b - a
    for i in range(len(a)):
        r, s = d[i], d[i + 1:]
        qp = a[i + 1:] - a[i]
        denom = r[0] * s[:, 1] - r[1] * s[:, 0]
        u_num = qp[:, 0] * r[1] - qp[:, 1] * r[0]
        t_num = qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t, u = t_num / denom, u_num / denom
        if np.any((np.abs(denom) > 1e-300) & (t > 0) & (t < 1)
                  & (u > 0) & (u < 1)):
            return False
    return True


@st.composite
def uneven_loop(draw, sort_angles=True):
    """A loop of 3 to 40 vertices at uneven angles and radii about a random
    center; with unsorted angles it usually crosses itself."""
    fractions = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                              min_size=3, max_size=40, unique=True))
    th = 2 * np.pi * (np.sort(fractions) if sort_angles
                      else np.array(fractions))
    r = np.array(draw(st.lists(st.floats(0.05, 0.3), min_size=len(th),
                               max_size=len(th))))
    cx, cy = draw(st.floats(0.3, 0.7)), draw(st.floats(0.3, 0.7))
    return np.stack([cx + r * np.cos(th), cy + r * np.sin(th)], axis=1)


@settings(max_examples=100, deadline=None)
@given(loops=st.lists(uneven_loop(), min_size=1, max_size=2),
       n=st.integers(8, 48),
       xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
def test_inside_scan_matches_all_pairs_oracle(loops, n, xs):
    # cell centers share rows; points at vertex heights meet segment ends
    c = InterfaceCurve(loops[0], extras=loops[1:])
    X, Y = Grid.unit_square(n).meshgrid()
    vy = np.concatenate(loops)[:, 1]
    pts = np.concatenate([
        np.stack([X.ravel(), Y.ravel()], axis=1),
        np.stack(np.broadcast_arrays(np.array(xs)[:, None], vy), axis=-1)
        .reshape(-1, 2),
        np.concatenate(loops),
    ])
    assert np.array_equal(crossing_number_inside(pts, c),
                          inside_oracle(pts, c))


# loop 2 crosses the last segment of loop 1 with its first segment and the
# first segment of loop 1 with its last: the two pairs at adjacent indices
# of the concatenated segments that are no neighbours
ACROSS_THE_SEAM = [[(0.2, 0.2), (0.6, 0.2), (0.6, 0.6), (0.2, 0.6)],
                   [(0.19, 0.0), (0.21, 0.5), (0.4, 0.55), (0.5, 0.5)]]


@settings(max_examples=100, deadline=None)
@given(loops=st.lists(st.one_of(uneven_loop(), uneven_loop(False)),
                      min_size=1, max_size=2))
@example(loops=[np.array(p) for p in ACROSS_THE_SEAM])
def test_is_simple_matches_all_pairs_oracle(loops):
    # one loop, star-shaped or self-crossing; two loops apart or crossing
    c = InterfaceCurve(loops[0], extras=loops[1:])
    assert c.is_simple() == simple_oracle(c)


def test_is_simple_memory_bounded_by_long_segment():
    # a semicircle of 2,000 vertices closed by its chord: pairing every
    # midpoint within the chord's length would hold ~n^2/2 candidate pairs
    th = np.linspace(0.0, np.pi, 2000)
    c = InterfaceCurve(np.stack([0.5 + 0.3 * np.cos(th),
                                 0.2 + 0.3 * np.sin(th)], axis=1))
    tracemalloc.start()
    try:
        simple = c.is_simple()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert simple
    assert peak < 20e6
