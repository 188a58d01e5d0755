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
    hausdorff,
    one_sided_sup_distance,
    write_curve,
)
from haptolab.errors import EmptyLevelSetError
from haptolab.grid import Grid, ScalarField, interpolate_bilinear
from haptolab.sharp import signed_distance_to_loop


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
        assert hausdorff(two, one) == pytest.approx(0.4, abs=2e-3)
        assert one_sided_sup_distance(one, two) < 2e-3

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
        sd = signed_distance_to_loop(two, two.grid)
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


def test_area_and_roundtrip(tmp_path):
    c = circle_polyline((0.5, 0.5), 0.25, 2000)
    assert abs(abs(c.area()) - np.pi * 0.25**2) < 1e-5
    write_curve(tmp_path / "c.csv", c)
    data = np.loadtxt(tmp_path / "c.csv", delimiter=",", skiprows=1)
    assert np.allclose(data[0], data[-1])
    assert len(data) == len(c.points) + 1
