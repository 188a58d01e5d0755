"""Tests for the level-set front tracker: signed distances, the shrinking
circle against its closed-form radius, stationary flat fronts, the area
decay law, and redistancing behaviour."""
import math

import numpy as np
import pytest

from haptolab.curves import circle_polyline, extract_level_curve
from haptolab.diffuse import HaptoParams
from haptolab.errors import (
    BoundaryContactError,
    InterfaceExtinct,
    InvalidCurveError,
)
from haptolab.grid import Grid, ScalarField
from haptolab.kernel import ChiSpec
from haptolab.sharp import (
    SharpState,
    _clamp,
    curvature_term,
    init_levelset,
    redistance,
    run_sharp,
    signed_distance_to_loop,
    step_sharp,
)


def circle_state(n=128, r=0.25, d0=0.04, v0=1.0):
    grid = Grid.unit_square(n)
    curve = circle_polyline((0.5, 0.5), r, n=2048)
    v = ScalarField.full(grid, v0)
    m = ScalarField.full(grid, 0.0)
    return init_levelset(curve, grid, v, m, d0=d0)


def fitted_radius(curve) -> float:
    c = curve.points.mean(axis=0)
    return float(np.hypot(*(curve.points - c).T).mean())


mcf = HaptoParams(eps=0.05, lam=1.0, alpha=1.0, chi=ChiSpec.constant())


class TestInit:
    def test_circle_signed_distance(self):
        s = circle_state(n=128, r=0.25)
        grid = s.phi.grid
        X, Y = grid.meshgrid()
        exact = _clamp(np.hypot(X - 0.5, Y - 0.5) - 0.25, s.d0)
        assert np.abs(s.phi.values - exact).max() < 1e-3 * grid.h

    def test_eikonal_in_band(self):
        s = circle_state(n=128)
        grid = s.phi.grid
        gx, gy = np.gradient(s.phi.values, grid.h, grid.h)
        band = np.abs(s.phi.values) < 1.5 * s.d0
        mag = np.hypot(gx, gy)[band]
        assert 0.95 < mag.min() and mag.max() < 1.05

    def test_self_intersection_rejected(self):
        grid = Grid.unit_square(32)
        bowtie = np.array([[0.3, 0.3], [0.7, 0.7], [0.3, 0.7], [0.7, 0.3]])
        from haptolab.curves import InterfaceCurve
        with pytest.raises(InvalidCurveError):
            signed_distance_to_loop(InterfaceCurve(bowtie, level=0.0), grid)

    def test_clamp_properties(self):
        d0 = 0.04
        x = np.linspace(-0.5, 0.5, 2001)
        c = _clamp(x, d0)
        inner = np.abs(x) <= 2 * d0
        np.testing.assert_allclose(c[inner], x[inner], atol=1e-15)
        assert np.abs(c).max() <= 3 * d0 + 1e-12
        assert np.all(np.diff(c) >= -1e-12)


class TestMotion:
    def test_shrinking_circle_radius_law(self):
        # curvature flow: R(t)^2 = R0^2 - 2t
        s = circle_state(n=128, r=0.25)
        t_end = 0.01
        snaps = run_sharp(s, mcf, t_end, snapshot_times=(0.005,))
        for snap in snaps[1:]:
            r_exact = math.sqrt(0.25**2 - 2 * snap.t)
            r_num = fitted_radius(snap.interface())
            assert abs(r_num - r_exact) < 2.5 * s.phi.grid.h

    def test_area_decay_rate(self):
        # for any convex curve under curvature flow, dA/dt = -2 pi
        s = circle_state(n=128, r=0.22)
        snaps = run_sharp(s, mcf, 0.004)
        a0 = abs(snaps[0].interface().area())
        a1 = abs(snaps[-1].interface().area())
        rate = (a1 - a0) / (snaps[-1].t - snaps[0].t)
        assert abs(rate + 2 * math.pi) < 0.01 * 2 * math.pi

    def test_flat_front_stationary_without_drift(self):
        # a straight interface has zero curvature; with constant chi the
        # front must not move at all
        grid = Grid.unit_square(64)
        phi = ScalarField.from_function(grid, lambda x, y: y - 0.5)
        phi = ScalarField(grid, _clamp(phi.values, 0.06))
        s = SharpState(phi, ScalarField.full(grid, 1.0),
                       ScalarField.full(grid, 0.0),
                       ScalarField.full(grid, 0.0), 0.0,
                       ScalarField.full(grid, 1.0), 0.06)
        before = s.phi.values.copy()
        for _ in range(50):
            s = step_sharp(s, mcf, grid.h**2 / 8, None)
        assert np.abs(s.phi.values - before).max() < 1e-8

    def test_haptotaxis_translates_front(self):
        # linear chi with a matrix gradient pushes the front toward larger v
        grid = Grid.unit_square(96)
        s0 = circle_state(n=96, r=0.2)
        s0.v = ScalarField.from_function(grid, lambda x, y: 1.0 + 0.5 * x)
        s0.v_init = s0.v.copy()
        p = HaptoParams(eps=0.05, lam=1e-8, alpha=1.0, chi=ChiSpec.identity())
        snaps = run_sharp(s0, p, 0.004)
        c0 = snaps[0].interface().points.mean(axis=0)
        c1 = snaps[-1].interface().points.mean(axis=0)
        assert c1[0] - c0[0] > 5e-4
        assert abs(c1[1] - c0[1]) < 2e-4

    def test_extinction_detected(self):
        s = circle_state(n=64, r=0.06, d0=0.03)
        with pytest.raises(InterfaceExtinct):
            run_sharp(s, mcf, 0.01)

    def test_boundary_contact_detected(self):
        grid = Grid.unit_square(64)
        curve = circle_polyline((0.5, 0.5), 0.33, n=1024)
        s = init_levelset(curve, grid, ScalarField.full(grid, 2.0),
                          ScalarField.full(grid, 0.0), d0=0.05)
        with pytest.raises(BoundaryContactError):
            run_sharp(s, mcf, 0.001, wall_margin=0.2)


class TestRedistance:
    def test_idempotent_on_signed_distance(self):
        s = circle_state(n=128, r=0.25)
        r = redistance(s)
        assert np.abs(r.phi.values - s.phi.values).max() < 0.2 * s.phi.grid.h

    def test_front_position_preserved(self):
        # redistancing must not move the zero contour
        s = circle_state(n=128, r=0.25)
        s.phi = ScalarField(s.phi.grid, 1.7 * s.phi.values)  # break eikonal
        r = redistance(s)
        assert abs(fitted_radius(r.interface()) - 0.25) < 0.1 * s.phi.grid.h
        gx, gy = np.gradient(r.phi.values, s.phi.grid.h)
        band = np.abs(r.phi.values) < 1.5 * s.d0
        mag = np.hypot(gx, gy)[band]
        assert 0.9 < mag.min() and mag.max() < 1.1

    def test_every_loop_kept(self):
        # two disjoint fronts: the far field near each one must come from
        # the distance to that one, not to the longer loop
        grid = Grid.unit_square(128)
        X, Y = grid.meshgrid()
        circles = (((0.3, 0.3), 0.12), ((0.7, 0.7), 0.1))
        dists = [np.hypot(X - cx, Y - cy) - r for (cx, cy), r in circles]
        d0 = 0.04
        phi = ScalarField(grid, _clamp(np.minimum(*dists), d0))
        one = ScalarField.full(grid, 1.0)
        zero = ScalarField.full(grid, 0.0)
        s = SharpState(phi, one, zero, zero, 0.0, one, d0)
        assert s.interface().n_components == 2
        r = redistance(s)
        for d in dists:
            near = np.abs(d) < 0.08
            assert np.abs(r.phi.values - phi.values)[near].max() <= 1e-3

    def test_output_clamped(self):
        s = circle_state(n=64, r=0.2, d0=0.03)
        r = redistance(s)
        assert np.abs(r.phi.values).max() <= 3 * s.d0 + 1e-12

    def test_curvature_of_circle(self):
        s = circle_state(n=256, r=0.25)
        grid = s.phi.grid
        band = np.abs(s.phi.values) < 1.0 * s.d0
        k = curvature_term(s.phi, band)
        X, Y = grid.meshgrid()
        rr = np.hypot(X - 0.5, Y - 0.5)
        exact = 1.0 / rr  # times |grad phi| = 1
        err = np.abs(k[band] - exact[band]).max()
        assert err < 0.05
