"""Tests for the level-set front tracker: signed distances, the shrinking
circle against its closed-form radius, stationary flat fronts, the area
decay law, the RKL2 step's stability and order, redistancing behaviour,
and the band-only stencils against the full-grid formulas."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import binary_dilation

from haptolab.curves import (
    InterfaceCurve,
    circle_polyline,
    distance_to_curve,
    signed_distance_to_loop,
)
from haptolab.diffuse import HaptoParams, advance_vm, advection_dt
from haptolab.errors import (
    BoundaryContactError,
    DegenerateLevelSetError,
    InterfaceExtinct,
    InvalidCurveError,
)
from haptolab.grid import Grid, ScalarField
from haptolab.kernel import ChiSpec
from haptolab.sharp import (
    STEP_STAGES,
    SharpState,
    _band_gradient_norm,
    _band_stencil,
    _clamp,
    _grow,
    _rkl2_reach,
    _rkl2_stages,
    _rkl2_step,
    _upwind_advection,
    _upwind_stencil,
    clamped_signed_distance,
    curvature_term,
    front_cells,
    init_levelset,
    redistance,
    run_sharp,
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


def band_curvature(phi, h, band):
    """curvature_term on the band cells, as step_sharp gathers them,
    scattered into a grid that is zero off the band."""
    p, nine = _band_stencil(phi, band)
    out = np.zeros_like(phi)
    out[band] = curvature_term(p.ravel()[nine], h)
    return out


def band_upwind(phi, w, h, band):
    """_upwind_advection on the band cells, as step_sharp gathers them,
    scattered into a grid that is zero off the band."""
    p, nine = _band_stencil(phi, band)
    up, a = _upwind_stencil(nine, w, band)
    out = np.zeros_like(phi)
    out[band] = _upwind_advection(p.ravel()[nine[0]], p.ravel()[up], a, h)
    return out


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
        bowtie = InterfaceCurve(np.array([[0.3, 0.3], [0.7, 0.7],
                                          [0.3, 0.7], [0.7, 0.3]]))
        one, zero = ScalarField.full(grid, 1.0), ScalarField.full(grid, 0.0)
        with pytest.raises(InvalidCurveError):
            signed_distance_to_loop(bowtie, grid)
        with pytest.raises(InvalidCurveError):
            init_levelset(bowtie, grid, one, zero)

    def test_saturated_cells_get_no_exact_distance(self, monkeypatch):
        # a circle of 2,048 vertices at n = 128, d0 = 0.04: the cells
        # handed to distance_to_curve lie within the saturation reach of a
        # vertex, and every other cell is clamped to +-3 d0
        import haptolab.sharp as sharp
        asked = []

        def counted(points, curve):
            asked.append(points)
            return distance_to_curve(points, curve)

        monkeypatch.setattr(sharp, "distance_to_curve", counted)
        grid, d0 = Grid.unit_square(128), 0.04
        curve = circle_polyline((0.5, 0.5), 0.25, n=2048)
        phi = clamped_signed_distance(curve, grid, d0).values
        (pts,) = asked
        a, b = curve.segments()
        reach = np.hypot(3 * d0, 0.5 * np.hypot(*(b - a).T).max())
        assert np.hypot(*(pts - 0.5).T).max() < 0.25 + reach + 1e-9
        assert len(pts) < 0.5 * phi.size
        assert np.sum(np.abs(phi) == 3 * d0) == phi.size - len(pts)

    def test_clamp_properties(self):
        d0 = 0.04
        x = np.linspace(-0.5, 0.5, 2001)
        c = _clamp(x, d0)
        inner = np.abs(x) <= 2 * d0
        np.testing.assert_allclose(c[inner], x[inner], atol=1e-15)
        assert np.abs(c).max() <= 3 * d0 + 1e-12
        assert np.all(np.diff(c) >= -1e-12)


@st.composite
def star_loops(draw):
    """One star polygon about (0.5, 0.5), or two disjoint ones about
    (0.28, 0.5) and (0.72, 0.5), each of 4 to 40 vertices at uneven angles
    and radii in [0.08, 0.21]; nx != ny, and d0 in [h, 0.1]. The two
    vertices of radius 0.18 that bound each loop's empty gap are more than
    3.3 d0 apart, so the segment across it is longer than 3 d0."""
    nx, ny = draw(st.lists(st.integers(16, 48), min_size=2, max_size=2,
                           unique=True))
    grid = Grid(nx, ny, 1.0 / min(nx, ny))
    d0 = draw(st.floats(grid.h, 0.1))
    gap = 2 * np.arcsin(3.3 * d0 / 0.36)
    gap = draw(st.floats(gap, max(gap, 0.9 * np.pi)))
    loops = []
    for cx in draw(st.sampled_from([(0.5,), (0.28, 0.72)])):
        # steps of at least 1/240 of the arc, and anchors at its thirds
        # that keep every step below pi: each loop is star-shaped about
        # its centre
        fractions = np.unique(np.r_[80, 160, draw(st.lists(
            st.integers(1, 239), max_size=36))]) / 240
        th = np.r_[gap, gap + (2 * np.pi - gap) * fractions, 2 * np.pi]
        r = np.r_[0.18, draw(st.lists(st.floats(0.08, 0.21),
                                      min_size=len(fractions),
                                      max_size=len(fractions))), 0.18]
        rot = draw(st.floats(0.0, 2 * np.pi))
        loops.append(np.stack([cx + r * np.cos(th + rot),
                               0.5 + r * np.sin(th + rot)], axis=1))
    return InterfaceCurve(loops[0], extras=loops[1:]), grid, d0


@settings(max_examples=150, deadline=None)
@given(case=star_loops())
def test_clamped_distance_matches_full_grid(case):
    # the L_max/2 term of the reach: a cell near the middle of the long
    # segment is within 3 d0 of it but farther than 3 d0 from both ends
    curve, grid, d0 = case
    a, b = curve.segments()
    assert np.hypot(*(b - a).T).max() > 3 * d0
    expected = _clamp(signed_distance_to_loop(curve, grid).values, d0)
    got = clamped_signed_distance(curve, grid, d0).values
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


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

    def test_step_without_drift_equals_zero_drift(self):
        s = circle_state(n=64, r=0.25)
        zero = np.zeros_like(s.phi.values)
        dt = s.phi.grid.h**2 / 6
        a = step_sharp(s, mcf, dt, None)
        b = step_sharp(s, mcf, dt, (zero, zero))
        for name in ("phi", "v", "m", "int_m"):
            assert np.array_equal(getattr(a, name).values,
                                  getattr(b, name).values)

    def test_haptotaxis_translates_front(self):
        # linear chi with a matrix gradient pushes the front toward larger v
        grid = Grid.unit_square(96)
        s0 = circle_state(n=96, r=0.2)
        s0.v = ScalarField.from_function(grid, lambda x, y: 1.0 + 0.5 * x)
        s0.v_init = s0.v
        p = HaptoParams(eps=0.05, lam=1e-8, alpha=1.0, chi=ChiSpec.identity())
        snaps = run_sharp(s0, p, 0.004)
        c0 = snaps[0].interface().points.mean(axis=0)
        c1 = snaps[-1].interface().points.mean(axis=0)
        assert c1[0] - c0[0] > 5e-4
        assert abs(c1[1] - c0[1]) < 2e-4

    def test_enzyme_source_is_the_inside_before_and_after(self):
        # the step moves the front across cells, so the two indicators differ
        s = circle_state(n=64, r=0.2)
        out = step_sharp(s, mcf, 3e-3, None)
        before, after = s.phi.values < 0, out.phi.values < 0
        assert np.any(before != after)
        expected = advance_vm(s.v_init, s.m, s.int_m, before.astype(float),
                              after.astype(float), mcf, 3e-3)
        for a, b in zip(expected, (out.v, out.m, out.int_m)):
            np.testing.assert_array_equal(a.values, b.values)

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
            run_sharp(s, mcf, 0.001)  # margin 4 d0 = 0.2


class TestStepBound:
    """run_sharp steps at the reach of 5 stages, 7 h^2/3; the curvature
    term's symbol lies in [0, 4/h^2], so 3 stages, stable to 1.25 h^2, are
    too few."""

    @staticmethod
    def checkerboard_growth(steps=10):
        # a 1e-6 h checkerboard on the band of a circle, stepped at the cap
        # beside its unperturbed twin: the factor by which their
        # difference grew on the cells at least three rings inside the
        # band at every step (a cell leaving the band keeps its value)
        s = circle_state(n=64, r=0.25)
        cap = _rkl2_reach(STEP_STAGES, s.phi.grid.h)
        h = s.phi.grid.h
        band = np.abs(s.phi.values) < 2.5 * s.d0
        i, j = np.indices(band.shape)
        twin = replace(s)
        twin.phi = ScalarField(s.phi.grid, s.phi.values + np.where(
            band, 1e-6 * h * (-1.0) ** (i + j), 0.0))
        inner = ~_grow(~band, 3)
        before = np.abs(twin.phi.values - s.phi.values)[inner].max()
        for _ in range(steps):
            s = step_sharp(s, mcf, cap, None, False)
            twin = step_sharp(twin, mcf, cap, None, False)
            inner &= ~_grow(np.abs(s.phi.values) >= 2.5 * s.d0, 3)
        return np.abs(twin.phi.values - s.phi.values)[inner].max() / before

    def test_checkerboard_decays_at_the_solver_step(self):
        assert self.checkerboard_growth() < 0.5

    def test_checkerboard_grows_past_the_bound(self, monkeypatch):
        # 3 stages at 7 h^2/3, two short of the 5 it needs at least
        import haptolab.sharp as sharp
        assert STEP_STAGES == 5
        monkeypatch.setattr(sharp, "_rkl2_stages", lambda dt, h: 3)
        assert self.checkerboard_growth() > 100

    def test_driftless_run_steps_at_the_cap(self, monkeypatch):
        import haptolab.sharp as sharp
        dts = []

        def counted(s, p, dt, w, **kw):
            dts.append(dt)
            return step_sharp(s, p, dt, w, **kw)

        monkeypatch.setattr(sharp, "step_sharp", counted)
        s0 = circle_state(n=64, r=0.25)
        cap = _rkl2_reach(STEP_STAGES, s0.phi.grid.h)
        run_sharp(s0, mcf, 7 * cap)
        assert dts == [cap] * 7


@pytest.mark.parametrize("n", [32, 64, 128, 200, 256, 512, 800])
def test_cap_takes_five_stages(n):
    # 7 * h**2 / 3 rounds above the stage rule's bound on most of these n
    # and would take 6 stages; the cap is the rule's own bound
    h = 1.0 / n
    assert _rkl2_stages(_rkl2_reach(STEP_STAGES, h), h) == 5


def amplification(z: np.ndarray, stages: int) -> np.ndarray:
    """R_s(z): one RKL2 step of y' = z y from y = 1 over dt = 1."""
    return _rkl2_step(np.ones_like(z), lambda y: z * y, 1.0, stages)


class TestRKL2:
    """The stage recurrence against its stability polynomial's properties,
    sampled densely (Meyer, Balsara and Aslam, JCP 257, 2014)."""

    def test_stable_on_its_real_interval(self):
        for s in range(2, 21):
            z = np.linspace(-(s * s + s - 2) / 2, 0.0, 20001)
            assert np.abs(amplification(z, s)).max() <= 1 + 1e-12, s

    def test_second_order(self):
        # R_s(z) - e^z = O(z^3): the error falls 1000-fold per decade of z
        for s in range(2, 21):
            z = np.array([-1e-2, -1e-3, 1e-2j, 1e-3j])
            err = np.abs(amplification(z, s) - np.exp(z))
            order = np.log10(err[[0, 2]] / err[[1, 3]])
            assert np.all((2.9 < order) & (order < 3.1)), (s, order)

    @staticmethod
    def joint_growth(a: float, fewer: int = 0) -> float:
        """max |R_s(z)| over the linearised symbols of run_sharp's step at
        h = 1 with max|w| = a: curvature in [-4, 0] plus first-order
        upwinding of w = a (cos th, sin th), every wavenumber, at
        dt = min(7/3, advection_dt), with the rule's stages minus `fewer`
        (2 at least)."""
        kappa = np.linspace(0.0, 4.0, 17)[:, None, None, None]
        k = np.linspace(-np.pi, np.pi, 17)
        kx, ky = k[None, :, None, None], k[None, None, :, None]
        th = np.linspace(0.0, np.pi / 2, 5)
        wx, wy = a * np.cos(th), a * np.sin(th)
        dt = min(_rkl2_reach(STEP_STAGES, 1.0), advection_dt(1.0, (wx, wy)))
        z = dt * (-kappa - wx * (1 - np.exp(1j * kx))
                  - wy * (1 - np.exp(1j * ky)))
        stages = max(_rkl2_stages(dt, 1.0) - fewer, 2)
        return np.abs(amplification(z, stages)).max()

    def test_joint_bound_with_drift(self):
        # stable unless h max|w| lies in [3/4, 0.774), where the top mode
        # grows by at most 4.13% a step (run_sharp's docstring)
        outside = np.r_[0.0, np.geomspace(1e-4, 0.7499, 40),
                        np.geomspace(0.7736, 100.0, 20)]
        assert max(self.joint_growth(a) for a in outside) <= 1 + 1e-12
        window = np.linspace(0.75, 0.7735, 12)
        growth = [self.joint_growth(a) for a in window]
        assert 1.04 < max(growth) <= 1.0413
        # the bound needs every stage of the rule
        assert max(self.joint_growth(a, fewer=1) for a in outside) > 1.5


def allocating_curvature(q, h):
    """curvature_term as one allocating expression per quantity: the
    oracle for the in-place version, operation for operation."""
    c, xp, xm, yp, ym, pp, pm, mp, mm = q
    px = (xp - xm) / (2 * h)
    py = (yp - ym) / (2 * h)
    pxx = (xp - 2 * c + xm) / h**2
    pyy = (yp - 2 * c + ym) / h**2
    pxy = (pp - pm - mp + mm) / (4 * h**2)
    g2 = px**2 + py**2
    if np.any(g2 < 1e-12):
        raise DegenerateLevelSetError("collapsed")
    num = pxx * py**2 - 2 * px * py * pxy + pyy * px**2
    lim = np.sqrt(g2) / h
    return np.clip(num / g2, -lim, lim)


def allocating_upwind(c, q_up, a, h):
    """_upwind_advection as one allocating expression: the oracle for the
    in-place version."""
    return (c - q_up[0]) / h * a[0] + (c - q_up[1]) / h * a[1]


def allocating_rkl2(y0, rate, dt, stages):
    """_rkl2_step as one allocating expression per stage: the oracle for
    the in-place version, operation for operation."""
    b = [1 / 3] * 3 + [(j * j + j - 2) / (2 * j * (j + 1))
                       for j in range(3, stages + 1)]
    w1 = 4 / (stages * stages + stages - 2)
    l0 = dt * rate(y0)
    prev, y = y0, y0 + b[1] * w1 * l0
    for j in range(2, stages + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        nu = -(j - 1) / j * b[j] / b[j - 2]
        prev, y = y, (mu * y + nu * prev + (1 - mu - nu) * y0
                      + mu * w1 * dt * rate(y) - (1 - b[j - 1]) * mu * w1 * l0)
    return y


class TestInPlace:
    """The in-place stage against the allocating formulas it replaced,
    bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
           h=st.sampled_from([1.0 / 256, 0.37, 1e-3]),
           flat=st.lists(st.integers(0, 39), max_size=3))
    def test_curvature_term(self, m, seed, h, flat):
        # 3x3 samples of random quadratics plus noise, in full precision
        # so that a reordered sum rounds differently, most of them below
        # the curvature cap; m = 0 is an empty band, and a column with
        # xp = xm and yp = ym is a degenerate cell, which must still raise
        rng = np.random.default_rng(seed)
        ox = h * np.array([0, 1, -1, 0, 0, 1, 1, -1, -1])[:, None]
        oy = h * np.array([0, 0, 0, 1, -1, 1, -1, 1, -1])[:, None]
        a, b, c, gx, gy, f = rng.uniform(-1.0, 1.0, (6, 1, m))
        q = (f + gx * ox + gy * oy + 4 * (a * ox**2 + b * ox * oy + c * oy**2)
             + rng.choice([0.0, 1e-3, 1.0]) * h**2 * rng.uniform(
                 -1.0, 1.0, (9, m)))
        for i in (i for i in flat if i < m):
            q[2, i], q[4, i] = q[1, i], q[3, i]
        try:
            expected = allocating_curvature(q, h)
        except DegenerateLevelSetError:
            with pytest.raises(DegenerateLevelSetError):
                curvature_term(q.copy(), h)
        else:
            np.testing.assert_array_equal(curvature_term(q.copy(), h),
                                          expected)

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
           h=st.sampled_from([1.0 / 256, 0.37, 1e-3]))
    def test_upwind_advection(self, m, seed, h):
        # q_up is scratch, as step_sharp's gather is; c and a are read only
        rng = np.random.default_rng(seed)
        c = rng.uniform(-1.0, 1.0, m)
        q_up = c + rng.choice([0.0, 1e-3, 1.0]) * rng.uniform(-1.0, 1.0,
                                                               (2, m))
        a = tuple(np.abs(rng.normal(size=(2, m))))
        expected = allocating_upwind(c, q_up, a, h)
        kept = c.copy(), a[0].copy(), a[1].copy()
        np.testing.assert_array_equal(_upwind_advection(c, q_up, a, h),
                                      expected)
        for x, y in zip(kept, (c, *a)):
            np.testing.assert_array_equal(x, y)

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(0, 30), seed=st.integers(0, 2**32 - 1),
           z=st.floats(-10.0, 0.0), dt=st.floats(1e-3, 1.0),
           stages=st.integers(2, 12))
    def test_rkl2_step(self, m, seed, z, dt, stages):
        y0 = np.random.default_rng(seed).uniform(-2.0, 2.0, m)
        # a nonlinear rate that returns one scratch array on every call,
        # as step_sharp's does
        scratch = np.empty_like(y0)

        def rate(y):
            out = np.multiply(y, z, out=scratch)
            out -= np.sin(y)
            return out

        expected = allocating_rkl2(y0, rate, dt, stages)
        before = y0.copy()
        np.testing.assert_array_equal(_rkl2_step(y0, rate, dt, stages),
                                      expected)
        np.testing.assert_array_equal(y0, before)

    def test_step_leaves_its_input_alone(self):
        # a stepped phi is a copy of the step's padded buffer's interior;
        # the next step must pad a copy of it, not write into it
        s = step_sharp(circle_state(n=64), mcf, 1e-4, None, False)
        assert s.phi.values.flags.c_contiguous
        assert s.phi.values.flags.owndata
        kept = s.phi.values.copy()
        t = step_sharp(s, mcf, 1e-4, None, False)
        np.testing.assert_array_equal(s.phi.values, kept)
        assert not np.array_equal(t.phi.values, kept)


class TestMarch:
    """run_sharp marches through the shared loop `march`."""

    def test_one_snapshot_per_distinct_mark(self):
        s0 = replace(circle_state(n=32, r=0.2), t=1e-4)
        # dt = 7 h^2/3 = 2.3e-3; a mark a hair past s0.t takes no step, and
        # the snapshot there must not move s0's own clock
        times = (6e-4, 0.0, 1e-4, 1e-4 + 5e-15, 6e-4, 3e-4)
        snaps = run_sharp(s0, mcf, 1.2e-3, snapshot_times=times)
        assert [s.t for s in snaps] == [1e-4, 1e-4 + 5e-15, 3e-4, 6e-4,
                                        1.2e-3]
        assert s0.t == 1e-4

    def test_t_end_before_start_rejected(self):
        s0 = replace(circle_state(n=32, r=0.2), t=1e-3)
        with pytest.raises(ValueError, match="t_end"):
            run_sharp(s0, mcf, 5e-4)


@settings(max_examples=200, deadline=None)
@given(mask=arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 12))),
       rings=st.integers(1, 4), wall_ring=st.booleans())
def test_grow_matches_binary_dilation(mask, rings, wall_ring):
    # random masks reach every edge, and the wall ring is forced into half
    # of them, so a shift that wrapped from one row into the next would
    # show; scipy's default cross, zero border
    if wall_ring:
        mask[[0, -1], :] = mask[:, [0, -1]] = True
    np.testing.assert_array_equal(
        _grow(mask, rings), binary_dilation(mask, iterations=rings))


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

    def test_far_cells_match_unfiltered_distances(self):
        # the two fronts with |grad phi| = 1.3: redistance computes
        # distances only where they can fall below 3 d0, and must equal the
        # exact distance to every far cell, clamped
        grid = Grid.unit_square(128)
        X, Y = grid.meshgrid()
        d0 = 0.04
        dist = np.minimum(np.hypot(X - 0.3, Y - 0.3) - 0.12,
                          np.hypot(X - 0.7, Y - 0.7) - 0.1)
        phi = ScalarField(grid, 1.3 * _clamp(dist, d0))
        one = ScalarField.full(grid, 1.0)
        s = SharpState(phi, one, one, one, 0.0, one, d0)
        near = front_cells(phi.values, widen=1)
        gx, gy = np.gradient(phi.values, grid.h)
        expected = phi.values / np.clip(np.hypot(gx, gy), 0.25, 4.0)
        far = np.stack([X[~near], Y[~near]], axis=1)
        d = distance_to_curve(far, s.interface())
        expected[~near] = np.where(phi.values[~near] < 0, -d, d)
        expected = _clamp(expected, d0)
        assert np.sum(np.abs(expected) == 3 * d0) > 0.3 * expected.size
        np.testing.assert_array_equal(redistance(s).phi.values, expected)

    def test_run_redistances_drift_in_first_step(self):
        # phi scaled by 2 leaves |grad phi| at 2 on the front: the first
        # step's pass redistances it, and s0 itself is only checked
        s0 = circle_state(n=128, r=0.25)
        s0.phi = ScalarField(s0.phi.grid, 2.0 * s0.phi.values)
        scaled = s0.phi.values.copy()
        h = s0.phi.grid.h
        snaps = run_sharp(s0, mcf, h**2 / 6)
        np.testing.assert_array_equal(snaps[0].phi.values, scaled)
        np.testing.assert_array_equal(s0.phi.values, scaled)
        phi = snaps[-1].phi.values
        gx, gy = np.gradient(phi, h)
        mag = np.hypot(gx, gy)[front_cells(phi)]
        assert 0.9 < mag.min() and mag.max() < 1.1
        assert abs(fitted_radius(snaps[-1].interface()) - 0.25) < 0.1 * h

    def test_wall_ring_uses_one_sided_gradient(self):
        # on a coarse grid a front 0.15 from the walls passes the wall guard
        # (4 d0 < 2 h) and its kept cells reach the wall ring, where
        # |grad phi| comes from one-sided differences
        s = circle_state(n=8, r=0.35)
        h = s.phi.grid.h
        phi = s.phi.values
        gx, gy = np.gradient(phi, h)
        kept = front_cells(phi, widen=1)
        ring = np.ones_like(kept)
        ring[1:-1, 1:-1] = False
        assert np.any(kept & ring)
        expected = _clamp(phi / np.clip(np.hypot(gx, gy), 0.25, 4.0), s.d0)
        np.testing.assert_array_equal(redistance(s).phi.values[kept],
                                      expected[kept])

    def test_leaves_the_array_phi_views_alone(self):
        # phi as the interior view of a larger array of the caller's:
        # redistancing reads phi and must write nothing outside its result
        s = circle_state(n=64, r=0.25)
        big = np.full((66, 66), 7.0)
        big[1:-1, 1:-1] = 1.5 * s.phi.values
        kept = big.copy()
        view = replace(s, phi=ScalarField(s.phi.grid, big[1:-1, 1:-1]))
        own = replace(s, phi=ScalarField(s.phi.grid, big[1:-1, 1:-1].copy()))
        np.testing.assert_array_equal(redistance(view).phi.values,
                                      redistance(own).phi.values)
        np.testing.assert_array_equal(big, kept)

    def test_output_clamped(self):
        s = circle_state(n=64, r=0.2, d0=0.03)
        r = redistance(s)
        assert np.abs(r.phi.values).max() <= 3 * s.d0 + 1e-12

    def test_curvature_of_circle(self):
        s = circle_state(n=256, r=0.25)
        grid = s.phi.grid
        band = np.abs(s.phi.values) < 1.0 * s.d0
        k = band_curvature(s.phi.values, grid.h, band)
        X, Y = grid.meshgrid()
        rr = np.hypot(X - 0.5, Y - 0.5)
        exact = 1.0 / rr  # times |grad phi| = 1
        err = np.abs(k[band] - exact[band]).max()
        assert err < 0.05


class TestBandStencils:
    """The band-only stencils against the full-grid formulas they replace,
    kept here as the oracle: evaluate on the mirror-padded grid, then mask."""

    @staticmethod
    def full_curvature(phi, h, band):
        p = np.pad(phi, 1, mode="edge")
        px = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2 * h)
        py = (p[1:-1, 2:] - p[1:-1, :-2]) / (2 * h)
        pxx = (p[2:, 1:-1] - 2 * p[1:-1, 1:-1] + p[:-2, 1:-1]) / h**2
        pyy = (p[1:-1, 2:] - 2 * p[1:-1, 1:-1] + p[1:-1, :-2]) / h**2
        pxy = (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2]) / (4 * h**2)
        g2 = px**2 + py**2
        if np.any(g2[band] < 1e-12):
            return None
        num = pxx * py**2 - 2 * px * py * pxy + pyy * px**2
        out = np.zeros_like(phi)
        out[band] = num[band] / g2[band]
        lim = np.sqrt(g2[band]) / h
        out[band] = np.clip(out[band], -lim, lim)
        return out

    @staticmethod
    def full_upwind(phi, w, h, band):
        wx, wy = w
        p = np.pad(phi, 1, mode="edge")
        dxm = (p[1:-1, 1:-1] - p[:-2, 1:-1]) / h
        dxp = (p[2:, 1:-1] - p[1:-1, 1:-1]) / h
        dym = (p[1:-1, 1:-1] - p[1:-1, :-2]) / h
        dyp = (p[1:-1, 2:] - p[1:-1, 1:-1]) / h
        out = np.zeros_like(phi)
        out[band] = (np.where(wx > 0, dxm, dxp)[band] * wx[band]
                     + np.where(wy > 0, dym, dyp)[band] * wy[band])
        return out

    @staticmethod
    @st.composite
    def cases(draw):
        # nx != ny on most draws, so a wrong row stride shows; the wall
        # ring is forced into half the masks
        nx, ny = draw(st.integers(8, 14)), draw(st.integers(8, 14))
        values = st.floats(-1.0, 1.0, width=64)
        phi, wx, wy = (draw(arrays(float, (nx, ny), elements=values))
                       for _ in range(3))
        band = draw(arrays(bool, (nx, ny)))
        if draw(st.booleans()):
            band[[0, -1], :] = band[:, [0, -1]] = True
        h = draw(st.sampled_from([1.0 / nx, 0.37, 1e-3]))
        return phi, (wx, wy), h, band

    @settings(max_examples=200, deadline=None)
    @given(case=cases())
    def test_curvature_matches_full_grid(self, case):
        phi, _, h, band = case
        expected = self.full_curvature(phi, h, band)
        if expected is None:
            with pytest.raises(DegenerateLevelSetError):
                band_curvature(phi, h, band)
        else:
            np.testing.assert_array_equal(band_curvature(phi, h, band),
                                          expected)

    @settings(max_examples=200, deadline=None)
    @given(case=cases())
    def test_upwind_matches_full_grid(self, case):
        phi, w, h, band = case
        np.testing.assert_array_equal(band_upwind(phi, w, h, band),
                                      self.full_upwind(phi, w, h, band))

    @settings(max_examples=200, deadline=None)
    @given(case=cases())
    def test_gradient_norm_matches_np_gradient(self, case):
        # np.gradient's one-sided differences on the wall ring included
        phi, _, h, band = case
        gx, gy = np.gradient(phi, h, edge_order=1)
        np.testing.assert_array_equal(_band_gradient_norm(phi, band, h),
                                      np.hypot(gx, gy)[band])
        # phi as a strided view, the interior of a larger array whose
        # border holds other values
        pad = np.full((phi.shape[0] + 2, phi.shape[1] + 2), 7.0)
        pad[1:-1, 1:-1] = phi
        np.testing.assert_array_equal(
            _band_gradient_norm(pad[1:-1, 1:-1], band, h),
            np.hypot(gx, gy)[band])

    def test_collapsed_gradient_in_band_raises(self):
        # a plateau of phi: zero gradient at its centre, which is in the
        # band on the second call only
        grid = Grid(12, 9, 0.1)
        X, Y = grid.meshgrid()
        phi = ScalarField(grid, np.maximum(np.hypot(X - 0.6, Y - 0.45), 0.2))
        band = np.abs(phi.values - 0.35) < 0.1
        assert np.all(np.isfinite(band_curvature(phi.values, grid.h, band)))
        band[6, 4] = True
        with pytest.raises(DegenerateLevelSetError):
            band_curvature(phi.values, grid.h, band)
