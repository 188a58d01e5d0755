import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

import haptolab
from haptolab.errors import OutOfDomainError
from haptolab.grid import (
    Grid,
    ScalarField,
    advective_divergence,
    gradient_centered,
    heat_neumann,
    interpolate_bilinear,
    laplacian_neumann,
    read_snapshot,
    write_snapshot,
)


def cosmode(grid):
    return ScalarField.from_function(
        grid, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)
    )


def sup(a):
    return float(np.abs(a).max())


class TestLaplacian:
    def test_constant_is_zero(self):
        g = Grid.unit_square(16)
        lap = laplacian_neumann(ScalarField.full(g, 3.7))
        assert sup(lap.values) == 0.0

    def test_quadratic_interior_exact(self):
        g = Grid.unit_square(32)
        f = ScalarField.from_function(g, lambda x, y: x**2)
        lap = laplacian_neumann(f)
        assert sup(lap.values[2:-2, 2:-2] - 2.0) < 1e-11

    def test_order_two_on_cosine(self):
        errs = []
        for n in (32, 64, 128):
            g = Grid.unit_square(n)
            f = cosmode(g)
            lap = laplacian_neumann(f)
            exact = -2 * np.pi**2 * f.values
            errs.append(sup(lap.values - exact))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert abs(orders[-1] - 2.0) < 0.1

    def test_discrete_divergence_theorem(self):
        rng = np.random.default_rng(7)
        g = Grid.unit_square(12)
        f = ScalarField(g, rng.normal(size=(12, 12)))
        lap = laplacian_neumann(f)
        assert abs(lap.values.sum() * g.h**2) < 1e-12


class TestGradient:
    def test_constant_is_zero(self):
        g = Grid.unit_square(16)
        gx, gy = gradient_centered(ScalarField.full(g, -1.25))
        assert sup(gx) == 0.0 and sup(gy) == 0.0

    def test_affine_exact(self):
        g = Grid.unit_square(16)
        f = ScalarField.from_function(g, lambda x, y: 3 * x + 2 * y)
        gx, gy = gradient_centered(f)
        assert sup(gx - 3.0) < 1e-12
        assert sup(gy - 2.0) < 1e-12

    def test_order_two_on_cosine_interior(self):
        errs = []
        for n in (32, 64, 128):
            g = Grid.unit_square(n)
            X, Y = g.meshgrid()
            gx, gy = gradient_centered(cosmode(g))
            ex = -np.pi * np.sin(np.pi * X) * np.cos(np.pi * Y)
            ey = -np.pi * np.cos(np.pi * X) * np.sin(np.pi * Y)
            errs.append(max(sup((gx - ex)[1:-1, 1:-1]),
                            sup((gy - ey)[1:-1, 1:-1])))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert abs(orders[-1] - 2.0) < 0.1


class TestAdvectiveDivergence:
    def test_zero_velocity(self):
        rng = np.random.default_rng(0)
        g = Grid.unit_square(16)
        u = ScalarField(g, rng.uniform(size=(16, 16)))
        zero = np.zeros((16, 16))
        out = advective_divergence(u, (zero, zero))
        assert sup(out.values) == 0.0

    def test_analytic_divergence(self):
        # u == 1, w = grad(x^2/2) = (x, 0): divergence of flux is 1
        errs = []
        for n in (32, 64, 128):
            g = Grid.unit_square(n)
            X, _ = g.meshgrid()
            u = ScalarField.full(g, 1.0)
            w = (X, np.zeros_like(X))
            out = advective_divergence(u, w)
            errs.append(sup(out.values[2:-2, 2:-2] - 1.0))
        # exact for this flux away from walls; just require small and stable
        assert errs[-1] < 1e-10

    def test_conservation(self):
        rng = np.random.default_rng(3)
        g = Grid.unit_square(16)
        u = ScalarField(g, rng.uniform(size=(16, 16)))
        w = (rng.normal(size=(16, 16)), rng.normal(size=(16, 16)))
        out = advective_divergence(u, w)
        assert abs(out.values.sum() * g.h**2) < 1e-12

    def test_linearity_in_u(self):
        rng = np.random.default_rng(11)
        g = Grid.unit_square(12)
        w = (rng.normal(size=(12, 12)), rng.normal(size=(12, 12)))
        u1 = ScalarField(g, rng.normal(size=(12, 12)))
        u2 = ScalarField(g, rng.normal(size=(12, 12)))
        a, b = 2.5, -1.75
        combo = advective_divergence(
            ScalarField(g, a * u1.values + b * u2.values), w
        )
        parts = (a * advective_divergence(u1, w).values
                 + b * advective_divergence(u2, w).values)
        assert sup(combo.values - parts) < 1e-12


def allocating_advective_divergence(u, w):
    """advective_divergence as one allocating expression per quantity: the
    oracle for the version that builds the fluxes in place."""
    h, uv, (wx, wy) = u.grid.h, u.values, w
    wfx = 0.5 * (wx[:-1, :] + wx[1:, :])
    wfy = 0.5 * (wy[:, :-1] + wy[:, 1:])
    ufx = np.where(wfx > 0.0, uv[:-1, :], uv[1:, :])
    ufy = np.where(wfy > 0.0, uv[:, :-1], uv[:, 1:])
    fx = np.zeros((u.grid.nx + 1, u.grid.ny))
    fy = np.zeros((u.grid.nx, u.grid.ny + 1))
    fx[1:-1, :] = ufx * wfx
    fy[:, 1:-1] = ufy * wfy
    return (fx[1:, :] - fx[:-1, :]) / h + (fy[:, 1:] - fy[:, :-1]) / h


@settings(max_examples=150, deadline=None)
@given(nx=st.integers(8, 20), ny=st.integers(8, 20),
       seed=st.integers(0, 2**32 - 1),
       h=st.sampled_from([1.0 / 64, 0.37, 1e-3]))
def test_advective_divergence_matches_allocating_formula(nx, ny, seed, h):
    # some drift cells are 0 and some neighbours cancel, so face velocities
    # of exactly 0 take the downwind branch as the oracle does
    rng = np.random.default_rng(seed)
    u = ScalarField(Grid(nx, ny, h), rng.uniform(0.0, 2.0, (nx, ny)))
    wx, wy = rng.normal(size=(2, nx, ny))
    wx[rng.random((nx, ny)) < 0.2] = 0.0
    cancel = rng.random((nx, ny - 1)) < 0.2
    wy[:, 1:][cancel] = -wy[:, :-1][cancel]
    kept = u.values.copy(), wx.copy(), wy.copy()
    out = advective_divergence(u, (wx, wy)).values
    np.testing.assert_array_equal(
        out, allocating_advective_divergence(u, (wx, wy)))
    for x, y in zip(kept, (u.values, wx, wy)):
        np.testing.assert_array_equal(x, y)


def test_operator_linearity_random_superposition():
    rng = np.random.default_rng(19)
    g = Grid.unit_square(12)
    f1 = ScalarField(g, rng.normal(size=(12, 12)))
    f2 = ScalarField(g, rng.normal(size=(12, 12)))
    a, b = 0.3, -2.2
    fs = ScalarField(g, a * f1.values + b * f2.values)
    for op in (laplacian_neumann,):
        assert sup(op(fs).values - (a * op(f1).values + b * op(f2).values)) < 1e-12
    gs, g1, g2 = (gradient_centered(f) for f in (fs, f1, f2))
    for k in (0, 1):
        assert sup(gs[k] - (a * g1[k] + b * g2[k])) < 1e-12


class TestInterpolation:
    def test_cell_center_identity(self):
        rng = np.random.default_rng(5)
        g = Grid.unit_square(16)
        f = ScalarField(g, rng.uniform(size=(16, 16)))
        x = g.x_centers()[4]
        y = g.y_centers()[9]
        assert interpolate_bilinear(f, (x, y)) == pytest.approx(f.values[4, 9], abs=1e-14)

    def test_affine_exact_everywhere(self):
        g = Grid.unit_square(16)
        f = ScalarField.from_function(g, lambda x, y: 1.5 * x - 0.5 * y + 2)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, size=(200, 2))
        vals = interpolate_bilinear(f, pts)
        exact = 1.5 * pts[:, 0] - 0.5 * pts[:, 1] + 2
        assert sup(vals - exact) < 1e-12

    def test_order_two_on_cosine(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0.2, 0.8, size=(400, 2))
        exact = np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
        errs = []
        for n in (32, 64, 128):
            g = Grid.unit_square(n)
            errs.append(sup(interpolate_bilinear(cosmode(g), pts) - exact))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert abs(orders[-1] - 2.0) < 0.2

    def test_outside_raises(self):
        g = Grid.unit_square(16)
        f = ScalarField.full(g, 0.0)
        with pytest.raises(OutOfDomainError):
            interpolate_bilinear(f, (1.5, 0.5))


def test_cosine_solves_leave_their_argument_unchanged():
    rng = np.random.default_rng(37)
    f = ScalarField(Grid(16, 12, 1.0 / 16), rng.normal(size=(16, 12)))
    before = f.values.copy()
    heat_neumann(f, 3e-3)
    assert np.array_equal(f.values, before)


def test_scipy_fft_is_loaded_only_by_a_cosine_solve():
    # scipy.fft takes about 30 ms to import: importing haptolab, or a run
    # that makes no cosine solve, must not load it
    code = textwrap.dedent("""
        import sys
        import haptolab.analysis
        assert "scipy.fft" not in sys.modules, "loaded on import"
        from haptolab.curves import circle_polyline
        from haptolab.diffuse import HaptoParams
        from haptolab.grid import Grid, ScalarField
        from haptolab.kernel import ChiSpec
        from haptolab.sharp import init_levelset, run_sharp
        grid = Grid.unit_square(32)
        s0 = init_levelset(circle_polyline((0.5, 0.5), 0.25, n=256), grid,
                           ScalarField.full(grid, 1.0),
                           ScalarField.full(grid, 0.0), d0=0.04)
        p = HaptoParams(eps=0.05, lam=1.0, alpha=1.0, chi=ChiSpec.constant())
        run_sharp(s0, p, 1e-3, evolve_fields=False)
        assert "scipy.fft" not in sys.modules, "loaded by frozen fields"
    """)
    src = str(Path(haptolab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def dense_laplacian(g):
    """The mirror-ghost Laplacian, assembled column by column from the
    stencil."""
    n = g.nx * g.ny
    return np.stack([laplacian_neumann(
        ScalarField(g, e.reshape(g.nx, g.ny))).values.ravel()
        for e in np.eye(n)], axis=1)


class TestHeat:
    def test_matches_dense_exponential(self):
        rng = np.random.default_rng(29)
        for nx, ny in ((16, 12), (11, 9)):
            g = Grid(nx, ny, 1.0 / nx)
            f = ScalarField(g, rng.normal(size=(nx, ny)))
            L = dense_laplacian(g)
            for t in (0.0, 1e-4, 3e-3, 0.05):
                exact = expm(t * L) @ f.values.ravel()
                assert sup(heat_neumann(f, t).values.ravel() - exact) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(values=arrays(float, (12, 10),
                         elements=st.floats(0.0, 2.0, width=64)),
           t=st.floats(0.0, 0.1))
    def test_keeps_mass_and_minimum(self, values, t):
        g = Grid(12, 10, 1.0 / 12)
        out = heat_neumann(ScalarField(g, values), t).values
        mass = values.sum()
        assert abs(out.sum() - mass) <= 1e-12 * mass + 1e-300  # subnormals
        assert out.min() >= -1e-14

    def test_negative_time_rejected(self):
        f = ScalarField.full(Grid.unit_square(8), 1.0)
        with pytest.raises(ValueError, match="t >= 0"):
            heat_neumann(f, -1e-6)


def test_snapshot_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    g = Grid(16, 12, 0.03125, (0.25, -1.0))
    f = ScalarField(g, rng.normal(size=(16, 12)))
    p = tmp_path / "snap.csv"
    write_snapshot(p, f, time=0.125, name="u")
    f2, t, name = read_snapshot(p)
    assert t == 0.125 and name == "u"
    assert f2.grid == g
    assert np.array_equal(f.values, f2.values)
