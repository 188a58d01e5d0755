"""Tests for the diffuse solver against closed-form uniform solutions and
structural invariants (conservation, monotone matrix decay, exact snapshot
times)."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.special import expit

from conftest import uniform_state
from haptolab import diffuse
from haptolab.analysis import diffuse_run
from haptolab.curves import (
    distance_to_curve,
    extract_level_curve,
    one_sided_sup_distance,
)
from haptolab.diffuse import (
    CosineSpec,
    HaptoParams,
    ShapeSpec,
    StudyConfig,
    chi_gradient,
    dt_max,
    make_initial_data,
    run_diffuse,
    solve_vm_for_u,
    step_diffuse,
)
from haptolab.errors import InvalidInitialDataError, StabilityViolationError
from haptolab.grid import Grid, ScalarField, heat_neumann
from haptolab.kernel import ChiSpec


def march(state, params, t_end, dt):
    n = int(round(t_end / dt))
    assert abs(n * dt - t_end) < 1e-12
    for _ in range(n):
        state = step_diffuse(state, params, dt,
                             chi_gradient(state.v, params.chi))
    return state


class TestUniformSolutions:
    def test_vacuum_enzyme_decay(self):
        # u = 0: m(t) = m0 e^{-t}, v(t) = v0 exp(-lam m0 (1 - e^{-t}))
        grid = Grid.unit_square(16)
        p = HaptoParams(eps=0.1, lam=2.0, alpha=0.5)
        m_bar, v_bar = 0.8, 1.3
        s = uniform_state(grid, 0.0, v_bar, m_bar)
        T, dt = 0.1, 1e-4
        s = march(s, p, T, dt)
        m_exact = m_bar * math.exp(-T)
        v_exact = v_bar * math.exp(-p.lam * m_bar * (1 - math.exp(-T)))
        assert abs(s.m.values.mean() - m_exact) < 1e-5
        assert abs(s.v.values.mean() - v_exact) < 1e-4
        assert np.ptp(s.m.values) < 1e-12
        assert s.u.values.max() == 0.0

    def test_occupied_enzyme_growth(self):
        # u = 1, m0 = 0: m(t) = 1 - e^{-t}; u stays exactly at the stable root
        grid = Grid.unit_square(16)
        p = HaptoParams(eps=0.1, lam=1.0, alpha=1.0)
        s = uniform_state(grid, 1.0, 1.0, 0.0)
        T, dt = 0.05, 5e-5
        s = march(s, p, T, dt)
        assert abs(s.m.values.mean() - (1 - math.exp(-T))) < 1e-5
        np.testing.assert_allclose(s.u.values, 1.0, atol=1e-13)

    @pytest.mark.parametrize("case", ["occupied", "rising"])
    def test_strang_second_order_in_m(self, case):
        # occupied: u = 1 and m0 = 0 through step_diffuse, m = 1 - e^{-t};
        # rising: u = t/T prescribed and m0 = 1/2 through
        # solve_vm_for_u, m(T) = e^{-T}/2 + (T - 1 + e^{-T})/T
        grid = Grid.unit_square(8)
        p = HaptoParams(eps=0.1, lam=1.0, alpha=1.0)
        T = 0.2
        errs = []
        for dt in (0.02, 0.01, 0.005):
            if case == "occupied":
                s = march(uniform_state(grid, 1.0, 1.0, 0.0), p, T, dt)
                m, exact = s.m, 1 - math.exp(-T)
            else:
                _, _, ms = solve_vm_for_u(
                    [0.0, T], [ScalarField.full(grid, 0.0),
                               ScalarField.full(grid, 1.0)], p,
                    v0=ScalarField.full(grid, 1.0),
                    m0=ScalarField.full(grid, 0.5), dt=dt)
                m = ms[-1]
                exact = 0.5 * math.exp(-T) + (T - 1 + math.exp(-T)) / T
            errs.append(abs(m.values.mean() - exact))
        rates = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(3.7 < r < 4.3 for r in rates), rates

    @settings(max_examples=100, deadline=None)
    @given(m=arrays(float, (12, 10), elements=st.floats(0.0, 2.0, width=64)),
           s0=arrays(float, (12, 10), elements=st.floats(0.0, 1.0, width=64)),
           s1=arrays(float, (12, 10), elements=st.floats(0.0, 1.0, width=64)),
           alpha=st.floats(1e-3, 10.0), dt=st.floats(0.0, 1.0))
    def test_enzyme_step_keeps_sign_and_mean_law(self, m, s0, s1, alpha, dt):
        # m >= 0 up to heat_neumann's round-off (TestHeat), and the mean
        # decays and takes half of each source
        g = Grid(12, 10, 1.0 / 12)
        out = diffuse.advance_enzyme(ScalarField(g, m), s0, s1, alpha,
                                     dt).values
        assert out.min() >= -1e-14
        mean = (math.exp(-dt) * (m.mean() + 0.5 * dt * s0.mean())
                + 0.5 * dt * s1.mean())
        assert abs(out.mean() - mean) <= 1e-12 * mean + 1e-300


class TestExactReaction:
    """The half-step is the exact flow of du/dt = f(u)/eps^2."""

    @settings(max_examples=60, deadline=None)
    @given(u=arrays(float, 8, elements=st.floats(0.0, 2.0)),
           eps=st.floats(0.005, 0.1),
           s=st.one_of(st.floats(0.0, 5.0), st.floats(0.0, 3000.0)))
    @example(u=np.array([0.0, 0.5, 1.0, 2.0, 0.5 + 1e-12, 0.5 - 1e-12,
                         0.25, 0.75]), eps=0.01, s=2000.0)
    def test_matches_tight_ode_solve(self, u, eps, s):
        # s = half_dt / eps^2; s > 1490 underflows exp(-s/2) to 0. The
        # oracle integrates y = u - 1/2, whose relative error the flow
        # does not amplify, in the rescaled time s.
        p = HaptoParams(eps=eps, lam=1.0, alpha=1.0)
        out = diffuse._reaction_half_step(u, p, s * eps**2)
        sol = solve_ivp(lambda t, y: y * (0.25 - y * y), (0.0, s), u - 0.5,
                        method="DOP853", rtol=1e-13, atol=1e-300)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, 0.5 + sol.y[:, -1], rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("half_dt", [1e-6, 1e-3, 1.0, 1e6])
    def test_roots_fixed_and_unit_interval_kept(self, half_dt):
        p = HaptoParams(eps=0.02, lam=1.0, alpha=1.0)
        roots = np.array([0.0, 0.5, 1.0])
        assert np.array_equal(diffuse._reaction_half_step(roots, p, half_dt),
                              roots)
        u = np.linspace(0.0, 1.0, 10001)
        out = diffuse._reaction_half_step(u, p, half_dt)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_zero_step_leaves_u(self):
        u = np.linspace(0.0, 2.0, 9)
        p = HaptoParams(eps=0.02, lam=1.0, alpha=1.0)
        assert np.array_equal(diffuse._reaction_half_step(u, p, 0.0), u)


@pytest.fixture(scope="module")
def front_state():
    grid = Grid.unit_square(64)
    shape = ShapeSpec("circle", (0.5, 0.5), 0.25)
    cfg = StudyConfig(shape, CosineSpec(1.0, ((1, 1, 0.2),)),
                      CosineSpec(0.3, ((2, 0, 0.1),)), width=0.05, d0=0.03)
    return make_initial_data(cfg, 0.08, grid)


class TestStructure:
    def test_matrix_reconstruction_identity(self, front_state):
        p = HaptoParams(eps=0.08, lam=1.5, alpha=0.5)
        snaps = run_diffuse(front_state, p, 2e-3, snapshot_times=(1e-3,))
        for s in snaps:
            recon = s.v_init.values * np.exp(-p.lam * s.int_m.values)
            np.testing.assert_allclose(s.v.values, recon, rtol=0, atol=1e-15)

    def test_matrix_nonincreasing(self, front_state):
        p = HaptoParams(eps=0.08, lam=1.5, alpha=0.5)
        snaps = run_diffuse(front_state, p, 2e-3,
                            snapshot_times=(5e-4, 1e-3, 1.5e-3))
        rng = np.random.default_rng(7)
        for _ in range(20):
            i, j = sorted(rng.choice(len(snaps), size=2, replace=False))
            if i == j:
                continue
            assert np.all(snaps[j].v.values <= snaps[i].v.values + 1e-14)
        assert np.all(snaps[-1].v.values >= 0)

    def test_snapshot_times_exact(self, front_state):
        p = HaptoParams(eps=0.08, lam=1.0, alpha=1.0)
        times = (7e-4, 1.3e-3, 2e-3)
        snaps = run_diffuse(front_state, p, 2e-3, snapshot_times=times)
        assert [s.t for s in snaps] == [0.0, *times]

    def test_invariant_violation_detected(self):
        grid = Grid.unit_square(16)
        s = uniform_state(grid, 0.5, 1.0, 0.0)
        s.u.values[3, 3] = 2.5  # above C0
        with pytest.raises(StabilityViolationError,
                           match=r"u\[3, 3\] = 2.5 at t = 0, above its "
                                 r"bound 2$"):
            s.check_invariants()


class TestNoDrift:
    """A constant chi has no drift: chi_gradient returns None, and a step
    without a drift is the step with an all-zero one."""

    def test_constant_chi_has_no_drift(self):
        v = ScalarField.from_function(Grid.unit_square(16),
                                      lambda x, y: 1.0 + 0.3 * x * y)
        assert chi_gradient(v, ChiSpec.constant()) is None

    def test_step_without_drift_equals_zero_drift(self, front_state):
        p = HaptoParams(eps=0.08, lam=1.0, alpha=0.5, chi=ChiSpec.constant())
        grid = front_state.u.grid
        zero = np.zeros((grid.nx, grid.ny))
        dt = dt_max(p, grid, None)
        assert dt == dt_max(p, grid, (zero, zero))
        a = step_diffuse(front_state, p, dt, None)
        b = step_diffuse(front_state, p, dt, (zero, zero))
        for name in ("u", "v", "m", "int_m"):
            assert np.array_equal(getattr(a, name).values,
                                  getattr(b, name).values)


class TestExactDiffusion:
    """u diffuses by the exact heat flow of the discrete Laplacian, so only
    the split's accuracy and the advection bound the step."""

    def test_transport_without_drift_is_the_heat_flow(self, front_state):
        # the driftless step is half reaction, heat flow, half reaction
        p = HaptoParams(eps=0.08, lam=1.0, alpha=0.5, chi=ChiSpec.constant())
        grid = front_state.u.grid
        dt = dt_max(p, grid, None)
        out = step_diffuse(front_state, p, dt, None)
        half = diffuse._reaction_half_step(front_state.u.values, p, 0.5 * dt)
        heat = heat_neumann(ScalarField(grid, half), dt).values
        assert np.array_equal(out.u.values,
                              diffuse._reaction_half_step(heat, p, 0.5 * dt))

    def test_no_drift_step_independent_of_h(self):
        p = HaptoParams(eps=0.04, lam=1.0, alpha=1.0)
        caps = {dt_max(p, Grid.unit_square(n), None) for n in (64, 256)}
        assert len(caps) == 1
        # beyond forward-Euler diffusion's cap on the coarser grid
        assert caps.pop() > (1 / 64)**2 / 8

    def test_steep_front_beyond_explicit_cap(self):
        grid = Grid.unit_square(64)
        cfg = StudyConfig(ShapeSpec("circle", (0.5, 0.5), 0.25),
                          CosineSpec(1.0, ((1, 1, 0.5),)), CosineSpec(0.3),
                          width=grid.h)
        p = HaptoParams(eps=0.04, lam=1.0, alpha=1.0, chi=ChiSpec.identity())
        s = make_initial_data(cfg, 0.04, grid)
        for _ in range(50):
            w = chi_gradient(s.v, p.chi)
            dt = dt_max(p, grid, w)
            assert dt > grid.h**2 / 8  # forward-Euler diffusion's cap
            s = step_diffuse(s, p, dt, w)
            assert s.u.values.min() >= 0.0


class TestSecondOrderSplit:
    """The step's two new pieces: Heun advection and the enzymes' sources
    at both ends of the step."""

    def test_heun_advection_local_error_third_order(self):
        # against the exact flow exp(-tau D) of the upwind divergence D,
        # assembled column by column; one forward-Euler step would read 4
        grid = Grid(12, 10, 1.0 / 12)
        X, Y = grid.meshgrid()
        w = (np.cos(np.pi * X) * (1 + Y), 0.5 - X * Y)
        D = np.stack([diffuse.advective_divergence(
            ScalarField(grid, e.reshape(12, 10)), w).values.ravel()
            for e in np.eye(120)], axis=1)
        u = np.exp(-((X - 0.4)**2 + (Y - 0.6)**2) / 0.05)
        errs = []
        for tau in (4e-3, 2e-3, 1e-3):
            exact = expm(-tau * D) @ u.ravel()
            heun = diffuse._heun_advection(u, grid, w, tau)
            errs.append(np.abs(heun.ravel() - exact).max())
        rates = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(7.0 < r < 9.0 for r in rates), rates

    def test_enzyme_source_is_u_before_and_after(self, front_state):
        p = HaptoParams(eps=0.08, lam=1.5, alpha=0.5)
        w = chi_gradient(front_state.v, p.chi)
        dt = dt_max(p, front_state.u.grid, w)
        out = step_diffuse(front_state, p, dt, w)
        expected = diffuse.advance_vm(front_state.v_init, front_state.m,
                                      front_state.int_m, front_state.u.values,
                                      out.u.values, p, dt)
        for a, b in zip(expected, (out.v, out.m, out.int_m)):
            np.testing.assert_array_equal(a.values, b.values)


class TestStepCap:
    """dt_max's cap at eps = 0.04 (n = 100, t = 0.01): the run at dt_max
    stays within 2.2e-4 in m, 10% of criterion 5's m-gap at that eps, and
    within h/100 in the front of the run at dt_max/8; and the step is
    second order in the front."""

    def test_cap_meets_its_accuracy_rule(self, monkeypatch):
        cfg = StudyConfig(ShapeSpec("circle", (0.5, 0.5), 0.25),
                          CosineSpec(1.0, ((1, 1, 0.2),)),
                          CosineSpec(0.3, ((2, 0, 0.1),)), t_end=0.01)
        coarse, _ = diffuse_run(cfg, 0.04)
        cap = diffuse.dt_max
        monkeypatch.setattr(diffuse, "dt_max",
                            lambda p, grid, w: cap(p, grid, w) / 8)
        fine, _ = diffuse_run(cfg, 0.04)
        h = coarse[0].u.grid.h
        assert len(coarse) == len(fine) == 5
        for a, b in zip(coarse[1:], fine[1:]):
            assert np.abs(a.m.values - b.m.values).max() <= 2.2e-4
            ca = extract_level_curve(a.u, 0.5)
            cb = extract_level_curve(b.u, 0.5)
            assert max(one_sided_sup_distance(ca, cb, 0.5 * h),
                       one_sided_sup_distance(cb, ca, 0.5 * h)) <= h / 100

    def test_halving_dt_cuts_the_front_error(self, monkeypatch):
        # the step is second order in the front: against a run at eps^2/80,
        # dt_max/2 is at least 3x closer than dt_max (3.8 measured; the
        # first-order split at eps^2/5 read 2.15)
        cfg = StudyConfig(ShapeSpec("circle", (0.5, 0.5), 0.25),
                          CosineSpec(1.0, ((1, 1, 0.2),)),
                          CosineSpec(0.3, ((2, 0, 0.1),)), t_end=0.01)
        cap = diffuse.dt_max
        rules = (cap, lambda p, grid, w: cap(p, grid, w) / 2,
                 lambda p, grid, w: min(p.eps**2 / 80,
                                        diffuse.advection_dt(grid.h, w)))
        fronts = []
        for rule in rules:
            monkeypatch.setattr(diffuse, "dt_max", rule)
            snaps, _ = diffuse_run(cfg, 0.04)
            fronts.append([extract_level_curve(s.u, 0.5) for s in snaps[1:]])
        h = snaps[0].u.grid.h

        def error(run):
            return max(max(one_sided_sup_distance(a, b, 0.5 * h),
                           one_sided_sup_distance(b, a, 0.5 * h))
                       for a, b in zip(run, fronts[-1], strict=True))

        at_cap, at_half = error(fronts[0]), error(fronts[1])
        assert at_cap >= 3 * at_half, (at_cap / h, at_half / h)


DRIFT = st.one_of(st.floats(-1e200, 1e200), st.floats(-1e-160, 1e-160))


@settings(max_examples=200, deadline=None)
@given(wx=arrays(float, (6, 5), elements=DRIFT),
       wy=arrays(float, (6, 5), elements=DRIFT), h=st.floats(1e-4, 1.0))
def test_advection_dt_is_the_max_of_the_roots(wx, wy, h):
    # the root of the max of wx^2 + wy^2 against the max of the roots, with
    # squares that overflow and squares that underflow
    with np.errstate(over="ignore"):
        w_max = float(np.sqrt(wx**2 + wy**2).max())
        expected = h / (4.0 * w_max) if w_max > 0 else math.inf
        assert diffuse.advection_dt(h, (wx, wy)) == expected


class TestSnapshotTimes:
    """A run's marks are t_end k/n for 0 < k < n, then t_end itself."""

    @settings(max_examples=200, deadline=None)
    @given(t_end=st.floats(1e-6, 1.0), n=st.integers(1, 50))
    @example(t_end=0.003, n=3)
    @example(t_end=0.03, n=11)
    def test_marks_increase_and_end_at_t_end(self, t_end, n):
        # t_end * n / n is not t_end for 0.003 and 3, nor 0.03 and 11
        cfg = StudyConfig(ShapeSpec(), CosineSpec(), CosineSpec(),
                          t_end=t_end, n_snapshots=n)
        times = cfg.snapshot_times()
        assert len(times) == n and times[-1] == t_end
        assert all(a < b for a, b in zip(times, times[1:]))


class TestMarch:
    """run_diffuse marches through the shared loop `march`."""

    def test_violation_names_its_step(self, monkeypatch):
        step = diffuse.step_diffuse
        calls = []

        def breaks_on_third(s, p, dt, w):
            out = step(s, p, dt, w)
            calls.append(dt)
            if len(calls) == 3:
                out.u.values[1, 2] = 2.5
                out.check_invariants()
            return out

        monkeypatch.setattr(diffuse, "step_diffuse", breaks_on_third)
        s0 = uniform_state(Grid.unit_square(8), 0.3, 1.0, 0.2)
        p = HaptoParams(eps=0.1, lam=1.0, alpha=1.0)
        dt = dt_max(p, s0.u.grid, None)   # v is uniform: no drift
        with pytest.raises(StabilityViolationError,
                           match=rf"u\[1, 2\] = 2.5 at t = {3 * dt:.6g}, "
                                 r"above its bound 2, at step 3$"):
            run_diffuse(s0, p, 5 * dt)
        assert calls == [dt] * 3

    def test_one_snapshot_per_distinct_mark(self):
        grid = Grid.unit_square(8)
        p = HaptoParams(eps=0.025, lam=1.0, alpha=1.0)
        s0 = replace(uniform_state(grid, 0.3, 1.0, 0.2), t=1e-4)
        # dt_max is 5e-4 (to round-off), so the marks take 2, 3 and 3 steps
        assert math.isclose(dt_max(p, grid, None), 5e-4)
        times = (2.5e-3, 0.0, 1e-4, 1e-3, 2.5e-3, 5e-5, 1e-3)
        snaps = run_diffuse(s0, p, 4e-3, snapshot_times=times)
        assert [s.t for s in snaps] == [1e-4, 1e-3, 2.5e-3, 4e-3]
        assert s0.t == 1e-4
        assert len({id(s.u) for s in snaps}) == len(snaps)

    def test_t_end_before_start_rejected(self):
        grid = Grid.unit_square(8)
        s0 = replace(uniform_state(grid, 0.3, 1.0, 0.2), t=1e-3)
        with pytest.raises(ValueError, match="t_end"):
            run_diffuse(s0, HaptoParams(eps=0.1, lam=1.0, alpha=1.0), 5e-4)


class TestInitialData:
    def test_clearance_rejected(self):
        grid = Grid.unit_square(32)
        with pytest.raises(InvalidInitialDataError, match="clearance"):
            make_initial_data(
                StudyConfig(ShapeSpec("circle", (0.5, 0.5), 0.45),
                            CosineSpec(), CosineSpec(), width=0.05, d0=0.04),
                0.04, grid)

    def test_negative_matrix_rejected(self):
        grid = Grid.unit_square(32)
        with pytest.raises(InvalidInitialDataError, match="nonnegative"):
            make_initial_data(
                StudyConfig(ShapeSpec(), CosineSpec(0.1, ((1, 1, 0.5),)),
                            CosineSpec(), width=0.05),
                0.04, grid)

    def test_star_shape(self):
        grid = Grid.unit_square(64)
        shape = ShapeSpec("star", (0.5, 0.5), 0.22, amp=0.04, k=5)
        cfg = StudyConfig(shape, CosineSpec(1.0), CosineSpec(0.5),
                          width=0.04, d0=0.03)
        assert shape.polyline().is_simple()
        s = make_initial_data(cfg, 0.04, grid)
        assert s.t == 0.0 and not s.int_m.values.any()
        np.testing.assert_array_equal(s.v.values, s.v_init.values)

    @pytest.mark.parametrize("shape, n", [
        (ShapeSpec("star", (0.5, 0.5), 0.22, amp=0.04, k=5), 64),
        (ShapeSpec("star", (0.4, 0.6), 0.2, 0.03, 4), 100),
    ])
    def test_star_datum_matches_polar_reference(self, shape, n):
        # the star's sign from the polar test r < r(theta) about its center
        grid = Grid.unit_square(n)
        X, Y = grid.meshgrid()
        x, y = X.ravel() - shape.center[0], Y.ravel() - shape.center[1]
        d = distance_to_curve(np.stack([X.ravel(), Y.ravel()], axis=1),
                              shape.polyline(4096))
        inside = np.hypot(x, y) < shape.radius(np.arctan2(y, x))
        sd = np.where(inside, -d, d).reshape(X.shape)
        cfg = StudyConfig(shape, CosineSpec(1.0), CosineSpec(0.5), width=0.04)
        s = make_initial_data(cfg, 0.04, grid)
        np.testing.assert_array_equal(s.u.values, expit(-sd / 0.04))

    def test_roundtrip_dicts(self):
        s = ShapeSpec("star", (0.4, 0.6), 0.2, 0.03, 4)
        assert ShapeSpec.from_dict(s.to_dict()) == s
        c = CosineSpec(0.7, ((1, 2, 0.1), (3, 0, -0.05)))
        assert CosineSpec.from_dict(c.to_dict()) == c


class TestSubsystem:
    def test_prescribed_u_matches_uniform_oracle(self):
        grid = Grid.unit_square(8)
        p = HaptoParams(eps=0.1, lam=2.0, alpha=1.0)
        times = [0.0, 0.05, 0.1]
        ones = ScalarField.full(grid, 1.0)
        _, v_out, m_out = solve_vm_for_u(
            times, [ones, ones, ones], p,
            v0=ScalarField.full(grid, 1.0), m0=ScalarField.full(grid, 0.0),
            dt=1e-5,
        )
        for t, m in zip(times, m_out):
            assert abs(m.values.mean() - (1 - math.exp(-t))) < 1e-6
        t = times[-1]
        int_exact = t - (1 - math.exp(-t))
        v_exact = math.exp(-p.lam * int_exact)
        assert abs(v_out[-1].values.mean() - v_exact) < 1e-5

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_a_step_that_is_not_positive_and_finite(self, dt):
        # with dt = 0 the march never reaches its first mark
        grid = Grid.unit_square(8)
        ones = ScalarField.full(grid, 1.0)
        with pytest.raises(ValueError, match="dt"):
            solve_vm_for_u([0.0, 0.1], [ones, ones],
                           HaptoParams(eps=0.1, lam=1.0, alpha=1.0),
                           v0=ones, m0=ScalarField.full(grid, 0.0), dt=dt)

    def test_gradient_of_linear_chi(self):
        grid = Grid.unit_square(16)
        v = ScalarField.from_function(grid, lambda x, y: 2 * x - 0.5 * y)
        wx, wy = chi_gradient(v, ChiSpec.identity())
        np.testing.assert_allclose(wx, 2.0, atol=1e-12)
        np.testing.assert_allclose(wy, -0.5, atol=1e-12)
