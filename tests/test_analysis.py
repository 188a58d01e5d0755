"""Tests for the experiment harness: generation reports against a scalar
reaction oracle, envelope field ordering, operator residual identities, and
the small-scale plumbing of the convergence machinery."""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import uniform_state
from haptolab import analysis
from haptolab.analysis import (
    StudyConfig,
    check_generation,
    convergence_study,
    diffuse_run,
    envelope_fields,
    fit_M0,
    fit_loglog_slope,
    generation_time,
    grid_for_eps,
    refinement_order,
    residual_Lv,
    residual_slack,
)
from haptolab.diffuse import (
    CosineSpec,
    HaptoParams,
    ShapeSpec,
    run_diffuse,
)
from haptolab.errors import ConfigError, MissingSnapshotError
from haptolab.grid import Grid, ScalarField, laplacian_neumann
from haptolab.kernel import (
    ChiSpec,
    envelope_constants,
    f_bistable,
    standing_profile,
)


class TestGeneration:
    def test_time_formula(self):
        eps = 0.02
        assert generation_time(eps) == pytest.approx(4 * eps**2 * abs(math.log(eps)))

    def test_equilibrium_clean(self):
        grid = Grid.unit_square(16)
        eps = 0.1
        p = HaptoParams(eps=eps, lam=1.0, alpha=1.0)
        s0 = uniform_state(grid, 1.0, 1.0, 0.0)
        t_star = generation_time(eps)
        snaps = run_diffuse(s0, p, t_star, snapshot_times=(t_star,))
        rep = check_generation(snaps, s0.u, eps, eta=0.1, M0=1.0)
        assert rep.passed
        assert rep.sup_u == pytest.approx(1.0, abs=1e-10)

    def test_uniform_matches_scalar_reaction_oracle(self):
        grid = Grid.unit_square(16)
        eps, M0, eta = 0.1, 1.0, 0.1
        u_init = 0.5 + 2 * M0 * eps
        p = HaptoParams(eps=eps, lam=1.0, alpha=1.0)
        s0 = uniform_state(grid, u_init, 1.0, 0.0)
        t_star = generation_time(eps)
        snaps = run_diffuse(s0, p, t_star, snapshot_times=(t_star,))
        sol = solve_ivp(lambda t, y: f_bistable(y) / eps**2, (0.0, t_star),
                        [u_init], rtol=1e-10, atol=1e-12)
        u_ode = sol.y[0, -1]
        assert abs(snaps[-1].u.values.mean() - u_ode) < 1e-5
        rep = check_generation(snaps, s0.u, eps, eta=eta, M0=M0)
        assert rep.violations_upper == 0
        assert u_ode > 1 - eta

    def test_missing_snapshot_raises(self):
        grid = Grid.unit_square(16)
        s0 = uniform_state(grid, 1.0, 1.0, 0.0)
        with pytest.raises(MissingSnapshotError):
            check_generation([s0], s0.u, eps=0.1, eta=0.1, M0=1.0)

    def test_eta_monotone(self):
        # a looser eta can only reduce violation counts
        grid = Grid.unit_square(32)
        eps = 0.1
        p = HaptoParams(eps=eps, lam=1.0, alpha=1.0)
        X, Y = grid.meshgrid()
        u0 = ScalarField(grid, 0.5 + 0.4 * np.cos(np.pi * X) * np.cos(np.pi * Y))
        s0 = uniform_state(grid, 0.0, 1.0, 0.0)
        s0.u = u0
        t_star = generation_time(eps)
        snaps = run_diffuse(s0, p, t_star, snapshot_times=(t_star,))
        counts = []
        for eta in (0.05, 0.1, 0.2):
            r = check_generation(snaps, u0, eps, eta=eta, M0=1.0)
            counts.append(r.violations_range + r.violations_upper
                          + r.violations_lower)
        assert counts[0] >= counts[1] >= counts[2]

    def test_fit_M0_returns_smallest_clean(self):
        grid = Grid.unit_square(16)
        eps = 0.1
        p = HaptoParams(eps=eps, lam=1.0, alpha=1.0)
        s0 = uniform_state(grid, 1.0, 1.0, 0.0)
        t_star = generation_time(eps)
        snaps = run_diffuse(s0, p, t_star, snapshot_times=(t_star,))
        assert fit_M0(snaps, s0.u, eps, eta=0.1, candidates=[0.5, 1.0]) == 0.5


@pytest.fixture(scope="module")
def consts():
    return envelope_constants(T=0.02, d0=0.06, eps0=0.01, K=1.5)


class TestEnvelopes:
    def test_ordering_and_bounds(self, consts):
        grid = Grid.unit_square(64)
        d = ScalarField.from_function(grid, lambda x, y: x - 0.5)
        eps = consts.eps0
        for t in (0.0, 0.01, consts.T):
            lo = envelope_fields(d, t, eps, consts, -1)
            hi = envelope_fields(d, t, eps, consts, +1)
            mid = standing_profile(d.values / eps)
            assert np.all(lo.values <= mid + 1e-14)
            assert np.all(mid <= hi.values + 1e-14)
            assert lo.values.min() > -1 and hi.values.max() < 2

    def test_indicator_limit(self, consts):
        grid = Grid.unit_square(64)
        d = ScalarField.from_function(grid, lambda x, y: x - 0.5)
        t = consts.T / 2
        inside = d.values < -0.05
        outside = d.values > 0.05
        for sign in (-1, 1):
            prev = None
            for eps in (0.01, 0.005, 0.0025):
                f = envelope_fields(d, t, eps, consts, sign)
                gap = max(np.abs(f.values[inside] - 1).max(),
                          np.abs(f.values[outside]).max())
                if prev is not None:
                    assert gap < prev
                prev = gap
            assert prev < 0.05


class TestBracket:
    def test_eps_beyond_eps0_rejected_before_any_solve(self, consts,
                                                      monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(analysis, "sharp_reference", no_solve)
        monkeypatch.setattr(analysis, "diffuse_run", no_solve)
        cfg = StudyConfig(ShapeSpec(), CosineSpec(1.0), CosineSpec(0.3))
        for eps in (0.05, 0.0, -0.01):
            with pytest.raises(ValueError,
                               match=rf"eps = {eps:g} is outside "
                                     rf"\(0, eps0 = {consts.eps0:g}\]"):
                analysis.bracket_check(cfg, eps, consts)

    def test_no_motion_rejected_before_any_solve(self, consts, monkeypatch):
        # t_end = 0 leaves no snapshot pair to score
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(analysis, "run_sharp", no_solve)
        monkeypatch.setattr(analysis, "diffuse_run", no_solve)
        cfg = StudyConfig(ShapeSpec(), CosineSpec(1.0), CosineSpec(0.3),
                          t_end=0.0, n_sharp=64)
        with pytest.raises(ValueError, match="t_end > 0"):
            analysis.bracket_check(cfg, consts.eps0, consts)
        with pytest.raises(ValueError, match="t_end > 0"):
            convergence_study(cfg, [0.2, 0.1])


class TestResidual:
    def test_zero_states_annihilated(self):
        grid = Grid.unit_square(32)
        v = ScalarField.from_function(grid, lambda x, y: 1 + 0.3 * x * y)
        zero = ScalarField.full(grid, 0.0)
        one = ScalarField.full(grid, 1.0)
        v_uniform = ScalarField.full(grid, 1.0)
        r0 = residual_Lv(zero, v, zero, ChiSpec.identity(), 0.05)
        np.testing.assert_allclose(r0.values, 0.0, atol=1e-12)
        r1 = residual_Lv(one, v_uniform, zero, ChiSpec.identity(), 0.05)
        np.testing.assert_allclose(r1.values, 0.0, atol=1e-10)

    def test_constant_chi_has_no_divergence_term(self):
        rng = np.random.default_rng(4)
        grid = Grid.unit_square(16)
        u = ScalarField(grid, rng.uniform(size=(16, 16)))
        v = ScalarField.from_function(grid, lambda x, y: 1 + 0.3 * x * y)
        u_t = ScalarField(grid, rng.normal(size=(16, 16)))
        r = residual_Lv(u, v, u_t, ChiSpec.constant(), 0.05)
        expected = (u_t.values - laplacian_neumann(u).values
                    - f_bistable(u.values) / 0.05**2)
        np.testing.assert_array_equal(r.values, expected)

    def test_slack_scaling(self):
        assert residual_slack(0.01, 1e-4, 0.1) == pytest.approx(
            5 * 0.0101 / 0.01)


class TestStudyPlumbing:
    def test_loglog_slope_exact_power(self):
        x = [0.04, 0.02, 0.01]
        y = [3.0 * xi**1.2 for xi in x]
        slope, intercept = fit_loglog_slope(x, y)
        assert slope == pytest.approx(1.2, abs=1e-12)
        assert math.exp(intercept) == pytest.approx(3.0, rel=1e-10)

    def test_grid_for_eps(self):
        assert grid_for_eps(0.02).nx == 200
        with pytest.raises(ConfigError):
            grid_for_eps(0.03)

    def test_eps_list_must_decrease(self):
        cfg = StudyConfig(ShapeSpec(), CosineSpec(), CosineSpec())
        with pytest.raises(ConfigError):
            convergence_study(cfg, [0.01, 0.02])

    def test_every_eps_checked_before_any_solve(self, monkeypatch):
        # 4/0.03 is no whole number of cells; the study used to solve the
        # sharp reference and the run at 0.04 before it found out
        calls = []
        monkeypatch.setattr(analysis, "sharp_reference",
                            lambda *args: calls.append(args))
        cfg = StudyConfig(ShapeSpec(), CosineSpec(), CosineSpec())
        with pytest.raises(ConfigError, match="eps = 0.03"):
            convergence_study(cfg, [0.04, 0.03])
        assert calls == []

    def test_small_study_structure(self):
        cfg = StudyConfig(
            ShapeSpec("circle", (0.5, 0.5), 0.25),
            CosineSpec(1.0, ((1, 1, 0.1),)), CosineSpec(0.3),
            t_end=1e-3, n_snapshots=2, n_sharp=64,
        )
        rec = convergence_study(cfg, [0.2, 0.1])
        assert rec.eps_list == [0.2, 0.1]
        assert len(rec.interface_distance) == 2
        assert all(d > 0 for d in rec.interface_distance)
        assert all(g >= 0 for g in rec.v_gap + rec.m_gap)
        assert len(rec.per_time_distance[0]) == 2
        assert "interface_slope" in rec.to_json()

    def test_refinement_order_at_least_linear(self):
        order, diffs = refinement_order(eps=0.1, t_end=5e-4, n_base=32)
        assert diffs[0] > diffs[1] > 0
        assert order >= 1.0

    def test_refinement_order_starts_from_the_runs_datum(self, monkeypatch):
        # width and prep_shift shape u0; refinement_order must build it as
        # diffuse_run does
        cfg = StudyConfig(ShapeSpec("circle", (0.5, 0.5), 0.25),
                          CosineSpec(1.0, ((1, 1, 0.2),)), CosineSpec(0.3),
                          width=0.05, prep_shift=0.5, t_end=0.0,
                          n_snapshots=1)
        u0 = diffuse_run(cfg, 0.1)[0][0].u.values
        starts = []

        def recording(s0, p, t_end, snapshot_times=()):
            starts.append(s0.u.values.copy())
            return run_diffuse(s0, p, t_end, snapshot_times)

        monkeypatch.setattr(analysis, "run_diffuse", recording)
        refinement_order(0.1, 1e-4, 40, cfg=cfg)
        np.testing.assert_array_equal(starts[0], u0)
