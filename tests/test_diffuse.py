"""Tests for the diffuse solver against closed-form uniform solutions and
structural invariants (conservation, monotone matrix decay, exact snapshot
times)."""
import math

import numpy as np
import pytest

from haptolab.diffuse import (
    CosineSpec,
    DiffuseState,
    HaptoParams,
    ShapeSpec,
    chi_gradient,
    dt_max,
    initial_state,
    make_initial_data,
    run_diffuse,
    solve_vm_for_u,
    step_diffuse,
    uniform_state,
)
from haptolab.errors import InvalidInitialDataError, StabilityViolationError
from haptolab.grid import Grid, ScalarField
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

    def test_backward_euler_first_order_in_m(self):
        grid = Grid.unit_square(8)
        p = HaptoParams(eps=0.1, lam=1.0, alpha=1.0)
        errs = []
        for dt in (2e-3, 1e-3, 5e-4):
            s = march(uniform_state(grid, 0.0, 1.0, 1.0), p, 0.04, dt)
            errs.append(abs(s.m.values.mean() - math.exp(-0.04)))
        rates = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(1.7 < r < 2.3 for r in rates)


@pytest.fixture(scope="module")
def front_state():
    grid = Grid.unit_square(64)
    shape = ShapeSpec("circle", (0.5, 0.5), 0.25)
    data = make_initial_data(
        shape, width=0.05,
        v0_spec=CosineSpec(1.0, ((1, 1, 0.2),)),
        m0_spec=CosineSpec(0.3, ((2, 0, 0.1),)),
        grid=grid, d0=0.03,
    )
    return initial_state(data)


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

    def test_mass_conservation_transport_only(self, front_state):
        # constant chi and no reaction: the cell mass is exactly conserved
        p = HaptoParams(eps=0.08, lam=1.0, alpha=0.5,
                        chi=ChiSpec.constant(), reaction=False)
        s = front_state.copy()
        h2 = s.u.grid.h**2
        mass0 = s.u.values.sum() * h2
        for _ in range(30):
            w = chi_gradient(s.v, p.chi)
            s = step_diffuse(s, p, dt_max(p, s.u.grid, w), w)
        assert abs(s.u.values.sum() * h2 - mass0) < 1e-12

    def test_snapshot_times_exact(self, front_state):
        p = HaptoParams(eps=0.08, lam=1.0, alpha=1.0)
        times = (7e-4, 1.3e-3, 2e-3)
        snaps = run_diffuse(front_state, p, 2e-3, snapshot_times=times)
        assert [s.t for s in snaps] == [0.0, *times]

    def test_invariant_violation_detected(self):
        grid = Grid.unit_square(16)
        s = uniform_state(grid, 0.5, 1.0, 0.0)
        s.u.values[3, 3] = 2.5  # above C0
        with pytest.raises(StabilityViolationError):
            s.check_invariants(HaptoParams(eps=0.1, lam=1.0, alpha=1.0))


class TestInitialData:
    def test_clearance_rejected(self):
        grid = Grid.unit_square(32)
        with pytest.raises(InvalidInitialDataError, match="clearance"):
            make_initial_data(ShapeSpec("circle", (0.5, 0.5), 0.45), 0.05,
                              CosineSpec(), CosineSpec(), grid, d0=0.04)

    def test_negative_matrix_rejected(self):
        grid = Grid.unit_square(32)
        with pytest.raises(InvalidInitialDataError, match="nonnegative"):
            make_initial_data(ShapeSpec(), 0.05, CosineSpec(0.1, ((1, 1, 0.5),)),
                              CosineSpec(), grid)

    def test_star_shape_and_c2_bound(self):
        grid = Grid.unit_square(64)
        shape = ShapeSpec("star", (0.5, 0.5), 0.22, amp=0.04, k=5)
        data = make_initial_data(shape, 0.04, CosineSpec(1.0), CosineSpec(0.5),
                                 grid, d0=0.03)
        assert data.gamma0.is_simple()
        with pytest.raises(InvalidInitialDataError, match="C2 proxy"):
            make_initial_data(shape, 0.04, CosineSpec(1.0), CosineSpec(0.5),
                              grid, d0=0.03, c2_bound=1.0)

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

    def test_gradient_of_linear_chi(self):
        grid = Grid.unit_square(16)
        v = ScalarField.from_function(grid, lambda x, y: 2 * x - 0.5 * y)
        w = chi_gradient(v, ChiSpec.identity())
        np.testing.assert_allclose(w.x, 2.0, atol=1e-12)
        np.testing.assert_allclose(w.y, -0.5, atol=1e-12)
