import math

import numpy as np
import pytest

from haptolab.diffuse import CosineSpec, ShapeSpec, StudyConfig
from haptolab.errors import ConstantsInfeasibleError
from haptolab.kernel import (
    SQRT2,
    ChiSpec,
    envelope_constants,
    envelope_p_q,
    f_bistable,
    f_prime,
    solve_profile_bvp,
    standing_profile,
    standing_profile_derivative,
)


def f_second(u):
    return -6.0 * u + 3.0


def standing_profile_second(z):
    # the chain rule on U = expit(-z/sqrt2), U' = -U(1 - U)/sqrt2
    u = standing_profile(z)
    return 0.5 * u * (1.0 - u) * (1.0 - 2.0 * u)


class TestBistable:
    def test_roots(self):
        assert f_bistable(0.0) == 0.0
        assert f_bistable(0.5) == 0.0
        assert f_bistable(1.0) == 0.0

    def test_slope_at_half(self):
        assert f_prime(0.5) == pytest.approx(0.25, abs=1e-15)

    def test_slope_at_wells(self):
        assert f_prime(0.0) == pytest.approx(-0.5, abs=1e-15)
        assert f_prime(1.0) == pytest.approx(-0.5, abs=1e-15)

    def test_odd_about_half(self):
        rng = np.random.default_rng(4)
        u = rng.uniform(-2, 3, size=500)
        assert np.abs(f_bistable(1 - u) + f_bistable(u)).max() < 1e-14

    def test_derivatives_by_finite_differences(self):
        u = np.linspace(-1, 2, 31)
        eps = 1e-6
        fp = (f_bistable(u + eps) - f_bistable(u - eps)) / (2 * eps)
        fs = (f_prime(u + eps) - f_prime(u - eps)) / (2 * eps)
        assert np.abs(fp - f_prime(u)).max() < 1e-8
        assert np.abs(fs - f_second(u)).max() < 1e-8


class TestStandingProfile:
    def test_midpoint(self):
        assert standing_profile(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry(self):
        z = np.linspace(-30, 30, 1001)
        assert np.abs(standing_profile(z) + standing_profile(-z) - 1).max() < 1e-14

    def test_ode_residual(self):
        z = np.linspace(-20, 20, 10_000)
        res = standing_profile_second(z) + f_bistable(standing_profile(z))
        assert np.abs(res).max() <= 1e-12

    def test_tail_bounds(self):
        # profile(z) * e^{z/sqrt2} <= 1 for z >= 0, symmetric on the left
        z = np.linspace(0, 40, 2000)
        assert np.all(standing_profile(z) * np.exp(z / SQRT2) <= 1 + 1e-12)
        # left tail: 1 - profile(-z) equals profile(z) exactly by symmetry,
        # which avoids the cancellation in evaluating the difference directly
        zs = np.linspace(-5, 5, 500)
        assert np.abs(1 - standing_profile(-zs) - standing_profile(zs)).max() < 1e-14

    def test_derivative_tail_decay(self):
        z = np.linspace(-40, 40, 4001)
        total = np.abs(standing_profile_derivative(z)) + np.abs(
            standing_profile_second(z)
        )
        # C = 1/sqrt(2) + 1/2 is the sharp constant; 1.3 leaves headroom
        assert np.all(total <= 1.3 * np.exp(-np.abs(z) / SQRT2))


class TestProfileBVP:
    def test_midpoint_pinned(self):
        table = solve_profile_bvp(12.0, 400)
        mid = table.u[len(table.u) // 2]
        assert abs(mid - 0.5) <= 1e-10

    def test_matches_closed_form(self):
        table = solve_profile_bvp(20.0, 4000)
        gap = np.abs(table.u - standing_profile(table.z)).max()
        assert gap <= 1e-6

    def test_strictly_decreasing(self):
        table = solve_profile_bvp(15.0, 600)
        assert np.all(np.diff(table.u) < 0)


class TestChiSpec:
    def test_default_identity(self):
        chi = ChiSpec.identity()
        v = np.linspace(0.1, 5, 50)
        assert np.allclose(chi.chi(v), v)
        assert np.allclose(chi.chi_prime(v), 1.0)

    def test_constant_variant_is_flat(self):
        chi = ChiSpec.constant(2.0)
        v = np.linspace(0.1, 5, 50)
        assert np.allclose(chi.chi(v), 2.0)
        assert np.all(chi.chi_prime(v) == 0.0)

    def test_rejects_nonincreasing(self):
        # chi = 2 - v is positive on the range (0, 1] of v0 = 1, chi' is not
        with pytest.raises(ValueError,
                           match=r"chi' must be positive on \(0, 1\]"):
            StudyConfig(ShapeSpec(), CosineSpec(1.0), CosineSpec(0.3),
                        chi=ChiSpec("linear", (2.0, -1.0)))

    @pytest.mark.parametrize("variant, coeffs", [
        ("linear", (1.0,)), ("linear", (0.0, 1.0, 2.0)), ("log1p", ()),
        ("constant", (1.0, 2.0)), ("polynomial", ())])
    def test_coefficient_count_checked(self, variant, coeffs):
        with pytest.raises(ValueError, match="numeric coeffs"):
            ChiSpec(variant, coeffs)

    def test_log1p_derivatives(self):
        chi = ChiSpec("log1p", (2.0,))
        v = np.linspace(0.5, 4, 20)
        eps = 1e-6
        fd = (chi.chi(v + eps) - chi.chi(v - eps)) / (2 * eps)
        assert np.abs(fd - chi.chi_prime(v)).max() < 1e-8


@pytest.fixture(scope="module")
def consts():
    return envelope_constants(T=0.02, d0=0.06, eps0=0.02, K=1.5)


class TestEnvelopeConstants:
    def test_feasibility_inequalities(self, consts):
        c = consts
        elt = math.exp(c.L * c.T)
        assert c.eps0**2 * c.L * elt <= 1.0
        assert elt + c.K <= c.d0 / (2 * c.eps0)

    def test_beta_is_quarter_margin(self, consts):
        assert consts.beta == pytest.approx(consts.m_f / 4)
        assert consts.m_f > 0
        assert consts.K > 1

    def test_sigma_below_admissible_bounds(self, consts):
        c = consts
        assert 0 < c.sigma < c.a1 / (c.m_f + c.F)
        assert c.sigma < 1 / (c.beta + 1)
        assert c.sigma < 4 * c.beta / (c.F * (c.beta + 1))

    def test_slope_spectral_inequality(self, consts):
        c = consts
        z = np.linspace(-20, 20, 20_001)
        lhs = -standing_profile_derivative(z) - c.sigma * f_prime(
            standing_profile(z)
        )
        assert np.all(lhs >= 4 * c.sigma * c.beta - 1e-13)

    def test_closed_forms_match_dense_samples(self):
        # F, m_f and a1 are extrema taken at interval ends; a dense scan
        # over each interval must find the same values
        z = np.linspace(-1.0, 2.0, 1_000_000)
        total = np.abs(f_bistable(z)) + np.abs(f_prime(z)) + np.abs(f_second(z))
        for b in (0.05, 0.1, 0.125, 0.2):
            c = envelope_constants(0.02, 0.06, 0.02, 1.5, b=b)
            assert c.F == total.max()
            wells = np.concatenate([np.linspace(0.0, b, 20_000),
                                    np.linspace(1.0 - b, 1.0, 20_000)])
            assert c.m_f == (-f_prime(wells)).min()
            z_edge = math.sqrt(2.0) * math.log((1.0 - b) / b)
            plateau = np.linspace(-z_edge, z_edge, 20_000)
            assert c.a1 == (-standing_profile_derivative(plateau)).min()

    def test_deterministic(self):
        a = envelope_constants(0.02, 0.06, 0.02, 1.5)
        b = envelope_constants(0.02, 0.06, 0.02, 1.5)
        assert a == b

    def test_infeasible_b_raises(self):
        # with b = 1/4 the margin min(-f') on the wells is negative
        with pytest.raises(ConstantsInfeasibleError):
            envelope_constants(0.02, 0.06, 0.02, 1.5, b=0.25)


class TestEnvelopePQ:
    def test_initial_values(self, consts):
        eps = consts.eps0 / 2
        p, q = envelope_p_q(0.0, eps, consts)
        assert p == pytest.approx(consts.K, abs=1e-14)
        assert q == pytest.approx(
            consts.sigma * (consts.beta + eps**2 * consts.L), abs=1e-14
        )

    def test_p_brackets(self, consts):
        eps = consts.eps0
        for t in np.linspace(0, consts.T, 101):
            p, q = envelope_p_q(float(t), eps, consts)
            assert consts.K - 1 <= p <= consts.d0 / (2 * consts.eps0)
            assert q > 0

    def test_q_is_scaled_p_derivative(self, consts):
        eps = consts.eps0 / 3
        dt = 1e-9 * consts.T
        for t in np.linspace(10 * dt, consts.T - 10 * dt, 7):
            p_m, _ = envelope_p_q(float(t - dt), eps, consts)
            p_p, _ = envelope_p_q(float(t + dt), eps, consts)
            _, q = envelope_p_q(float(t), eps, consts)
            fd = eps**2 * consts.sigma * (p_p - p_m) / (2 * dt)
            assert q == pytest.approx(fd, rel=1e-6)

    def test_p_strictly_increasing(self, consts):
        eps = consts.eps0 / 2
        ts = np.linspace(0, consts.T, 200)
        ps = [envelope_p_q(float(t), eps, consts)[0] for t in ts]
        assert np.all(np.diff(ps) > 0)
