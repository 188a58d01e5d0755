"""Bistable nonlinearity, standing-wave profile, haptotaxis sensitivity and
the envelope-constant calculator used by the sub/super-solution machinery."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import expit

from .errors import ConstantsInfeasibleError, SolverFailureError

SQRT2 = math.sqrt(2.0)


# --- bistable nonlinearity ------------------------------------------------

def f_bistable(u):
    """u(1-u)(u-1/2): balanced cubic with stable wells at 0 and 1."""
    return u * (1.0 - u) * (u - 0.5)


def f_prime(u):
    return -3.0 * u * u + 3.0 * u - 0.5


def f_second(u):
    return -6.0 * u + 3.0


# --- standing-wave profile ------------------------------------------------

def standing_profile(z):
    """Closed-form transition profile: 1 at -inf, 1/2 at 0, 0 at +inf."""
    return expit(-np.asarray(z, dtype=float) / SQRT2)


def standing_profile_derivative(z):
    u = standing_profile(z)
    return -(1.0 / SQRT2) * u * (1.0 - u)


def standing_profile_second(z):
    # from the profile ODE: second derivative = -f(profile)
    return -f_bistable(standing_profile(z))


@dataclass
class ProfileTable:
    z: np.ndarray
    u: np.ndarray


def solve_profile_bvp(half_width: float, n: int, tol: float = 1e-13,
                      max_iter: int = 30) -> ProfileTable:
    """Independent numerical oracle for the standing profile.

    Newton iteration on the Numerov discretization of u'' + f(u) = 0 on
    [-half_width, half_width], Dirichlet values taken from the closed-form
    tails. The phase is pinned at u(0) = 1/2 by symmetrizing the converged
    iterate (the discrete problem is symmetric under u -> 1 - reversed(u)).
    """
    if half_width < 10:
        raise ValueError("half_width must be at least 10")
    if n < 100:
        raise ValueError("n must be at least 100")
    if n % 2:
        n += 1
    z = np.linspace(-half_width, half_width, n + 1)
    hz = z[1] - z[0]
    delta = float(standing_profile(half_width))
    u = np.asarray(standing_profile(z), dtype=float)
    u[0], u[-1] = 1.0 - delta, delta

    w = hz * hz / 12.0
    for _ in range(max_iter):
        fu = f_bistable(u)
        res = (u[2:] - 2.0 * u[1:-1] + u[:-2]
               + w * (fu[2:] + 10.0 * fu[1:-1] + fu[:-2]))
        if np.abs(res).max() <= tol:
            break
        fp = f_prime(u)
        diag = -2.0 + 10.0 * w * fp[1:-1]
        lower = 1.0 + w * fp[1:-2]
        upper = 1.0 + w * fp[2:-1]
        ab = np.zeros((3, n - 1))
        ab[0, 1:] = upper
        ab[1, :] = diag
        ab[2, :-1] = lower
        du = solve_banded((1, 1), ab, -res)
        u[1:-1] += du
    else:
        raise SolverFailureError(
            f"profile Newton did not reach {tol:.1e} in {max_iter} iterations"
        )
    # phase normalization: enforce the odd symmetry about (0, 1/2)
    u = 0.5 * (u + 1.0 - u[::-1])
    return ProfileTable(z, u)


# --- haptotaxis sensitivity ----------------------------------------------

@dataclass(frozen=True)
class ChiSpec:
    """Smooth sensitivity chi(v) with chi > 0, chi' > 0 on (0, v_max].

    The 'constant' variant (chi' = 0) is the haptotaxis-off switch used by
    the mean-curvature-flow oracles and is exempt from the chi' > 0 check.
    """

    variant: str = "linear"
    coeffs: tuple[float, ...] = (0.0, 1.0)
    v_max: float = 10.0

    def __post_init__(self):
        if self.variant not in ("linear", "log1p", "polynomial", "constant"):
            raise ValueError(f"unknown chi variant {self.variant!r}")
        v = np.linspace(self.v_max / 1000.0, self.v_max, 1000)
        if np.any(self.chi(v) <= 0):
            raise ValueError("chi must be positive on (0, v_max]")
        if self.variant != "constant" and np.any(self.chi_prime(v) <= 0):
            raise ValueError("chi' must be positive on (0, v_max]")

    @classmethod
    def identity(cls) -> "ChiSpec":
        return cls("linear", (0.0, 1.0))

    @classmethod
    def constant(cls, c: float = 1.0) -> "ChiSpec":
        return cls("constant", (float(c),))

    def chi(self, v):
        v = np.asarray(v, dtype=float)
        if self.variant == "constant":
            return np.full_like(v, self.coeffs[0])
        if self.variant == "linear":
            a, b = self.coeffs
            return a + b * v
        if self.variant == "log1p":
            return self.coeffs[0] * np.log1p(v)
        return np.polynomial.polynomial.polyval(v, self.coeffs)

    def chi_prime(self, v):
        v = np.asarray(v, dtype=float)
        if self.variant == "constant":
            return np.zeros_like(v)
        if self.variant == "linear":
            return np.full_like(v, self.coeffs[1])
        if self.variant == "log1p":
            return self.coeffs[0] / (1.0 + v)
        der = np.polynomial.polynomial.polyder(self.coeffs)
        return np.polynomial.polynomial.polyval(v, der)

    def chi_second(self, v):
        v = np.asarray(v, dtype=float)
        if self.variant in ("constant", "linear"):
            return np.zeros_like(v)
        if self.variant == "log1p":
            return -self.coeffs[0] / (1.0 + v) ** 2
        der2 = np.polynomial.polynomial.polyder(self.coeffs, 2)
        return np.polynomial.polynomial.polyval(v, der2)

    def to_dict(self) -> dict:
        return {"variant": self.variant, "coeffs": list(self.coeffs),
                "v_max": self.v_max}

    @classmethod
    def from_dict(cls, d: dict) -> "ChiSpec":
        return cls(d.get("variant", "linear"),
                   tuple(d.get("coeffs", (0.0, 1.0))),
                   float(d.get("v_max", 10.0)))


# --- envelope constants ---------------------------------------------------

@dataclass(frozen=True)
class EnvelopeConstants:
    """Constants of the sub/super-solution envelopes.

    m_f is the spectral margin of the nonlinearity near its stable wells
    (named to avoid collision with the enzyme field m); a1 bounds the profile
    slope on the transition plateau; b is the well threshold in (0, 1/2).
    """

    beta: float
    sigma: float
    L: float
    K: float
    eps0: float
    d0: float
    T: float
    F: float
    m_f: float
    a1: float
    b: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "EnvelopeConstants":
        return cls(**json.loads(s))


def sup_f_bound(samples: int = 1_000_000) -> float:
    """sup over [-1, 2] of |f| + |f'| + |f''| by dense sampling."""
    z = np.linspace(-1.0, 2.0, samples)
    total = np.abs(f_bistable(z)) + np.abs(f_prime(z)) + np.abs(f_second(z))
    return float(total.max())


def envelope_constants(T: float, d0: float, eps0: float, K: float,
                       b: float = 0.125, samples: int = 1_000_000,
                       max_shrink: int = 80) -> EnvelopeConstants:
    """Compute the envelope constants, shrinking eps0 until both feasibility
    inequalities hold."""
    if T <= 0 or d0 <= 0 or eps0 <= 0:
        raise ValueError("T, d0 and eps0 must be positive")
    if K <= 1:
        raise ValueError("K must exceed 1")
    if not 0 < b < 0.5:
        raise ValueError("b must lie in (0, 1/2)")

    F = sup_f_bound(samples)
    wells = np.concatenate([
        np.linspace(0.0, b, 20_000), np.linspace(1.0 - b, 1.0, 20_000)
    ])
    m_f = float((-f_prime(wells)).min())
    if m_f <= 0:
        raise ConstantsInfeasibleError(
            f"no spectral margin at b={b}: f' is not <= 0 on the wells"
        )
    # slope bound on the plateau {z : profile in [b, 1-b]}
    z_edge = SQRT2 * math.log((1.0 - b) / b)
    z = np.linspace(-z_edge, z_edge, 20_000)
    a1 = float((-standing_profile_derivative(z)).min())

    beta = m_f / 4.0
    sigma0 = a1 / (m_f + F)
    sigma1 = 1.0 / (beta + 1.0)
    sigma2 = 4.0 * beta / (F * (beta + 1.0))
    sigma = 0.9 * min(sigma0, sigma1, sigma2)

    eps = float(eps0)
    for _ in range(max_shrink):
        if eps < d0 / 4.0:
            L = math.log(d0 / (4.0 * eps)) / T
            elt = d0 / (4.0 * eps)  # e^{L T}
            if eps * eps * L * elt <= 1.0 and elt + K <= d0 / (2.0 * eps):
                return EnvelopeConstants(beta, sigma, L, K, eps, d0, T,
                                         F, m_f, a1, b)
        eps *= 0.5
    raise ConstantsInfeasibleError(
        f"no feasible eps0 below {eps0} for d0={d0}, K={K}, T={T}"
    )


def envelope_p_q(t: float, eps: float, c: EnvelopeConstants) -> tuple[float, float]:
    """Envelope shift p(t) and lift q(t); q = eps^2 * sigma * p'(t)."""
    if not 0.0 <= t <= c.T:
        raise ValueError("t outside [0, T]")
    if not 0.0 < eps <= c.eps0:
        raise ValueError("eps outside (0, eps0]")
    slow = math.exp(-c.beta * t / eps**2)
    fast = math.exp(c.L * t)
    p = -slow + fast + c.K
    q = c.sigma * (c.beta * slow + eps**2 * c.L * fast)
    return p, q
