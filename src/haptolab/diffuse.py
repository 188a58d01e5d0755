"""Time integration of the diffuse system: stiff bistable reaction with
haptotactic advection for the cells u, the ODE for the matrix v, and the
parabolic equation for the enzymes m.

One step is a Strang split: half reaction (RK4 on du/dt = f(u)/eps^2), full
transport (explicit diffusion + upwind advection for u, backward Euler for
m), trapezoid update of the accumulated enzyme integral with exact
exponential reconstruction of v, then the second half reaction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import ndimage
from scipy.special import expit

from .curves import InterfaceCurve, distance_to_curve
from .errors import InvalidInitialDataError, StabilityViolationError
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    advective_divergence,
    gradient_centered,
    helmholtz_solve_neumann,
    laplacian_neumann,
)
from .kernel import ChiSpec, f_bistable


@dataclass(frozen=True)
class HaptoParams:
    eps: float
    lam: float
    alpha: float
    chi: ChiSpec = field(default_factory=ChiSpec.identity)
    C0: float = 2.0
    reaction: bool = True  # off for pure-transport diagnostics

    def __post_init__(self):
        if self.eps <= 0 or self.lam <= 0 or self.alpha <= 0:
            raise ValueError("eps, lam and alpha must be positive")
        if self.C0 <= 1:
            raise ValueError("C0 must exceed 1")


@dataclass
class DiffuseState:
    u: ScalarField
    v: ScalarField
    m: ScalarField
    int_m: ScalarField
    t: float
    v_init: ScalarField  # frozen initial matrix field, basis of the v formula

    def copy(self) -> "DiffuseState":
        return DiffuseState(self.u.copy(), self.v.copy(), self.m.copy(),
                            self.int_m.copy(), self.t, self.v_init)

    def check_invariants(self, p: HaptoParams, tol: float = 1e-8):
        if np.any(self.u.values < -tol) or np.any(self.u.values > p.C0 + tol):
            raise StabilityViolationError(
                f"u outside [0, C0] at t={self.t}: "
                f"[{self.u.values.min():.3e}, {self.u.values.max():.3e}]; "
                "reduce dt"
            )
        if np.any(self.m.values < -tol) or np.any(self.m.values > p.C0 + tol):
            raise StabilityViolationError(f"m outside [0, C0] at t={self.t}")
        if np.any(self.v.values < -tol) \
                or np.any(self.v.values > self.v_init.values + tol):
            raise StabilityViolationError(f"v outside [0, v0] at t={self.t}")
        if np.any(self.int_m.values < -tol):
            raise StabilityViolationError("accumulated enzyme integral negative")


# --- initial data ---------------------------------------------------------

@dataclass(frozen=True)
class ShapeSpec:
    """Initial interface: circle or star-shaped polar curve
    r(theta) = r0 + amp * cos(k * theta)."""

    kind: str = "circle"
    center: tuple[float, float] = (0.5, 0.5)
    r0: float = 0.25
    amp: float = 0.0
    k: int = 0

    def __post_init__(self):
        if self.kind not in ("circle", "star"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if self.r0 <= 0 or self.r0 - abs(self.amp) <= 0:
            raise ValueError("shape radius must stay positive")

    def radius(self, theta):
        if self.kind == "circle":
            return np.full_like(np.asarray(theta, dtype=float), self.r0)
        return self.r0 + self.amp * np.cos(self.k * np.asarray(theta))

    def polyline(self, n: int = 1024) -> InterfaceCurve:
        th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        r = self.radius(th)
        pts = np.stack([self.center[0] + r * np.cos(th),
                        self.center[1] + r * np.sin(th)], axis=1)
        return InterfaceCurve(pts, level=0.5)

    def signed_distance(self, x, y) -> np.ndarray:
        """Signed distance to the curve, negative inside."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "circle":
            return np.hypot(x - self.center[0], y - self.center[1]) - self.r0
        curve = self.polyline(4096)
        pts = np.stack([x.ravel(), y.ravel()], axis=1)
        d = distance_to_curve(pts, curve)
        th = np.arctan2(y.ravel() - self.center[1], x.ravel() - self.center[0])
        inside = np.hypot(x.ravel() - self.center[0],
                          y.ravel() - self.center[1]) < self.radius(th)
        return np.where(inside, -d, d).reshape(x.shape)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "center": list(self.center), "r0": self.r0,
                "amp": self.amp, "k": self.k}

    @classmethod
    def from_dict(cls, d: dict) -> "ShapeSpec":
        return cls(d.get("kind", "circle"),
                   tuple(d.get("center", (0.5, 0.5))),
                   float(d.get("r0", 0.25)), float(d.get("amp", 0.0)),
                   int(d.get("k", 0)))


@dataclass(frozen=True)
class CosineSpec:
    """Neumann-compatible field built from cos(i pi x) cos(j pi y) modes."""

    constant: float = 1.0
    modes: tuple[tuple[int, int, float], ...] = ()

    def evaluate(self, grid: Grid) -> ScalarField:
        X, Y = grid.meshgrid()
        lx, ly = grid.lx, grid.ly
        x0, y0 = grid.origin
        out = np.full_like(X, self.constant)
        for i, j, amp in self.modes:
            out += amp * np.cos(i * np.pi * (X - x0) / lx) \
                * np.cos(j * np.pi * (Y - y0) / ly)
        return ScalarField(grid, out)

    def to_dict(self) -> dict:
        return {"constant": self.constant,
                "modes": [list(m) for m in self.modes]}

    @classmethod
    def from_dict(cls, d: dict) -> "CosineSpec":
        return cls(float(d.get("constant", 1.0)),
                   tuple((int(i), int(j), float(a))
                         for i, j, a in d.get("modes", ())))


@dataclass
class InitialData:
    u0: ScalarField
    v0: ScalarField
    m0: ScalarField
    gamma0: InterfaceCurve


def c2_proxy(f: ScalarField) -> float:
    """Grid shadow of the C^2 norm: sup |f| + sup |grad f| + sup |lap f|."""
    grad = gradient_centered(f)
    return float(
        np.abs(f.values).max()
        + np.sqrt(grad.x**2 + grad.y**2).max()
        + np.abs(laplacian_neumann(f).values).max()
    )


def make_initial_data(shape: ShapeSpec, width: float, v0_spec: CosineSpec,
                      m0_spec: CosineSpec, grid: Grid, d0: float = 0.04,
                      c2_bound: float | None = None,
                      smooth_interior: bool = False,
                      front_shift: float = 0.0) -> InitialData:
    """Build hypothesis-compliant initial data.

    u0 is a sigmoid of the signed distance to the interface (negative
    inside, so u0 > 1/2 there). The plain signed distance has a cone at the
    medial axis whose Laplacian spike fights the reaction; for circles,
    smooth_interior=True substitutes the parabolic argument
    (r0^2 - r^2)/(2 r0 width), which matches d/width at the interface but
    is smooth everywhere. front_shift displaces the sigmoid outward, so the
    u0 = 1/2 level sits at that distance outside the nominal interface
    (generic data for localization studies never sits exactly on the limit
    front). When c2_bound is given, the discrete C^2 proxies of the three
    fields must sum below it.
    """
    if width <= 0:
        raise InvalidInitialDataError("profile width must be positive")
    X, Y = grid.meshgrid()
    if smooth_interior:
        if shape.kind != "circle":
            raise InvalidInitialDataError(
                "smooth_interior profiles are defined for circles only"
            )
        if front_shift:
            raise InvalidInitialDataError(
                "front_shift applies to the sigmoid profile only"
            )
        r2 = (X - shape.center[0])**2 + (Y - shape.center[1])**2
        u0 = ScalarField(grid,
                         expit((shape.r0**2 - r2) / (2 * shape.r0 * width)))
    else:
        d = shape.signed_distance(X, Y)
        u0 = ScalarField(grid, expit(-(d - front_shift) / width))
    v0 = v0_spec.evaluate(grid)
    m0 = m0_spec.evaluate(grid)
    gamma0 = shape.polyline(max(1024, 8 * max(grid.nx, grid.ny)))
    gamma0 = InterfaceCurve(gamma0.points, level=0.5, grid=grid)

    gx = gamma0.points[:, 0]
    gy = gamma0.points[:, 1]
    clearance = min(
        (gx - grid.origin[0]).min(), (grid.xmax - gx).min(),
        (gy - grid.origin[1]).min(), (grid.ymax - gy).min(),
    )
    if clearance < 4 * d0:
        raise InvalidInitialDataError(
            f"interface clearance {clearance:.4f} below 4*d0 = {4 * d0:.4f}"
        )
    if np.any(v0.values < 0) or np.any(m0.values < 0):
        raise InvalidInitialDataError("v0 and m0 must be nonnegative")

    labels, count = ndimage.label(u0.values > 0.5)
    if count != 1:
        raise InvalidInitialDataError(
            f"{{u0 > 1/2}} has {count} components, expected one"
        )
    border = np.zeros_like(labels, dtype=bool)
    border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = True
    if np.any(labels[border] != 0):
        raise InvalidInitialDataError("{u0 > 1/2} touches the boundary")

    if c2_bound is not None:
        total = c2_proxy(u0) + c2_proxy(v0) + c2_proxy(m0)
        if total > c2_bound:
            raise InvalidInitialDataError(
                f"C2 proxy {total:.3f} exceeds bound {c2_bound:.3f}"
            )
    return InitialData(u0, v0, m0, gamma0)


def initial_state(data: InitialData) -> DiffuseState:
    grid = data.u0.grid
    return DiffuseState(
        u=data.u0.copy(), v=data.v0.copy(), m=data.m0.copy(),
        int_m=ScalarField.full(grid, 0.0), t=0.0, v_init=data.v0.copy(),
    )


def uniform_state(grid: Grid, u: float, v: float, m: float) -> DiffuseState:
    return DiffuseState(
        ScalarField.full(grid, u), ScalarField.full(grid, v),
        ScalarField.full(grid, m), ScalarField.full(grid, 0.0), 0.0,
        ScalarField.full(grid, v),
    )


# --- stepping -------------------------------------------------------------

def chi_gradient(v: ScalarField, chi: ChiSpec) -> VectorField:
    """grad chi(v) = chi'(v) grad v (haptotactic drift velocity)."""
    grad = gradient_centered(v)
    cp = chi.chi_prime(v.values)
    return VectorField(v.grid, cp * grad.x, cp * grad.y)


def dt_max(p: HaptoParams, grid: Grid, w: VectorField) -> float:
    """Explicit stability bound: diffusion CFL, reaction stiffness,
    advection CFL for the drift w = chi_gradient(v, p.chi)."""
    bound = min(grid.h**2 / 8.0, p.eps**2 / 10.0)
    w_max = w.max_norm()
    if w_max > 0:
        bound = min(bound, grid.h / (4.0 * w_max))
    return bound


def _reaction_half_step(u: np.ndarray, p: HaptoParams, half_dt: float
                        ) -> np.ndarray:
    if not p.reaction or half_dt == 0.0:
        return u
    inv = 1.0 / p.eps**2
    n_sub = max(1, int(math.ceil(half_dt / (p.eps**2 / 20.0))))
    dt = half_dt / n_sub
    for _ in range(n_sub):
        k1 = f_bistable(u) * inv
        k2 = f_bistable(u + 0.5 * dt * k1) * inv
        k3 = f_bistable(u + 0.5 * dt * k2) * inv
        k4 = f_bistable(u + dt * k3) * inv
        u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def advance_enzyme(m: ScalarField, source: np.ndarray, alpha: float,
                   dt: float) -> ScalarField:
    """Backward-Euler step of m_t = alpha lap(m) + source - m."""
    rhs = ScalarField(m.grid, m.values + dt * source)
    return helmholtz_solve_neumann(1.0 + dt, dt * alpha, rhs)


def advance_vm(v_init: ScalarField, m: ScalarField, int_m: ScalarField,
               source: np.ndarray, p: HaptoParams, dt: float
               ) -> tuple[ScalarField, ScalarField, ScalarField]:
    """One step of the (v, m) subsystem driven by the occupancy `source`.

    Backward Euler for m, the trapezoid rule for the enzyme integral, and
    the exact matrix v = v_init exp(-lam int m). Returns (v, m, int_m).
    """
    m_new = advance_enzyme(m, source, p.alpha, dt)
    int_new = int_m.values + 0.5 * dt * (m.values + m_new.values)
    v_new = v_init.values * np.exp(-p.lam * int_new)
    return (ScalarField(m.grid, v_new), m_new,
            ScalarField(m.grid, int_new))


def step_diffuse(s: DiffuseState, p: HaptoParams, dt: float,
                 w: VectorField, check: bool = True) -> DiffuseState:
    """One Strang-split step with the drift w = chi_gradient(s.v, p.chi);
    t advances by dt."""
    grid = s.u.grid
    u = _reaction_half_step(s.u.values, p, 0.5 * dt)

    uf = ScalarField(grid, u)
    u = u + dt * (laplacian_neumann(uf).values
                  - advective_divergence(uf, w).values)
    v_new, m_new, int_m = advance_vm(s.v_init, s.m, s.int_m, s.u.values,
                                     p, dt)

    u = _reaction_half_step(u, p, 0.5 * dt)

    out = DiffuseState(ScalarField(grid, u), v_new, m_new, int_m, s.t + dt,
                       s.v_init)
    out.u.assert_finite("u")
    out.m.assert_finite("m")
    if check:
        out.check_invariants(p)
    return out


def run_diffuse(s0: DiffuseState, p: HaptoParams, t_end: float,
                snapshot_times: tuple[float, ...] = (),
                check: bool = True) -> list[DiffuseState]:
    """Advance with automatic dt, hitting each snapshot time exactly."""
    if t_end < s0.t:
        raise ValueError("t_end before current time")
    marks = sorted({float(t) for t in snapshot_times} | {t_end})
    marks = [t for t in marks if t > s0.t]
    s = s0
    snaps: list[DiffuseState] = [s.copy()]
    for mark in marks:
        while s.t < mark - 1e-14:
            w = chi_gradient(s.v, p.chi)
            dt = min(dt_max(p, s.u.grid, w), mark - s.t)
            s = step_diffuse(s, p, dt, w, check=check)
        s = replace(s, t=mark)  # absorb round-off on the hit
        snaps.append(s.copy())
    return snaps


def solve_vm_for_u(times, u_fields, p: HaptoParams, v0: ScalarField,
                   m0: ScalarField, dt: float = 1e-3):
    """Integrate the (v, m) subsystem for a prescribed u history.

    times/u_fields describe u linearly in time; the steps are those of
    step_diffuse (advance_vm). Returns (times, v_fields, m_fields) sampled
    at the input times.
    """
    times = [float(t) for t in times]
    if len(times) != len(u_fields) or len(times) < 1:
        raise ValueError("times and u_fields must align")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    for uf in u_fields:
        if np.any(uf.values < -1e-12) or np.any(uf.values > p.C0 + 1e-12):
            raise ValueError("prescribed u outside [0, C0]")

    grid = v0.grid

    def u_at(t: float) -> np.ndarray:
        if t <= times[0]:
            return u_fields[0].values
        if t >= times[-1]:
            return u_fields[-1].values
        k = np.searchsorted(times, t) - 1
        w = (t - times[k]) / (times[k + 1] - times[k])
        return (1 - w) * u_fields[k].values + w * u_fields[k + 1].values

    m, int_m = m0, ScalarField.full(grid, 0.0)
    t = times[0]
    v_out = [v0.copy()]
    m_out = [m0.copy()]
    for mark in times[1:]:
        while t < mark - 1e-14:
            step = min(dt, mark - t)
            v, m, int_m = advance_vm(v0, m, int_m, u_at(t), p, step)
            t += step
        t = mark
        v_out.append(v)
        m_out.append(m)
    return times, v_out, m_out
