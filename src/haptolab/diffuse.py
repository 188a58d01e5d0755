"""Time integration of the diffuse system: stiff bistable reaction with
haptotactic advection for the cells u, the ODE for the matrix v, and the
parabolic equation for the enzymes m.

One step is a Strang split: half reaction (the exact flow of
du/dt = f(u)/eps^2), full transport (upwind advection, then exact diffusion
exp(dt*Laplacian) in the cosine basis for u; backward Euler for m),
trapezoid update of the accumulated enzyme integral with exact exponential
reconstruction of v, then the second half reaction. Each part keeps
u >= 0, and the reaction and the diffusion are exact, so only the split's
accuracy and the advection CFL bound the step (`dt_max`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import ndimage
from scipy.special import expit

from .curves import InterfaceCurve, signed_distance_to_loop
from .errors import InvalidInitialDataError, StabilityViolationError
from .grid import (
    Grid,
    ScalarField,
    advective_divergence,
    gradient_centered,
    heat_neumann,
    helmholtz_solve_neumann,
)
from .kernel import ChiSpec, is_number

C0 = 2.0  # the invariants' upper bound on u and m


@dataclass(frozen=True)
class HaptoParams:
    eps: float
    lam: float
    alpha: float
    chi: ChiSpec = field(default_factory=ChiSpec.identity)

    def __post_init__(self):
        if self.eps <= 0 or self.lam <= 0 or self.alpha <= 0:
            raise ValueError("eps, lam and alpha must be positive")


@dataclass
class DiffuseState:
    u: ScalarField
    v: ScalarField
    m: ScalarField
    int_m: ScalarField
    t: float
    v_init: ScalarField  # frozen initial matrix field, basis of the v formula

    def check_invariants(self):
        """Raise StabilityViolationError, naming the field, t, the worst
        cell, its value and the bound it broke, when u or m leaves [0, C0],
        v leaves [0, v_init] or int_m turns negative (beyond 1e-8)."""
        for name, f, hi in (("u", self.u.values, C0),
                            ("m", self.m.values, C0),
                            ("v", self.v.values, self.v_init.values),
                            ("int_m", self.int_m.values, np.inf)):
            if f.min() >= -1e-8 and np.all(f <= hi + 1e-8):
                continue
            excess = np.maximum(-f, f - hi)  # distance outside [0, hi]
            k = np.unravel_index(np.argmax(excess), f.shape)
            low = f[k] < 0
            bound = 0.0 if low else np.broadcast_to(hi, f.shape)[k]
            raise StabilityViolationError(
                f"{name}[{k[0]}, {k[1]}] = {f[k]:.6g} at t = {self.t:.6g}, "
                f"{'below' if low else 'above'} its bound {bound:.6g}"
            )


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
        if len(self.center) != 2 or not all(
                is_number(c) for c in self.center):
            raise ValueError("shape center must be two numbers")
        if not (is_number(self.r0) and is_number(self.amp)):
            raise ValueError("shape r0 and amp must be numbers")
        if self.r0 <= 0 or self.r0 - abs(self.amp) <= 0:
            raise ValueError("shape radius must stay positive")
        if not is_number(self.k, integer=True):
            raise ValueError(f"shape k must be an integer, got {self.k!r}")

    def radius(self, theta):
        if self.kind == "circle":
            return np.full_like(np.asarray(theta, dtype=float), self.r0)
        return self.r0 + self.amp * np.cos(self.k * np.asarray(theta))

    def polyline(self, n: int = 1024) -> InterfaceCurve:
        th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        r = self.radius(th)
        pts = np.stack([self.center[0] + r * np.cos(th),
                        self.center[1] + r * np.sin(th)], axis=1)
        return InterfaceCurve(pts)

    def signed_distance(self, grid: Grid) -> np.ndarray:
        """Signed distance from the cell centers to the curve, negative
        inside: the closed form for a circle, `signed_distance_to_loop` on
        a 4096-vertex polyline for a star."""
        if self.kind == "circle":
            X, Y = grid.meshgrid()
            return np.hypot(X - self.center[0], Y - self.center[1]) - self.r0
        return signed_distance_to_loop(self.polyline(4096), grid).values

    def to_dict(self) -> dict:
        return {"kind": self.kind, "center": list(self.center), "r0": self.r0,
                "amp": self.amp, "k": self.k}

    @classmethod
    def from_dict(cls, d: dict) -> "ShapeSpec":
        """From a dict holding every field, as `to_dict` writes it."""
        return cls(d["kind"], tuple(d["center"]), d["r0"], d["amp"], d["k"])


@dataclass(frozen=True)
class CosineSpec:
    """Neumann-compatible field built from cos(i pi x) cos(j pi y) modes."""

    constant: float = 1.0
    modes: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        if not is_number(self.constant):
            raise ValueError("a field's constant must be a number")
        for mode in self.modes:
            if not (len(mode) == 3 and is_number(mode[0], integer=True)
                    and is_number(mode[1], integer=True)
                    and is_number(mode[2])):
                raise ValueError(
                    f"a mode must be [i, j, amplitude] with integer i and "
                    f"j, got {list(mode)!r}")

    def evaluate(self, grid: Grid) -> ScalarField:
        """The field at the cell centers. It is an initial v0 or m0 for
        both solvers, so a negative value anywhere is rejected."""
        X, Y = grid.meshgrid()
        lx, ly = grid.lx, grid.ly
        x0, y0 = grid.origin
        out = np.full_like(X, self.constant)
        for i, j, amp in self.modes:
            out += amp * np.cos(i * np.pi * (X - x0) / lx) \
                * np.cos(j * np.pi * (Y - y0) / ly)
        low = out.min()
        if low < 0:
            raise InvalidInitialDataError(
                f"v0 and m0 must be nonnegative, got a field reaching {low:.6g}"
            )
        return ScalarField(grid, out)

    def to_dict(self) -> dict:
        return {"constant": self.constant,
                "modes": [list(m) for m in self.modes]}

    @classmethod
    def from_dict(cls, d: dict) -> "CosineSpec":
        """From a dict holding every field, as `to_dict` writes it."""
        return cls(d["constant"], tuple(tuple(m) for m in d["modes"]))


@dataclass(frozen=True)
class StudyConfig:
    """The inputs of a run: the initial front and fields, the model
    constants, the run's end and snapshots, and the shape of the initial
    cell profile. It checks its own fields on construction (ValueError),
    and a run builds its HaptoParams (`params`), initial state
    (`make_initial_data`) and marks (`snapshot_times`) from it. t_end may
    be 0, for a run that only builds its initial state."""

    shape: ShapeSpec
    v0_spec: CosineSpec
    m0_spec: CosineSpec
    lam: float = 1.0
    alpha: float = 1.0
    chi: ChiSpec = field(default_factory=ChiSpec.identity)
    t_end: float = 0.01
    n_snapshots: int = 4
    d0: float = 0.04
    n_sharp: int = 256
    # sigmoid width of the initial cell profile; None tracks the diffuse
    # length scale (sqrt(2) eps, the standing-wave width), while generation
    # experiments need an eps-independent value to satisfy the smooth-data
    # hypothesis
    width: float | None = None
    smooth_interior: bool = False
    # displacement of the prepared layer in units of eps; generic data for
    # localization studies carries a nonzero first-order offset, while zero
    # keeps the layer centered on the limit front
    prep_shift: float = 0.0

    def __post_init__(self):
        positive = ("lam", "alpha", "d0") + (
            () if self.width is None else ("width",))
        for name in positive:
            value = getattr(self, name)
            if not (is_number(value) and value > 0):
                raise ValueError(f"{name} must be a positive number")
        if not (is_number(self.t_end) and self.t_end >= 0):
            raise ValueError("t_end must be a nonnegative number")
        for name, least in (("n_sharp", 8), ("n_snapshots", 1)):
            value = getattr(self, name)
            if not (is_number(value, integer=True) and value >= least):
                raise ValueError(
                    f"{name} must be an integer of at least {least}")
        if not is_number(self.prep_shift):
            raise ValueError("prep_shift must be a number")
        if not isinstance(self.smooth_interior, bool):
            raise ValueError("smooth_interior must be true or false")
        if self.smooth_interior and (self.shape.kind != "circle"
                                     or self.prep_shift != 0):
            raise ValueError("smooth_interior profiles are defined for "
                             "circles with prep_shift 0 only")
        # v0 <= v_top, and the enzymes only degrade the matrix (v = v_init
        # exp(-lam int m)), so chi's signs matter on (0, v_top] only, if any
        v_top = self.v0_spec.constant + sum(abs(a) for *_, a
                                            in self.v0_spec.modes)
        v = np.linspace(v_top / 1000.0, v_top, 1000 if v_top > 0 else 0)
        if np.any(self.chi.chi(v) <= 0):
            raise ValueError(f"chi must be positive on (0, {v_top:g}]")
        if self.chi.variant != "constant" and np.any(
                self.chi.chi_prime(v) <= 0):
            raise ValueError(f"chi' must be positive on (0, {v_top:g}]")

    def snapshot_times(self) -> tuple[float, ...]:
        """The run's marks t_end k/n for 0 < k < n, then t_end itself:
        t_end n/n can miss t_end by an ulp, which would make a second
        mark."""
        n = self.n_snapshots
        return tuple(self.t_end * k / n for k in range(1, n)) + (self.t_end,)

    def params(self, eps: float) -> HaptoParams:
        """The model constants of a run at eps."""
        return HaptoParams(eps=eps, lam=self.lam, alpha=self.alpha,
                           chi=self.chi)


def make_initial_data(cfg: StudyConfig, eps: float, grid: Grid
                      ) -> DiffuseState:
    """The state at t = 0 of a run of cfg at eps, from hypothesis-compliant
    initial data.

    u0 is a sigmoid, of width cfg.width (sqrt(2) eps when None), of the
    signed distance to the interface (negative inside, so u0 > 1/2 there).
    The plain signed distance has a cone at the medial axis whose Laplacian
    spike fights the reaction; for circles, cfg.smooth_interior substitutes
    the parabolic argument (r0^2 - r^2)/(2 r0 width), which matches
    d/width at the interface but is smooth everywhere. cfg.prep_shift
    displaces the sigmoid outward, so the u0 = 1/2 level sits prep_shift *
    eps outside the nominal interface (generic data for localization
    studies never sits exactly on the limit front). The interface must
    clear the walls by 4 cfg.d0, and {u0 > 1/2} must be one component away
    from the boundary. The state starts with no enzyme integral and with
    v = v_init.
    """
    shape = cfg.shape
    width = cfg.width if cfg.width is not None else math.sqrt(2.0) * eps
    if cfg.smooth_interior:
        X, Y = grid.meshgrid()
        r2 = (X - shape.center[0])**2 + (Y - shape.center[1])**2
        u0 = ScalarField(grid,
                         expit((shape.r0**2 - r2) / (2 * shape.r0 * width)))
    else:
        d = shape.signed_distance(grid)
        u0 = ScalarField(grid, expit(-(d - cfg.prep_shift * eps) / width))
    v0 = cfg.v0_spec.evaluate(grid)
    m0 = cfg.m0_spec.evaluate(grid)
    gx, gy = shape.polyline(max(1024, 8 * max(grid.nx, grid.ny))).points.T
    clearance = min(
        (gx - grid.origin[0]).min(), (grid.xmax - gx).min(),
        (gy - grid.origin[1]).min(), (grid.ymax - gy).min(),
    )
    if clearance < 4 * cfg.d0:
        raise InvalidInitialDataError(
            f"interface clearance {clearance:.4f} below 4*d0 = "
            f"{4 * cfg.d0:.4f}"
        )

    labels, count = ndimage.label(u0.values > 0.5)
    if count != 1:
        raise InvalidInitialDataError(
            f"{{u0 > 1/2}} has {count} components, expected one"
        )
    border = np.zeros_like(labels, dtype=bool)
    border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = True
    if np.any(labels[border] != 0):
        raise InvalidInitialDataError("{u0 > 1/2} touches the boundary")
    return DiffuseState(u=u0, v=v0, m=m0, int_m=ScalarField.full(grid, 0.0),
                        t=0.0, v_init=v0)


# --- stepping -------------------------------------------------------------

def chi_gradient(v: ScalarField, chi: ChiSpec):
    """The haptotactic drift grad chi(v) = chi'(v) grad v as (wx, wy), or
    None for a constant chi, which has no drift. Both solvers skip their
    advection term, and its dt cap, when the drift is None."""
    if chi.variant == "constant":
        return None
    gx, gy = gradient_centered(v)
    cp = chi.chi_prime(v.values)
    return cp * gx, cp * gy


def advection_dt(h: float, w) -> float:
    """Advection CFL h / (4 max|w|) for the drift w; infinite for no drift
    (None) or a zero one."""
    if w is None:
        return math.inf
    w_max = float(np.sqrt(w[0]**2 + w[1]**2).max())
    return h / (4.0 * w_max) if w_max > 0 else math.inf


def dt_max(p: HaptoParams, grid: Grid, w) -> float:
    """Step bound: eps^2/5, the split's accuracy rule, and the advection CFL
    of the drift w = chi_gradient(v, p.chi), which None (constant chi)
    leaves out. Diffusion and the reaction are exact, so neither sets a
    stability bound, and the step does not shrink with h when there is no
    drift.

    The split is first order in dt: m's backward Euler takes the source
    from the start of the step. The rule is that m's time error stays
    within 10% of criterion 5's m-gap at every eps of the study. Against
    the same run at eps^2/40 (circle r 0.25, v0 = 1 + 0.2 cos(pi x)
    cos(pi y), m0 = 0.3 + 0.1 cos(2 pi x), t = 0.01, h = eps/4):

        eps   cap        m error  (share of the m-gap)  front error
        0.04  eps^2/10   7.3e-5   (3.4%)                1.6e-3 h
        0.04  eps^2/5    1.7e-4   (7.9%)                3.7e-3 h
        0.04  eps^2/2.5  3.6e-4   (16.7%, breaks it)    8.1e-3 h
        0.02  eps^2/5    4.8e-5   (4.0%)                1.8e-3 h
        0.01  eps^2/5    1.2e-5   (2.0%)                8.6e-4 h

    A longer cap needs an exact enzyme step.
    """
    return min(p.eps**2 / 5.0, advection_dt(grid.h, w))


def _reaction_half_step(u: np.ndarray, p: HaptoParams, half_dt: float
                        ) -> np.ndarray:
    """The exact flow of du/dt = f(u)/eps^2 over half_dt.

    With y = u - 1/2 the reaction is y' = y(1/4 - y^2)/eps^2, so y^2
    follows a logistic law and, with q = exp(-half_dt/(2 eps^2)),
    y <- y / sqrt(s + q(1 - s)) for s = 4y^2. Written so, it cannot
    overflow, it fixes 0, 1/2 and 1 exactly and maps [0, 1] into itself;
    y = 0 stays 0 when q underflows to 0 and the root would be 0/0.
    """
    if half_dt == 0.0:
        return u
    q = math.exp(-half_dt / (2.0 * p.eps**2))
    y = u - 0.5
    s = 4.0 * y * y
    # in place from here on: a fresh array per operation made the
    # half-step about 3x slower at n = 200
    root = 1.0 - s
    root *= q
    root += s
    np.sqrt(root, out=root)
    np.divide(y, root, out=y, where=y != 0.0)
    y += 0.5
    return y


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
                 w) -> DiffuseState:
    """One Strang-split step with the drift w = chi_gradient(s.v, p.chi);
    t advances by dt. With w None (constant chi) u is not advected."""
    grid = s.u.grid
    u = _reaction_half_step(s.u.values, p, 0.5 * dt)

    if w is not None:
        u = u - dt * advective_divergence(ScalarField(grid, u), w).values
    u = heat_neumann(ScalarField(grid, u), dt).values
    v_new, m_new, int_m = advance_vm(s.v_init, s.m, s.int_m, s.u.values,
                                     p, dt)

    u = _reaction_half_step(u, p, 0.5 * dt)

    out = DiffuseState(ScalarField(grid, u), v_new, m_new, int_m, s.t + dt,
                       s.v_init)
    out.u.assert_finite("u")
    out.m.assert_finite("m")
    out.check_invariants()
    return out


def march(s0, t_end: float, snapshot_times, advance) -> list:
    """The time-marching loop shared by every solver.

    advance(s, mark) returns the state one step on from s, without passing
    mark. The marks are the distinct snapshot times and t_end later than
    s0.t, in order; a state within 1e-14 of a mark has reached it. Returns
    s0 and the state at each mark, whose t is set to the mark exactly
    (absorbing round-off on the hit); no step writes into a state's arrays,
    so none is copied. A StabilityViolationError from advance is raised
    again with the number of its step, counted from 1, appended.
    """
    if t_end < s0.t:
        raise ValueError("t_end before current time")
    marks = sorted({float(t) for t in snapshot_times} | {t_end})
    s = s0
    snaps = [replace(s0)]
    step = 0
    for mark in (t for t in marks if t > s0.t):
        while s.t < mark - 1e-14:
            step += 1
            try:
                s = advance(s, mark)
            except StabilityViolationError as e:
                raise StabilityViolationError(f"{e}, at step {step}") from e
        s = replace(s, t=mark)
        snaps.append(s)
    return snaps


def run_diffuse(s0: DiffuseState, p: HaptoParams, t_end: float,
                snapshot_times: tuple[float, ...] = ()) -> list[DiffuseState]:
    """Advance with automatic dt, hitting each snapshot time exactly."""
    def advance(s: DiffuseState, mark: float) -> DiffuseState:
        w = chi_gradient(s.v, p.chi)
        return step_diffuse(s, p, min(dt_max(p, s.u.grid, w), mark - s.t), w)

    return march(s0, t_end, snapshot_times, advance)


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
        if np.any(uf.values < -1e-12) or np.any(uf.values > C0 + 1e-12):
            raise ValueError("prescribed u outside [0, C0]")

    def u_at(t: float) -> np.ndarray:
        if t <= times[0]:
            return u_fields[0].values
        if t >= times[-1]:
            return u_fields[-1].values
        k = np.searchsorted(times, t) - 1
        w = (t - times[k]) / (times[k + 1] - times[k])
        return (1 - w) * u_fields[k].values + w * u_fields[k + 1].values

    def advance(s: DiffuseState, mark: float) -> DiffuseState:
        step = min(dt, mark - s.t)
        v, m, int_m = advance_vm(v0, s.m, s.int_m, u_at(s.t), p, step)
        return replace(s, v=v, m=m, int_m=int_m, t=s.t + step)

    s0 = DiffuseState(u_fields[0], v0, m0, ScalarField.full(v0.grid, 0.0),
                      times[0], v0)
    snaps = march(s0, times[-1], times[1:], advance)
    return times, [s.v for s in snaps], [s.m for s in snaps]
