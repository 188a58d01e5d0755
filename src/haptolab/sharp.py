"""Level-set tracking of the limiting free boundary.

The interface moves with normal velocity V = -(N-1) kappa + d chi(v)/dn,
realised as the PDE phi_t = K(phi) |grad phi| - grad chi(v) . grad phi on a
narrow band, where K is mean curvature times (N-1). The matrix field v obeys
the same exponential decay law as in the diffuse model, driven by the
enzymes of the limiting occupancy (the indicator of the inside region).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import binary_dilation

from .curves import (
    InterfaceCurve,
    crossing_number_inside,
    distance_to_curve,
    extract_level_curve,
)
from .diffuse import HaptoParams, advance_vm, chi_gradient
from .errors import (
    BoundaryContactError,
    DegenerateLevelSetError,
    EmptyLevelSetError,
    InterfaceExtinct,
    InvalidCurveError,
)
from .grid import Grid, ScalarField, VectorField, _pad_mirror


@dataclass
class SharpState:
    phi: ScalarField          # clamped signed distance, negative inside
    v: ScalarField
    m: ScalarField
    int_m: ScalarField
    t: float
    v_init: ScalarField
    d0: float                 # clamp scale; phi is exact within 2*d0

    def copy(self) -> "SharpState":
        return SharpState(self.phi.copy(), self.v.copy(), self.m.copy(),
                          self.int_m.copy(), self.t, self.v_init, self.d0)

    def interface(self) -> InterfaceCurve:
        return extract_level_curve(self.phi, 0.0)

    def indicator(self) -> ScalarField:
        return ScalarField(self.phi.grid,
                           (self.phi.values < 0).astype(float))


def signed_distance_to_loop(curve: InterfaceCurve, grid: Grid) -> ScalarField:
    """Exact signed distance from cell centers to a simple closed polyline,
    negative inside (even-odd rule)."""
    if not curve.is_simple():
        raise InvalidCurveError("interface polyline self-intersects")
    X, Y = grid.meshgrid()
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    d = distance_to_curve(pts, curve)
    inside = crossing_number_inside(pts, curve)
    return ScalarField(grid, np.where(inside, -d, d).reshape(X.shape))


def _clamp(values: np.ndarray, d0: float) -> np.ndarray:
    """Smooth odd clamp: identity on [-2 d0, 2 d0], saturating at 3 d0.

    The blend on [2 d0, 3 d0] is the cubic Hermite with unit slope at the
    inner edge and zero slope at the outer edge, so the clamped field stays
    C^1 and the near-interface distances are untouched.
    """
    s = np.abs(values) / d0
    x = np.clip((s - 2.0) / 1.0, 0.0, 1.0)
    blend = 2.0 + x * (1.0 + x * (1.0 - x))  # value 2 slope 1 -> value 3 slope 0
    out = d0 * np.where(s <= 2.0, s, blend)
    return np.sign(values) * out


def init_levelset(curve: InterfaceCurve, grid: Grid, v0: ScalarField,
                  m0: ScalarField, d0: float = 0.04) -> SharpState:
    phi = signed_distance_to_loop(curve, grid)
    phi = ScalarField(grid, _clamp(phi.values, d0))
    return SharpState(phi=phi, v=v0.copy(), m=m0.copy(),
                      int_m=ScalarField.full(grid, 0.0), t=0.0,
                      v_init=v0.copy(), d0=d0)


def curvature_term(phi: ScalarField, band: np.ndarray,
                   grad_floor: float = 1e-6) -> np.ndarray:
    """(N-1) kappa |grad phi| on the masked band via the quotient formula
    div(grad phi / |grad phi|) |grad phi|."""
    h = phi.grid.h
    p = _pad_mirror(phi.values)
    px = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2 * h)
    py = (p[1:-1, 2:] - p[1:-1, :-2]) / (2 * h)
    pxx = (p[2:, 1:-1] - 2 * p[1:-1, 1:-1] + p[:-2, 1:-1]) / h**2
    pyy = (p[1:-1, 2:] - 2 * p[1:-1, 1:-1] + p[1:-1, :-2]) / h**2
    pxy = (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2]) / (4 * h**2)
    g2 = px**2 + py**2
    if np.any(g2[band] < grad_floor**2):
        raise DegenerateLevelSetError(
            "level-set gradient collapsed inside the band; redistance"
        )
    num = pxx * py**2 - 2 * px * py * pxy + pyy * px**2
    out = np.zeros_like(phi.values)
    out[band] = num[band] / g2[band]
    # the quotient formula blows up at interior extrema of phi (centers of
    # shrinking blobs); cap curvature at 1/h, the finest the grid resolves
    lim = np.sqrt(g2[band]) / h
    out[band] = np.clip(out[band], -lim, lim)
    return out


def _upwind_advection(phi: np.ndarray, w: VectorField, h: float,
                      band: np.ndarray) -> np.ndarray:
    """w . grad phi with first-order upwinding on the band."""
    p = _pad_mirror(phi)
    dxm = (p[1:-1, 1:-1] - p[:-2, 1:-1]) / h
    dxp = (p[2:, 1:-1] - p[1:-1, 1:-1]) / h
    dym = (p[1:-1, 1:-1] - p[1:-1, :-2]) / h
    dyp = (p[1:-1, 2:] - p[1:-1, 1:-1]) / h
    out = np.zeros_like(phi)
    out[band] = (
        np.where(w.x > 0, dxm, dxp)[band] * w.x[band]
        + np.where(w.y > 0, dym, dyp)[band] * w.y[band]
    )
    return out


def sharp_dt_max(grid: Grid, w_max: float) -> float:
    bound = grid.h**2 / 6.0
    if w_max > 0:
        bound = min(bound, grid.h / (4.0 * w_max))
    return bound


def step_sharp(s: SharpState, p: HaptoParams, dt: float,
               w: VectorField | None, motion: bool = True,
               evolve_fields: bool = True) -> SharpState:
    """One explicit step of the interface law plus the (v, m) subsystem.

    w is the drift chi_gradient(s.v, p.chi), or None where chi is constant
    and there is none. With motion=False only v and m evolve
    (frozen-interface diagnostics); with evolve_fields=False the fields are
    frozen, which is exact for the haptotaxis-off oracle where they never
    feed back on the front.
    """
    grid = s.phi.grid
    phi = s.phi.values
    band = np.abs(phi) < 2.5 * s.d0

    if motion:
        kterm = curvature_term(s.phi, band)
        phi = phi + dt * kterm
        if w is not None:
            phi = phi - dt * _upwind_advection(s.phi.values, w, grid.h, band)

    if evolve_fields:
        u_ind = (s.phi.values < 0).astype(float)
        v_new, m_new, int_m = advance_vm(s.v_init, s.m, s.int_m, u_ind, p,
                                         dt)
    else:
        m_new, v_new, int_m = s.m, s.v, s.int_m

    out = SharpState(ScalarField(grid, phi), v_new, m_new,
                     int_m, s.t + dt, s.v_init, s.d0)
    out.phi.assert_finite("phi")
    return out


def front_cells(phi: np.ndarray, widen: int = 0) -> np.ndarray:
    """Cells adjacent to a sign change of phi, optionally dilated.

    Classifying front cells by |phi| alone misfires once interior level
    sets extinguish: the capped curvature flow leaves a slowly rising
    plateau whose values approach zero far from the actual front. A sign
    change cannot be faked that way.
    """
    neg = phi < 0
    mask = np.zeros_like(neg)
    cross_x = neg[1:, :] != neg[:-1, :]
    cross_y = neg[:, 1:] != neg[:, :-1]
    mask[1:, :] |= cross_x
    mask[:-1, :] |= cross_x
    mask[:, 1:] |= cross_y
    mask[:, :-1] |= cross_y
    if widen:
        mask = binary_dilation(mask, iterations=widen)
    return mask


def redistance(s: SharpState) -> SharpState:
    """Rebuild phi as a clamped signed distance without moving the front.

    Cells straddling the zero level (and one dilation ring) keep their value
    up to a rescaling by the local gradient magnitude (clipped to [1/4, 4]);
    the front position they encode is never replaced by a polyline
    projection, which would bias the motion. All other cells are rebuilt
    from the exact distance to the nearest loop of the extracted zero
    contour and then clamped.
    """
    grid = s.phi.grid
    phi = s.phi.values
    try:
        curve = extract_level_curve(s.phi, 0.0)
    except EmptyLevelSetError as exc:
        raise InterfaceExtinct(
            f"zero level set vanished at t = {s.t:.6g}"
        ) from exc

    h = grid.h
    p = _pad_mirror(phi)
    gx = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2 * h)
    gy = (p[1:-1, 2:] - p[1:-1, :-2]) / (2 * h)
    gmag = np.clip(np.hypot(gx, gy), 0.25, 4.0)

    near = front_cells(phi, widen=1)
    X, Y = grid.meshgrid()
    far_pts = np.stack([X[~near], Y[~near]], axis=1)
    new = phi / gmag
    if far_pts.size:
        d = distance_to_curve(far_pts, curve)
        for loop in curve.extras:
            d = np.minimum(d, distance_to_curve(far_pts,
                                                InterfaceCurve(loop, 0.0)))
        sign = np.where(phi[~near] < 0, -1.0, 1.0)
        vals = new.copy()
        vals[~near] = sign * d
        new = vals
    new = _clamp(new, s.d0)
    out = s.copy()
    out.phi = ScalarField(grid, new)
    return out


def _band_gradient_drifted(s: SharpState, lo: float, hi: float) -> bool:
    """Gradient quality near the zero level only; the front's motion sees
    stencils within a few cells of it, and drift farther out is harmless."""
    grid = s.phi.grid
    band = front_cells(s.phi.values, widen=3)
    if not np.any(band):
        return True
    gx, gy = np.gradient(s.phi.values, grid.h, grid.h)
    mag = np.hypot(gx, gy)[band]
    return bool(mag.min() < lo or mag.max() > hi)


def _wall_distance(grid: Grid) -> np.ndarray:
    X, Y = grid.meshgrid()
    return np.minimum(
        np.minimum(X - grid.origin[0], grid.xmax - X),
        np.minimum(Y - grid.origin[1], grid.ymax - Y),
    )


def _check_front(s: SharpState, margin: float, wall_dist: np.ndarray):
    """Cheap per-step guards: extinction and wall proximity, judged from
    the cells straddling the zero level."""
    grid = s.phi.grid
    phi = s.phi.values
    if phi.min() >= 0 or phi.max() <= 0:
        raise InterfaceExtinct(f"front vanished by t = {s.t:.6g}")
    front = front_cells(phi)
    if not np.any(front):
        return
    if float(wall_dist[front].min()) < margin - grid.h:
        raise BoundaryContactError(
            f"interface within {margin:.4f} of a wall at t = {s.t:.6g}"
        )


def run_sharp(s0: SharpState, p: HaptoParams, t_end: float,
              snapshot_times: tuple[float, ...] = (),
              wall_margin: float | None = None,
              grad_bounds: tuple[float, float] = (0.7, 1.5),
              evolve_fields: bool = True) -> list[SharpState]:
    """Advance to t_end, hitting each snapshot time exactly.

    Redistancing is on demand, only when the gradient magnitude in the band
    leaves grad_bounds: every redistancing carries an O(h^2) front
    perturbation, so a fixed cadence with dt ~ h^2 would accumulate an O(1)
    bias. Raises BoundaryContactError if the front approaches a wall closer
    than the margin (default 4 d0), InterfaceExtinct if it vanishes.
    """
    if t_end < s0.t:
        raise ValueError("t_end before current time")
    margin = 4 * s0.d0 if wall_margin is None else wall_margin
    marks = sorted({float(t) for t in snapshot_times} | {t_end})
    marks = [t for t in marks if t > s0.t]
    s = s0
    wall_dist = _wall_distance(s.phi.grid)
    _check_front(s, margin, wall_dist)
    snaps: list[SharpState] = [s.copy()]
    chi_off = p.chi.variant == "constant"
    for mark in marks:
        while s.t < mark - 1e-14:
            w = None if chi_off else chi_gradient(s.v, p.chi)
            w_max = 0.0 if w is None else w.max_norm()
            dt = min(sharp_dt_max(s.phi.grid, w_max), mark - s.t)
            s = step_sharp(s, p, dt, w, evolve_fields=evolve_fields)
            if _band_gradient_drifted(s, *grad_bounds):
                s = redistance(s)
            _check_front(s, margin, wall_dist)
        s.t = mark
        snaps.append(s.copy())
    return snaps
