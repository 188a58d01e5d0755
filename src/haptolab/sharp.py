"""Level-set tracking of the limiting free boundary.

The interface moves with normal velocity V = -(N-1) kappa + d chi(v)/dn,
realised as the PDE phi_t = K(phi) |grad phi| - grad chi(v) . grad phi on a
narrow band, where K is mean curvature times (N-1). The matrix field v obeys
the same exponential decay law as in the diffuse model, driven by the
enzymes of the limiting occupancy (the indicator of the inside region).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import (
    InterfaceCurve,
    distance_to_curve,
    extract_level_curve,
    signed_distance_to_loop,
)
from .diffuse import (
    HaptoParams,
    advance_vm,
    advection_dt,
    chi_gradient,
    march,
)
from .errors import (
    BoundaryContactError,
    DegenerateLevelSetError,
    EmptyLevelSetError,
    InterfaceExtinct,
)
from .grid import (
    Grid,
    ScalarField,
    _pad_mirror,
    gradient_centered,
)


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


def curvature_term(phi: ScalarField, band: np.ndarray) -> np.ndarray:
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
    if np.any(g2[band] < 1e-12):
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


def _upwind_advection(phi: np.ndarray, w, h: float,
                      band: np.ndarray) -> np.ndarray:
    """w . grad phi with first-order upwinding on the band; w = (wx, wy)."""
    wx, wy = w
    p = _pad_mirror(phi)
    dxm = (p[1:-1, 1:-1] - p[:-2, 1:-1]) / h
    dxp = (p[2:, 1:-1] - p[1:-1, 1:-1]) / h
    dym = (p[1:-1, 1:-1] - p[1:-1, :-2]) / h
    dyp = (p[1:-1, 2:] - p[1:-1, 1:-1]) / h
    out = np.zeros_like(phi)
    out[band] = (
        np.where(wx > 0, dxm, dxp)[band] * wx[band]
        + np.where(wy > 0, dym, dyp)[band] * wy[band]
    )
    return out


def step_sharp(s: SharpState, p: HaptoParams, dt: float, w,
               evolve_fields: bool = True) -> SharpState:
    """One explicit step of the interface law plus the (v, m) subsystem.

    w is the drift chi_gradient(s.v, p.chi); None (constant chi) means no
    drift, and the front moves by curvature alone. With evolve_fields=False
    the fields are frozen, which is exact for the haptotaxis-off oracle
    where they never feed back on the front.
    """
    grid = s.phi.grid
    phi = s.phi.values
    band = np.abs(phi) < 2.5 * s.d0

    phi = phi + dt * curvature_term(s.phi, band)
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


def _grow(mask: np.ndarray, rings: int) -> np.ndarray:
    """mask widened by `rings` rings of 4-neighbours, nothing beyond the
    grid's edge (scipy's binary_dilation with its default cross)."""
    for _ in range(rings):
        out = mask.copy()
        out[1:, :] |= mask[:-1, :]
        out[:-1, :] |= mask[1:, :]
        out[:, 1:] |= mask[:, :-1]
        out[:, :-1] |= mask[:, 1:]
        mask = out
    return mask


def front_cells(phi: np.ndarray, widen: int = 0) -> np.ndarray:
    """Cells adjacent to a sign change of phi, widened by `widen` rings.

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
    return _grow(mask, widen)


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

    gx, gy = gradient_centered(s.phi)
    gmag = np.clip(np.hypot(gx, gy), 0.25, 4.0)

    near = front_cells(phi, widen=1)
    X, Y = grid.meshgrid()
    far_pts = np.stack([X[~near], Y[~near]], axis=1)
    new = phi / gmag
    if far_pts.size:
        d = distance_to_curve(far_pts, curve)
        sign = np.where(phi[~near] < 0, -1.0, 1.0)
        vals = new.copy()
        vals[~near] = sign * d
        new = vals
    new = _clamp(new, s.d0)
    out = s.copy()
    out.phi = ScalarField(grid, new)
    return out


def run_sharp(s0: SharpState, p: HaptoParams, t_end: float,
              snapshot_times: tuple[float, ...] = (),
              evolve_fields: bool = True) -> list[SharpState]:
    """Advance to t_end, hitting each snapshot time exactly.

    After each step one pass over phi finds the front cells. It raises
    InterfaceExtinct if there are none, and BoundaryContactError if one
    comes closer to a wall than 4 d0. Between the two it redistances, on
    demand only, when |grad phi| within three cells of the front leaves
    [0.7, 1.5]: every redistancing carries an O(h^2) front perturbation,
    so a fixed cadence with dt ~ h^2 would accumulate an O(1) bias, and
    drift farther from the front is harmless. s0 itself is checked, not
    redistanced.
    """
    grid = s0.phi.grid
    margin = 4 * s0.d0
    X, Y = grid.meshgrid()
    near_wall = np.minimum(
        np.minimum(X - grid.origin[0], grid.xmax - X),
        np.minimum(Y - grid.origin[1], grid.ymax - Y),
    ) < margin - grid.h

    def front_pass(s: SharpState, fix_drift: bool) -> SharpState:
        phi = s.phi.values
        if phi.min() >= 0 or phi.max() <= 0:
            raise InterfaceExtinct(f"front vanished by t = {s.t:.6g}")
        front = front_cells(phi)
        if fix_drift:
            gx, gy = gradient_centered(s.phi)
            band = _grow(front, 3)
            mag = np.hypot(gx[band], gy[band])
            if mag.min() < 0.7 or mag.max() > 1.5:
                s = redistance(s)
                front = front_cells(s.phi.values)
        if np.any(near_wall[front]):
            raise BoundaryContactError(
                f"interface within {margin:.4f} of a wall at t = {s.t:.6g}"
            )
        return s

    front_pass(s0, fix_drift=False)

    def advance(s: SharpState, mark: float) -> SharpState:
        w = chi_gradient(s.v, p.chi)
        # the explicit curvature term needs dt <= h^2/6
        dt = min(grid.h**2 / 6.0, advection_dt(grid.h, w), mark - s.t)
        s = step_sharp(s, p, dt, w, evolve_fields=evolve_fields)
        return front_pass(s, fix_drift=True)

    return march(s0, t_end, snapshot_times, advance)
