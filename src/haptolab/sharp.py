"""Level-set tracking of the limiting free boundary.

The interface moves with normal velocity V = -(N-1) kappa + d chi(v)/dn,
realised as the PDE phi_t = K(phi) |grad phi| - grad chi(v) . grad phi on a
narrow band, where K is mean curvature times (N-1). The matrix field v obeys
the same exponential decay law as in the diffuse model, driven by the
enzymes of the limiting occupancy (the indicator of the inside region).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .curves import (
    InterfaceCurve,
    crossing_number_inside,
    distance_to_curve,
    extract_level_curve,
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
    InvalidCurveError,
)
from .grid import Grid, ScalarField


@dataclass
class SharpState:
    phi: ScalarField          # clamped signed distance, negative inside
    v: ScalarField
    m: ScalarField
    int_m: ScalarField
    t: float
    v_init: ScalarField
    d0: float                 # clamp scale; phi is exact within 2*d0

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


def _clamped_distance(points: np.ndarray, curve: InterfaceCurve,
                      neg: np.ndarray, d0: float) -> np.ndarray:
    """_clamp of the distance from points to the curve's loops, negated
    where neg is set, computed only where it can fall below the clamp's
    saturation at 3 d0.

    A point within 3 d0 of a segment has an end vertex within
    sqrt((3 d0)^2 + (L_max/2)^2) (distance_to_curve's bound), so the
    points farther from every vertex get inf, which _clamp maps to +-3 d0
    as it does any distance >= 3 d0. The 1e-9 keeps a point whose rounded
    distance could land just below 3 d0."""
    a, b = curve.segments()
    reach = np.sqrt((3 * d0)**2 * (1 + 1e-9)
                    + 0.25 * np.max(np.sum((b - a)**2, axis=1)))
    d, _ = cKDTree(a).query(points, distance_upper_bound=reach)
    close = np.isfinite(d)
    d[close] = distance_to_curve(points[close], curve)
    return _clamp(np.where(neg, -d, d), d0)


def clamped_signed_distance(curve: InterfaceCurve, grid: Grid,
                            d0: float) -> ScalarField:
    """_clamp(signed_distance_to_loop(curve, grid).values, d0), bit for
    bit: the same simplicity check and even-odd sign, with exact distances
    only for the cells the clamp does not saturate."""
    if not curve.is_simple():
        raise InvalidCurveError("interface polyline self-intersects")
    X, Y = grid.meshgrid()
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    inside = crossing_number_inside(pts, curve)
    return ScalarField(grid, _clamped_distance(pts, curve, inside, d0)
                       .reshape(X.shape))


def init_levelset(curve: InterfaceCurve, grid: Grid, v0: ScalarField,
                  m0: ScalarField, d0: float = 0.04) -> SharpState:
    phi = clamped_signed_distance(curve, grid, d0)
    return SharpState(phi=phi, v=v0, m=m0, int_m=ScalarField.full(grid, 0.0),
                      t=0.0, v_init=v0, d0=d0)


def _mirror_ghosts(p: np.ndarray) -> None:
    """Set the ghost ring of a padded grid to the cells next to it inside
    the grid, as np.pad(mode="edge") does."""
    p[0, 1:-1] = p[1, 1:-1]
    p[-1, 1:-1] = p[-2, 1:-1]
    p[:, 0] = p[:, 1]
    p[:, -1] = p[:, -2]


def _padded(values: np.ndarray) -> np.ndarray:
    """values inside a mirror ghost ring (`_mirror_ghosts`). A phi that
    `step_sharp` returned is the interior of such a grid already, which is
    returned with its ghosts refreshed instead of a copy."""
    nx, ny = values.shape
    p = values.base
    if (isinstance(p, np.ndarray) and p.shape == (nx + 2, ny + 2)
            and p.strides == values.strides
            and p[1:, 1:].ctypes.data == values.ctypes.data):
        _mirror_ghosts(p)
        return p
    return np.pad(values, 1, mode="edge")


def _padded_index(band: np.ndarray) -> np.ndarray:
    """The band cells' flat indices in the ravel of the padded grid, in
    the order of values[band]."""
    ny = band.shape[1]
    idx = np.flatnonzero(band)   # i ny + j
    # (i + 1)(ny + 2) + j + 1, the same cell in the padded grid
    return idx + 2 * (idx // ny) + ny + 3


def _band_stencil(values: np.ndarray, band: np.ndarray):
    """Where the band's stencils read: a new mirror-padded copy of the
    grid (a ghost cell equals its neighbour inside the grid,
    `_mirror_ghosts`), and the flat indices in its ravel of the band
    cells' 3x3 neighbourhoods, one column per cell in the order of
    values[band] and one row each for the cell, (i + 1, j), (i - 1, j),
    (i, j + 1), (i, j - 1), (i + 1, j + 1), (i + 1, j - 1), (i - 1, j + 1)
    and (i - 1, j - 1): the order `curvature_term` reads."""
    nx, ny = values.shape
    p = np.empty((nx + 2, ny + 2))
    p[1:-1, 1:-1] = values
    _mirror_ghosts(p)
    s = ny + 2
    offsets = np.array([0, s, -s, 1, -1, s + 1, s - 1, 1 - s, -1 - s])
    return p, _padded_index(band) + offsets[:, None]


def curvature_term(q: np.ndarray, h: float) -> np.ndarray:
    """(N-1) kappa |grad phi| via the quotient formula
    div(grad phi / |grad phi|) |grad phi|, for the band cells whose 3x3
    neighbourhoods q holds (phi gathered at `_band_stencil`'s indices);
    band-ordered. It runs in place: q's rows are its scratch, and the
    result is one of them.

    In the order it evaluates them, px = (xp - xm)/(2h),
    py = (yp - ym)/(2h), pxx = (xp - 2c + xm)/h^2, pyy = (yp - 2c + ym)/h^2,
    pxy = (pp - pm - mp + mm)/(4h^2), g2 = px^2 + py^2 and
    (pxx py^2 - 2 px py pxy + pyy px^2)/g2, capped at |grad phi|/h.
    """
    c, xp, xm, yp, ym, pp, pm, mp, mm = q
    pxy = pp
    pxy -= pm
    pxy -= mp
    pxy += mm
    pxy /= 4 * h**2
    px = np.subtract(xp, xm, out=pm)
    px /= 2 * h
    py = np.subtract(yp, ym, out=mp)
    py /= 2 * h
    c *= 2
    pxx = xp
    pxx -= c
    pxx += xm
    pxx /= h**2
    pyy = yp
    pyy -= c
    pyy += ym
    pyy /= h**2
    px2, py2 = np.square(px, out=xm), np.square(py, out=ym)
    g2 = np.add(px2, py2, out=c)
    if g2.min(initial=np.inf) < 1e-12:
        raise DegenerateLevelSetError(
            "level-set gradient collapsed inside the band; redistance"
        )
    num = pxx
    num *= py2
    cross = np.multiply(px, 2, out=mm)
    cross *= py
    cross *= pxy
    num -= cross
    pyy *= px2
    num += pyy
    num /= g2
    # the quotient formula blows up at interior extrema of phi (centers of
    # shrinking blobs); cap curvature at 1/h, the finest the grid resolves
    lim = np.sqrt(g2, out=ym)
    lim /= h
    np.maximum(num, np.negative(lim, out=xm), out=num)
    return np.minimum(num, lim, out=num)


def _upwind_stencil(nine: np.ndarray, w, band: np.ndarray):
    """For the drift w = (wx, wy): the flat indices of each band cell's
    upwind neighbours in x and in y, rows of `_band_stencil`'s nine, and
    (|wx|, |wy|) on the band."""
    wx, wy = w[0][band], w[1][band]
    up = np.stack([np.where(wx > 0, nine[2], nine[1]),
                   np.where(wy > 0, nine[4], nine[3])])
    return up, (np.abs(wx), np.abs(wy))


def _upwind_advection(c: np.ndarray, q_up: np.ndarray, a,
                      h: float) -> np.ndarray:
    """w . grad phi with first-order upwinding, band-ordered: c holds phi
    on the band cells, q_up phi at their upwind neighbours
    (`_upwind_stencil`) and a = (|wx|, |wy|). A cell with wx <= 0 reads its
    neighbour (i + 1, j), and (c - phi_up) |wx| equals
    (phi_up - c) wx bit for bit."""
    return (c - q_up[0]) / h * a[0] + (c - q_up[1]) / h * a[1]


def _band_gradient_norm(phi: np.ndarray, band: np.ndarray,
                        h: float) -> np.ndarray:
    """|grad phi| on the band cells, in the order of phi[band], equal to
    np.hypot(*np.gradient(phi, h, edge_order=1))[band]: centered
    differences inside, one-sided on the wall ring. At a wall the ghost
    equals the cell next to it, so the padded difference there is the
    one-sided one and only its divisor changes from 2h to h. It reads the
    padded grid `_padded` gives, the step's own for a phi `step_sharp`
    returned."""
    nx, ny = phi.shape
    buf, k, s = _padded(phi).ravel(), _padded_index(band), ny + 2
    i, j = np.divmod(k, s)
    dx = np.where((i == 1) | (i == nx), h, 2. * h)
    dy = np.where((j == 1) | (j == ny), h, 2. * h)
    return np.hypot((buf[k + s] - buf[k - s]) / dx,
                    (buf[k + 1] - buf[k - 1]) / dy)


STEP_STAGES = 5   # the stages of a full step; run_sharp's cap is their reach


def _rkl2_reach(stages: int, h: float) -> float:
    """The longest step RKL2 with `stages` stages takes at spacing h:
    (s^2 + s - 2)/4 explicit-Euler steps of h^2/3, the Euler bound h^2/2
    with a 1.5x margin (`run_sharp`)."""
    return h**2 / 3 * (stages * stages + stages - 2) / 4


def _rkl2_stages(dt: float, h: float) -> int:
    """The smallest s >= 2 with dt <= _rkl2_reach(s, h)."""
    s = 2
    while dt > _rkl2_reach(s, h):
        s += 1
    return s


def _rkl2_step(y0: np.ndarray, rate, dt: float, stages: int) -> np.ndarray:
    """y after one RKL2 step of y' = rate(y) from y0 over dt with `stages`
    stages (Meyer, Balsara and Aslam, JCP 257, 2014). With
    L_0 = dt rate(Y_0), Y_1 = Y_0 + mu~_1 L_0 and, for j = 2..s,

        Y_j = mu_j Y_(j-1) + nu_j Y_(j-2) + (1 - mu_j - nu_j) Y_0
              + mu~_j dt rate(Y_(j-1)) + gamma~_j L_0,

    and y = Y_s, where b_0 = b_1 = b_2 = 1/3, b_j = (j^2 + j - 2)/(2j(j + 1)),
    w_1 = 4/(s^2 + s - 2), mu~_1 = b_1 w_1, mu_j = (2j - 1) b_j/(j b_(j-1)),
    nu_j = -(j - 1) b_j/(j b_(j-2)), mu~_j = mu_j w_1 and
    gamma~_j = -(1 - b_(j-1)) mu~_j. It is second order and calls rate s
    times. A stage sums its five terms in that order on three rotating
    buffers, so rate's result is read before rate is called again and
    may be scratch that the next call overwrites."""
    b = [1 / 3] * 3 + [(j * j + j - 2) / (2 * j * (j + 1))
                       for j in range(3, stages + 1)]
    w1 = 4 / (stages * stages + stages - 2)
    l0 = dt * rate(y0)
    y = b[1] * w1 * l0
    y += y0
    prev, new = y0.copy(), np.empty_like(y0)
    for j in range(2, stages + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        nu = -(j - 1) / j * b[j] / b[j - 2]
        np.multiply(y, mu, out=new)
        prev *= nu
        new += prev
        new += np.multiply(y0, 1 - mu - nu, out=prev)
        new += np.multiply(rate(y), mu * w1 * dt, out=prev)
        new -= np.multiply(l0, (1 - b[j - 1]) * mu * w1, out=prev)
        prev, y, new = y, new, prev
    return y


def step_sharp(s: SharpState, p: HaptoParams, dt: float, w,
               evolve_fields: bool = True) -> SharpState:
    """One RKL2 super-step of the interface law plus the (v, m) subsystem.

    phi_t = K(phi) |grad phi| - w . grad phi is stepped on the band
    |phi| < 2.5 d0 of s.phi, taken once for the step; the cells off it keep
    their values. The step takes `_rkl2_stages(dt, h)` stages
    (`_rkl2_step`), 5 at `run_sharp`'s cap of 7 h^2/3. Every stage writes its band values into one
    mirror-padded buffer and gathers its stencils from there into one
    buffer of the step, which `curvature_term` works in. The new phi is
    the padded buffer's interior, where `run_sharp`'s front pass reads
    |grad phi| (`_padded`).

    w is the drift chi_gradient(s.v, p.chi); None (constant chi) means no
    drift, and the front moves by curvature alone. With evolve_fields=False
    the fields are frozen, which is exact for the haptotaxis-off oracle
    where they never feed back on the front.
    """
    grid = s.phi.grid
    h = grid.h
    band = np.abs(s.phi.values) < 2.5 * s.d0
    pad, nine = _band_stencil(s.phi.values, band)
    buf, k = pad.ravel(), nine[0]
    q = np.empty(nine.shape)
    if w is not None:
        up, a = _upwind_stencil(nine, w, band)
        q_up = np.empty(up.shape)

    def rate(y: np.ndarray) -> np.ndarray:
        buf[k] = y
        _mirror_ghosts(pad)
        out = curvature_term(np.take(buf, nine, out=q, mode="clip"), h)
        if w is not None:
            out -= _upwind_advection(
                y, np.take(buf, up, out=q_up, mode="clip"), a, h)
        return out

    buf[k] = _rkl2_step(buf[k], rate, dt, _rkl2_stages(dt, h))
    phi = pad[1:-1, 1:-1]   # `_padded` finds pad again from it

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
    grid's edge (scipy's binary_dilation with its default cross).

    Each ring ORs four shifts of the raveled mask, contiguous passes
    (column slices of a 2-D mask take twice as long). Each row is followed
    by `rings` zero columns: a shift by 1 past a row's end lands in them,
    and `rings` rings cannot cross them into the next row."""
    if not rings:
        return mask
    nx, ny = mask.shape
    s = ny + rings
    m = np.zeros((nx, s), dtype=bool)
    m[:, :ny] = mask
    m = m.ravel()
    for _ in range(rings):
        out = m.copy()
        out[s:] |= m[:-s]
        out[:-s] |= m[s:]
        out[1:] |= m[:-1]
        out[:-1] |= m[1:]
        m = out
    return m.reshape(nx, s)[:, :ny]


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
    contour and then clamped (`_clamped_distance`).
    """
    grid = s.phi.grid
    phi = s.phi.values
    try:
        curve = extract_level_curve(s.phi, 0.0)
    except EmptyLevelSetError as exc:
        raise InterfaceExtinct(
            f"zero level set vanished at t = {s.t:.6g}"
        ) from exc

    near = front_cells(phi, widen=1)
    gmag = np.clip(_band_gradient_norm(phi, near, grid.h), 0.25, 4.0)
    X, Y = grid.meshgrid()
    new = np.empty_like(phi)
    new[near] = _clamp(phi[near] / gmag, s.d0)
    new[~near] = _clamped_distance(np.stack([X[~near], Y[~near]], axis=1),
                                   curve, phi[~near] < 0, s.d0)
    return replace(s, phi=ScalarField(grid, new))


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

    The step's curvature and drift stencils and the pass's |grad phi| are
    evaluated on the cells they are read on only (`curvature_term`,
    `_upwind_advection`, `_band_gradient_norm`).

    Each step is one RKL2 super-step (`step_sharp`) with
    dt = min(7 h^2/3, advection_dt(h, w), mark - t) and s stages, the
    smallest s >= 2 with dt <= (h^2/3)(s^2 + s - 2)/4. The cap 7 h^2/3 is
    the full reach of 5 stages, `_rkl2_reach(STEP_STAGES, h)`, the bound
    the stage rule itself computes: 7 * h**2 / 3 rounds above it at
    n = 256 (and at every power of 2 from 32 to 512) and would take 6
    stages. The curvature term linearises to a
    tangential second difference whose symbol lies in [0, 4/h^2] for
    every direction and size of grad phi, so explicit Euler is stable to
    h^2/2 (Osher and Sethian, JCP 79, 1988). RKL2's stability polynomial
    R_s keeps |R_s(z)| <= 1 on [-(s^2 + s - 2)/2, 0], (s^2 + s - 2)/4
    Euler steps, so the stage rule keeps Euler's 1.5x margin at h^2/3.
    With a drift w, over the curvature symbols and first-order upwinding
    in every direction of w and every wavenumber, the step is stable
    unless h max|w| lies in [3/4, 0.774): there dt = h/(4 max|w|) <= h^2/3
    takes 2 stages, h (|wx| + |wy|) can reach 1.061, and the top mode
    grows by at most 4.13% a step. The drifts of the studies have
    h max|w| near 2.5e-3. On criterion 2's shrink (bound 1%) the worst
    radius error read 0.16% at 2 h^2, 0.11% at 7 h^2/3, 0.11% at 3 h^2,
    0.15% at 4 h^2, 0.54% at 5 h^2 and 0.27% at 6 h^2; 7 h^2 read 4.8%
    after 35 redistances, and 8 h^2 raised BoundaryContactError; 7 h^2/3
    is 3x below 7 h^2, the first step that failed.
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
            mag = _band_gradient_norm(phi, _grow(front, 3), grid.h)
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
        # the stage rule and the joint bound with drift: see the docstring
        dt = min(_rkl2_reach(STEP_STAGES, grid.h), advection_dt(grid.h, w),
                 mark - s.t)
        s = step_sharp(s, p, dt, w, evolve_fields=evolve_fields)
        return front_pass(s, fix_drift=True)

    return march(s0, t_end, snapshot_times, advance)
