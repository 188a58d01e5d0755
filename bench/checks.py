"""Output checks computed apart from haptolab.

Every check takes plain numpy arrays (cell-centre samples on the unit
square, indexed [i, j] for the centre ((i + 1/2) h, (j + 1/2) h)) and raises
CheckFailure with a message naming the snapshot and the margin when the
output breaks a closed-form law or a property the method must have. Fronts
are found here as sign changes along lattice lines, interpolated linearly;
nothing in this module imports haptolab.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.special import expit


class CheckFailure(Exception):
    """An output broke a law or a property that every correct run keeps."""


@dataclass
class Snapshot:
    """One saved state of a solve, as plain arrays.

    `level` is the level-set function (negative inside) for the sharp
    solver and u for the diffuse solver; `u` is the cell density the enzyme
    equation sees (the inside indicator for the sharp solver).
    """

    t: float
    level: np.ndarray
    u: np.ndarray
    v: np.ndarray
    m: np.ndarray


# --- closed-form inputs ---------------------------------------------------

def centres(n: int) -> tuple[np.ndarray, np.ndarray]:
    c = (np.arange(n) + 0.5) / n
    return np.meshgrid(c, c, indexing="ij")


def cosine_field(n: int, constant: float, modes) -> np.ndarray:
    """constant + sum amp cos(i pi x) cos(j pi y) at the cell centres."""
    X, Y = centres(n)
    out = np.full((n, n), float(constant))
    for i, j, amp in modes:
        out += amp * np.cos(i * np.pi * X) * np.cos(j * np.pi * Y)
    return out


def smooth_disc_profile(n: int, centre, r0: float, width: float) -> np.ndarray:
    """u0 = expit((r0^2 - r^2) / (2 r0 width)), the smooth-interior datum."""
    X, Y = centres(n)
    r2 = (X - centre[0]) ** 2 + (Y - centre[1]) ** 2
    return expit((r0 ** 2 - r2) / (2.0 * r0 * width))


# --- fronts ---------------------------------------------------------------

def front_points(level: np.ndarray) -> np.ndarray:
    """Zero crossings of `level` along the lattice lines through the cell
    centres, interpolated linearly, as an (k, 2) array of points."""
    n = level.shape[0]
    c = (np.arange(n) + 0.5) / n
    out = []
    # pairs (i, j)-(i+1, j) along x, then (i, j)-(i, j+1) along y
    for a, b, along_x in ((level[:-1, :], level[1:, :], True),
                          (level[:, :-1], level[:, 1:], False)):
        i, j = np.nonzero((a < 0) != (b < 0))
        s = a[i, j] / (a[i, j] - b[i, j]) / n
        xy = [c[i] + s, c[j]] if along_x else [c[i], c[j] + s]
        out.append(np.stack(xy, axis=1))
    return np.concatenate(out)


def fit_circle(pts: np.ndarray) -> tuple[float, float, float]:
    """Algebraic least-squares circle (Kasa): centre x, centre y, radius."""
    x, y = pts[:, 0], pts[:, 1]
    A = np.stack([x, y, np.ones_like(x)], axis=1)
    (d, e, f), *_ = np.linalg.lstsq(A, -(x * x + y * y), rcond=None)
    cx, cy = -d / 2.0, -e / 2.0
    return float(cx), float(cy), float(math.sqrt(cx * cx + cy * cy - f))


def radial_modes(pts: np.ndarray, kmax: int = 8) -> tuple[float, np.ndarray]:
    """Least-squares Fourier modes of the front radius about the fitted
    circle's centre: r(theta) = c[0] + sum_k c[2k-1] cos k theta
    + c[2k] sin k theta. Fitting every mode up to kmax together keeps the
    square grid's cos 4 theta and cos 8 theta imprint out of the others.
    Returns the fitted circle's radius and c."""
    cx, cy, radius = fit_circle(pts)
    th = np.arctan2(pts[:, 1] - cy, pts[:, 0] - cx)
    r = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
    cols = [np.ones_like(th)]
    for k in range(1, kmax + 1):
        cols += [np.cos(k * th), np.sin(k * th)]
    c, *_ = np.linalg.lstsq(np.stack(cols, axis=1), r, rcond=None)
    return radius, c


def sin2_coefficient(fn, radius: float, m: int = 512) -> float:
    """sin 2 theta Fourier coefficient of fn(a, b, theta) on the circle of
    the given radius about the origin (trapezoid rule, spectrally exact)."""
    th = 2.0 * np.pi * np.arange(m) / m
    a, b = radius * np.cos(th), radius * np.sin(th)
    return float(2.0 * np.mean(fn(a, b, th) * np.sin(2.0 * th)))


def drift_sin2(radius: float, amp: float) -> float:
    """sin 2 theta coefficient of dv0/dr on a circle about (1/2, 1/2) for
    v0 = 1 + amp cos(pi x) cos(pi y) = 1 + amp sin(pi a) sin(pi b), with
    (a, b) = (x - 1/2, y - 1/2): the normal speed that linear chi adds."""
    pi = np.pi
    return sin2_coefficient(
        lambda a, b, th: amp * pi * (
            np.cos(pi * a) * np.sin(pi * b) * np.cos(th)
            + np.sin(pi * a) * np.cos(pi * b) * np.sin(th)), radius)


def divergence_sin2(radius: float, amp: float) -> float:
    """sin 2 theta coefficient of -Laplacian(v0) = 2 pi^2 amp sin(pi a)
    sin(pi b) on a circle about (1/2, 1/2)."""
    return sin2_coefficient(
        lambda a, b, th: 2.0 * np.pi ** 2 * amp
        * np.sin(np.pi * a) * np.sin(np.pi * b), radius)


def sharp_drift_mode(r0: float, t: float, amp: float,
                     steps: int = 50) -> float:
    """sin 2 theta amplitude of a circle's front at time t under
    V = -kappa + dv0/dn, to first order in amp: dA/dt = c2(R) - 3 A / R^2
    with R(t)^2 = r0^2 - 2t (curvature flow damps mode k at (k^2 - 1)/R^2).
    RK4 in t."""
    def rate(s, A):
        R2 = r0 * r0 - 2.0 * s
        return drift_sin2(math.sqrt(R2), amp) - 3.0 * A / R2
    A, s, dt = 0.0, 0.0, t / steps
    for _ in range(steps):
        k1 = rate(s, A)
        k2 = rate(s + dt / 2, A + dt / 2 * k1)
        k3 = rate(s + dt / 2, A + dt / 2 * k2)
        k4 = rate(s + dt, A + dt * k3)
        A += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        s += dt
    return A


def star_area(pts: np.ndarray) -> float:
    """Area of the polygon through the front points taken in angular order
    about their centroid; exact for a front that is star-shaped about it."""
    c = pts.mean(axis=0)
    order = np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]))
    x, y = pts[order, 0], pts[order, 1]
    return float(0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


# --- laws and properties --------------------------------------------------

def check_radius_law(snaps: list[Snapshot], r0: float, rel_tol: float = 0.01):
    """Curvature flow of a circle: r(t)^2 = r0^2 - 2t at every snapshot."""
    for k, s in enumerate(snaps):
        _, _, r = fit_circle(front_points(s.level))
        exact = math.sqrt(r0 ** 2 - 2.0 * s.t)
        err = abs(r - exact) / exact
        if not err <= rel_tol:
            raise CheckFailure(
                f"snapshot {k} (t={s.t:.6g}): fitted radius {r:.6f} vs "
                f"sqrt(r0^2 - 2t) = {exact:.6f}, error {err:.3%} > {rel_tol:.0%}")


def check_single_loop_clear(snaps: list[Snapshot], margin: float):
    """The front is one loop (inside and outside each connected) and every
    front point keeps `margin` from the walls."""
    for k, s in enumerate(snaps):
        neg = s.level < 0
        n_in = ndimage.label(neg)[1]
        n_out = ndimage.label(~neg)[1]
        if n_in != 1 or n_out != 1:
            raise CheckFailure(
                f"snapshot {k} (t={s.t:.6g}): {n_in} inside and {n_out} "
                "outside components, expected one loop")
        pts = front_points(s.level)
        clear = float(np.minimum(pts, 1.0 - pts).min())
        if not clear >= margin:
            raise CheckFailure(
                f"snapshot {k} (t={s.t:.6g}): front {clear:.4f} from a "
                f"wall, below {margin:.4f}")


def check_area_rate(snaps: list[Snapshot], rate: float, rel_tol: float):
    """dA/dt over each snapshot interval equals `rate` within rel_tol."""
    areas = [star_area(front_points(s.level)) for s in snaps]
    for k in range(len(snaps) - 1):
        dt = snaps[k + 1].t - snaps[k].t
        got = (areas[k + 1] - areas[k]) / dt
        if not abs(got - rate) <= rel_tol * abs(rate):
            raise CheckFailure(
                f"interval {k} (t={snaps[k].t:.6g}..{snaps[k + 1].t:.6g}): "
                f"dA/dt = {got:.5f} vs {rate:.5f}, beyond {rel_tol:.1%}")


def check_sharp_drift(snaps: list[Snapshot], r0: float, amp: float,
                      rel_tol: float):
    """The front's sin 2 theta mode, which only the haptotaxis drift
    excites, follows sharp_drift_mode within rel_tol at every snapshot
    after t = 0. A dropped drift gives 0 and a flipped one the negative."""
    for k, s in enumerate(snaps):
        if s.t == 0:
            continue
        _, c = radial_modes(front_points(s.level))
        want = sharp_drift_mode(r0, s.t, amp)
        if not abs(c[4] - want) <= rel_tol * abs(want):
            raise CheckFailure(
                f"snapshot {k} (t={s.t:.6g}): sin 2theta mode {c[4]:.4e} "
                f"vs drift law {want:.4e}, beyond {rel_tol:.0%}")


def check_diffuse_drift(snaps: list[Snapshot], r0: float, width: float,
                        amp: float):
    """The sin 2 theta mode of the u = 1/2 contour, which only the
    advection -div(u grad chi(v)) excites, lies between two first-order
    bounds at every snapshot after t = 0. On the contour the advection moves
    u's level set outward at dv0/dr + (1/2)(-Laplacian v0)/|grad u|, and
    both parts have the same sign in sin 2 theta. Lower bound: the transport
    part alone, at the contour's present radius R, damped by the mode's
    diffusive decay exp(-3t/R^2). Upper bound: both parts at r0, undamped,
    with |grad u| held at its initial value 1/(4 width) on the contour
    (the reaction only steepens it)."""
    for k, s in enumerate(snaps):
        if s.t == 0:
            continue
        R, c = radial_modes(front_points(s.u - 0.5))
        low = drift_sin2(R, amp) * s.t * math.exp(-3.0 * s.t / R ** 2)
        high = (drift_sin2(r0, amp)
                + 0.5 * divergence_sin2(r0, amp) * 4.0 * width) * s.t
        if not low <= c[4] <= high:
            raise CheckFailure(
                f"snapshot {k} (t={s.t:.6g}): sin 2theta mode of the u=1/2 "
                f"contour {c[4]:.4e} outside [{low:.4e}, {high:.4e}]")


def check_generation(u0: np.ndarray, u: np.ndarray, eps: float, eta: float,
                     M0: float):
    """Generation at t*: u in [-eta, 1 + eta]; u >= 1 - eta where
    u0 >= 1/2 + M0 eps, and u <= eta where u0 <= 1/2 - M0 eps."""
    upper = u0 >= 0.5 + M0 * eps
    lower = u0 <= 0.5 - M0 * eps
    if not (upper.any() and lower.any()):
        raise CheckFailure("a qualifying set is empty")
    bad_range = int(np.sum((u < -eta) | (u > 1.0 + eta)))
    bad_upper = int(np.sum(upper & (u < 1.0 - eta)))
    bad_lower = int(np.sum(lower & (u > eta)))
    if bad_range or bad_upper or bad_lower:
        raise CheckFailure(
            f"generation violated at t*: {bad_range} outside [-eta, 1+eta], "
            f"{bad_upper}/{int(upper.sum())} upper and "
            f"{bad_lower}/{int(lower.sum())} lower qualifying cells off "
            f"their well (eta={eta}, M0={M0})")


def check_matrix_decay(snaps: list[Snapshot], v0: np.ndarray,
                       tol: float = 1e-12):
    """0 <= v <= v0 everywhere, and v never increases between snapshots."""
    for k, s in enumerate(snaps):
        if s.v.min() < 0 or np.any(s.v > v0 + tol):
            raise CheckFailure(
                f"snapshot {k} (t={s.t:.6g}): v outside [0, v0], "
                f"max v - v0 = {float((s.v - v0).max()):.3e}")
    for k in range(len(snaps) - 1):
        rise = float((snaps[k + 1].v - snaps[k].v).max())
        if rise > 0:
            raise CheckFailure(
                f"v increased by {rise:.3e} between snapshots {k} and {k + 1}")


def check_enzyme_balance(snaps: list[Snapshot], rel_tol: float):
    """d<m>/dt = <u> - <m> between snapshots (no-flux walls conserve the
    diffusive part). The trapezoid of the right-hand side over each interval
    must match the change of <m> within rel_tol of |dt| * max|rhs|."""
    t = np.array([s.t for s in snaps])
    mm = np.array([s.m.mean() for s in snaps])
    rhs = np.array([s.u.mean() for s in snaps]) - mm
    for k in range(len(snaps) - 1):
        dt = t[k + 1] - t[k]
        want = 0.5 * dt * (rhs[k] + rhs[k + 1])
        got = mm[k + 1] - mm[k]
        scale = dt * max(abs(rhs[k]), abs(rhs[k + 1]))
        if not abs(got - want) <= rel_tol * scale:
            raise CheckFailure(
                f"interval {k}: <m> changed by {got:.6e}, the balance gives "
                f"{want:.6e} (tolerance {rel_tol * scale:.2e})")


def check_frozen_fields(snaps: list[Snapshot]):
    """With the fields frozen, v and m stay bitwise equal to the first."""
    for k, s in enumerate(snaps[1:], start=1):
        if not (np.array_equal(s.v, snaps[0].v)
                and np.array_equal(s.m, snaps[0].m)):
            raise CheckFailure(f"snapshot {k}: frozen v or m changed")


def check_final_time(snaps: list[Snapshot], t_end: float):
    if not snaps[-1].t == t_end:
        raise CheckFailure(
            f"last snapshot at t={snaps[-1].t!r}, expected {t_end!r}")


def digest(snaps: list[Snapshot]) -> str:
    """Hash of every snapshot's time and arrays, for the bitwise check."""
    h = hashlib.sha256()
    for s in snaps:
        h.update(np.float64(s.t).tobytes())
        for a in (s.level, s.u, s.v, s.m):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def check_same_as_first(first: str, snaps: list[Snapshot]):
    got = digest(snaps)
    if got != first:
        raise CheckFailure("solve output differs bitwise from the run's "
                           "first solve")
