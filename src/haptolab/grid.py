"""Uniform square-cell grid, scalar fields and Neumann-aware operators.

Fields are sampled at cell centers; homogeneous Neumann walls are realized by
a mirror (even) ghost ring, so the discrete normal difference across every
wall vanishes identically.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid of square cells."""

    nx: int
    ny: int
    h: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError("grid needs at least 8 cells per axis")
        if not self.h > 0:
            raise ValueError("spacing must be positive")

    @classmethod
    def unit_square(cls, n: int) -> "Grid":
        return cls(n, n, 1.0 / n)

    @property
    def lx(self) -> float:
        return self.nx * self.h

    @property
    def ly(self) -> float:
        return self.ny * self.h

    @property
    def xmax(self) -> float:
        return self.origin[0] + self.lx

    @property
    def ymax(self) -> float:
        return self.origin[1] + self.ly

    def x_centers(self) -> np.ndarray:
        return self.origin[0] + (np.arange(self.nx) + 0.5) * self.h

    def y_centers(self) -> np.ndarray:
        return self.origin[1] + (np.arange(self.ny) + 0.5) * self.h

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-center coordinates as (nx, ny) arrays."""
        return np.meshgrid(self.x_centers(), self.y_centers(), indexing="ij")


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise ValueError("values shape does not match grid")

    @classmethod
    def full(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full((grid.nx, grid.ny), float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        X, Y = grid.meshgrid()
        return cls(grid, np.asarray(fn(X, Y), dtype=float))

    def assert_finite(self, what: str = "field"):
        if not np.all(np.isfinite(self.values)):
            raise FloatingPointError(f"{what} contains non-finite values")


def _pad_mirror(values: np.ndarray) -> np.ndarray:
    # ghost cell = adjacent interior cell (even reflection across the wall)
    return np.pad(values, 1, mode="edge")


def laplacian_neumann(f: ScalarField) -> ScalarField:
    """5-point Laplacian with mirror ghosts (homogeneous Neumann walls)."""
    p = _pad_mirror(f.values)
    lap = (
        p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:]
        - 4.0 * p[1:-1, 1:-1]
    ) / f.grid.h**2
    return ScalarField(f.grid, lap)


def gradient_centered(f: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """(df/dx, df/dy): centered differences in the interior, one-sided on
    the boundary ring."""
    return np.gradient(f.values, f.grid.h, edge_order=1)


def advective_divergence(u: ScalarField, w) -> ScalarField:
    """Conservative upwind divergence of the flux u*w with zero wall flux;
    w is a velocity (wx, wy) of two arrays."""
    h = u.grid.h
    uv = u.values
    wx, wy = w
    # face velocities by averaging; walls excluded (flux 0 there)
    wfx = 0.5 * (wx[:-1, :] + wx[1:, :])
    wfy = 0.5 * (wy[:, :-1] + wy[:, 1:])
    ufx = np.where(wfx > 0.0, uv[:-1, :], uv[1:, :])
    ufy = np.where(wfy > 0.0, uv[:, :-1], uv[:, 1:])
    fx = np.zeros((u.grid.nx + 1, u.grid.ny))
    fy = np.zeros((u.grid.nx, u.grid.ny + 1))
    fx[1:-1, :] = ufx * wfx
    fy[:, 1:-1] = ufy * wfy
    div = (fx[1:, :] - fx[:-1, :]) / h + (fy[:, 1:] - fy[:, :-1]) / h
    return ScalarField(u.grid, div)


def interpolate_bilinear(f: ScalarField, p) -> float | np.ndarray:
    """Bilinear interpolation of cell-center samples at point(s) p.

    Accepts a single (x, y) pair or an (..., 2) array. Within half a cell of a
    wall the formula extrapolates from the outermost cell pair, which keeps it
    exact for affine fields everywhere in the domain rectangle.
    """
    g = f.grid
    pts = np.asarray(p, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    x, y = pts[..., 0], pts[..., 1]
    tol = 1e-12 * max(g.lx, g.ly)
    if np.any(x < g.origin[0] - tol) or np.any(x > g.xmax + tol) \
            or np.any(y < g.origin[1] - tol) or np.any(y > g.ymax + tol):
        raise OutOfDomainError("interpolation point outside the grid rectangle")
    gx = (x - g.origin[0]) / g.h - 0.5
    gy = (y - g.origin[1]) / g.h - 0.5
    i0 = np.clip(np.floor(gx).astype(int), 0, g.nx - 2)
    j0 = np.clip(np.floor(gy).astype(int), 0, g.ny - 2)
    tx = gx - i0
    ty = gy - j0
    v = f.values
    out = (
        v[i0, j0] * (1 - tx) * (1 - ty)
        + v[i0 + 1, j0] * tx * (1 - ty)
        + v[i0, j0 + 1] * (1 - tx) * ty
        + v[i0 + 1, j0 + 1] * tx * ty
    )
    return float(out[0]) if single else out


@functools.lru_cache(maxsize=8)
def _laplacian_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of the 5-point mirror-ghost Laplacian on grid, one per
    tensor cosine mode: the sum of the 1-D second difference's
    (2 cos(pi k / n) - 2) / h^2 on each axis. Built once per grid (Grid
    is frozen, so it keys the cache) and read-only."""
    lx, ly = ((2.0 * np.cos(np.pi * np.arange(n) / n) - 2.0) / grid.h**2
              for n in (grid.nx, grid.ny))
    lam = lx[:, None] + ly[None, :]
    lam.flags.writeable = False
    return lam


def _in_cosine_basis(f: ScalarField, act) -> ScalarField:
    """Apply an operator that is diagonal in the tensor cosine basis:
    transform f, let act(coef, lam) map the coefficients in place, given
    the eigenvalues lam of the 5-point mirror-ghost Laplacian, and
    transform back. The transforms are scipy.fft's DCT-II on both axes,
    c_k = 2 sum_j x_j cos(pi k (j + 1/2) / n), and its inverse. They run
    on one worker by default: on a 2-core host, a BLAS matrix product in
    their place became an order of magnitude slower as soon as another
    process competed for the cores.
    """
    # Imported on first use: loading scipy.fft costs about 30 ms, which
    # runs that make no cosine solve (curvature flow with frozen fields)
    # should not pay when they import haptolab.
    from scipy import fft
    grid = f.grid
    coef = act(fft.dctn(f.values, type=2), _laplacian_eigenvalues(grid))
    # coef is dctn's own array, never the caller's f.values
    return ScalarField(grid, fft.idctn(coef, type=2, overwrite_x=True))


def helmholtz_solve_neumann(a: float, b: float,
                            rhs: ScalarField) -> ScalarField:
    """Solve (a*I - b*Laplacian) x = rhs with Neumann walls exactly.

    The 5-point mirror-ghost Laplacian is diagonal in the tensor cosine
    basis (Schumann & Sweet, JCP 20, 1976), so the solve is a cosine
    transform, a division by the eigenvalues of a*I - b*Laplacian (at
    least a > 0 for b >= 0) and the inverse transform.
    """
    if a <= 0 or b < 0:
        raise ValueError("need a > 0 and b >= 0")
    return _in_cosine_basis(rhs, lambda coef, lam: np.divide(
        coef, a - b * lam, out=coef))


def heat_neumann(f: ScalarField, t: float) -> ScalarField:
    """Exact heat flow exp(t*Laplacian) f of the 5-point mirror-ghost
    Laplacian over time t >= 0: a multiplication by exp(t*lam) in the
    cosine basis. The operator is non-negative and keeps the mass and
    constants, since the Laplacian has non-negative off-diagonal entries
    and zero row sums."""
    if t < 0:
        raise ValueError("need t >= 0")
    return _in_cosine_basis(f, lambda coef, lam: np.multiply(
        coef, np.exp(t * lam), out=coef))


# --- snapshot file format -------------------------------------------------

def write_snapshot(path, f: ScalarField, time: float = 0.0, name: str = "field"):
    """CSV snapshot: comment header then row-major samples, 17 sig. digits."""
    g = f.grid
    with open(path, "w") as fh:
        fh.write("# haptolab grid snapshot\n")
        fh.write(f"# nx {g.nx}\n# ny {g.ny}\n")
        fh.write(f"# h {g.h:.17g}\n")
        fh.write(f"# ox {g.origin[0]:.17g}\n# oy {g.origin[1]:.17g}\n")
        fh.write(f"# time {time:.17g}\n")
        fh.write(f"# field {name}\n")
        for row in f.values:
            fh.write(",".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def read_snapshot(path) -> tuple[ScalarField, float, str]:
    meta: dict[str, str] = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].strip().split(None, 1)
                if len(parts) == 2:
                    meta[parts[0]] = parts[1]
                continue
            rows.append([float(v) for v in line.split(",")])
    grid = Grid(
        int(meta["nx"]), int(meta["ny"]), float(meta["h"]),
        (float(meta["ox"]), float(meta["oy"])),
    )
    field = ScalarField(grid, np.array(rows))
    return field, float(meta["time"]), meta.get("field", "field")
