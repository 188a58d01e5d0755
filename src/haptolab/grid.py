"""Uniform square-cell grid, scalar/vector fields and Neumann-aware operators.

Fields are sampled at cell centers; homogeneous Neumann walls are realized by
a mirror (even) ghost ring, so the discrete normal difference across every
wall vanishes identically.
"""
from __future__ import annotations

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

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def assert_finite(self, what: str = "field"):
        if not np.all(np.isfinite(self.values)):
            raise FloatingPointError(f"{what} contains non-finite values")


@dataclass
class VectorField:
    grid: Grid
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        shape = (self.grid.nx, self.grid.ny)
        if self.x.shape != shape or self.y.shape != shape:
            raise ValueError("component shape does not match grid")

    @classmethod
    def zero(cls, grid: Grid) -> "VectorField":
        shape = (grid.nx, grid.ny)
        return cls(grid, np.zeros(shape), np.zeros(shape))

    def max_norm(self) -> float:
        return float(np.sqrt(self.x**2 + self.y**2).max())


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


def gradient_centered(f: ScalarField) -> VectorField:
    """Centered differences in the interior, one-sided on the boundary ring."""
    gx, gy = np.gradient(f.values, f.grid.h, edge_order=1)
    return VectorField(f.grid, gx, gy)


def advective_divergence(u: ScalarField, w: VectorField) -> ScalarField:
    """Conservative upwind divergence of the flux u*w with zero wall flux."""
    h = u.grid.h
    uv = u.values
    # face velocities by averaging; walls excluded (flux 0 there)
    wfx = 0.5 * (w.x[:-1, :] + w.x[1:, :])
    wfy = 0.5 * (w.y[:, :-1] + w.y[:, 1:])
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


def _cos_analysis(x: np.ndarray) -> np.ndarray:
    """Type-II cosine transform along the last axis,
    c_k = 2 sum_j x_j cos(pi k (j + 1/2) / n), from the FFT of the even
    extension of x."""
    n = x.shape[-1]
    y = np.fft.rfft(np.concatenate([x, x[..., ::-1]], axis=-1))[..., :n]
    return (y * np.exp(-0.5j * np.pi * np.arange(n) / n)).real


def _cos_synthesis(c: np.ndarray) -> np.ndarray:
    """Inverse of _cos_analysis along the last axis."""
    n = c.shape[-1]
    z = c * np.exp(0.5j * np.pi * np.arange(n) / n)
    return np.fft.irfft(z, 2 * n)[..., :n]


def _mirror_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues of the 1-D mirror-ghost second difference, one per
    cosine mode k."""
    return (2.0 * np.cos(np.pi * np.arange(n) / n) - 2.0) / h**2


def helmholtz_solve_neumann(a: float, b: float,
                            rhs: ScalarField) -> ScalarField:
    """Solve (a*I - b*Laplacian) x = rhs with Neumann walls exactly.

    The 5-point mirror-ghost Laplacian is diagonal in the tensor cosine
    basis (Schumann & Sweet, JCP 20, 1976), so the solve is a cosine
    transform, a division by the eigenvalues of a*I - b*Laplacian (at
    least a > 0 for b >= 0) and the inverse transform. The transforms use
    numpy's FFT, which runs on one thread: on a 2-core host, a BLAS matrix
    product in their place became an order of magnitude slower as soon as
    another process competed for the cores.
    """
    if a <= 0 or b < 0:
        raise ValueError("need a > 0 and b >= 0")
    grid = rhs.grid
    lx = _mirror_eigenvalues(grid.nx, grid.h)
    ly = _mirror_eigenvalues(grid.ny, grid.h)
    coef = _cos_analysis(_cos_analysis(rhs.values).T).T
    coef /= a - b * (lx[:, None] + ly[None, :])
    return ScalarField(grid, _cos_synthesis(_cos_synthesis(coef).T).T)


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
