"""Level-curve extraction and polyline distance metrics.

Curves are ordered closed polylines stored without repeating the first
vertex; segment i runs from points[i] to points[(i+1) % len].
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyLevelSetError, InvalidCurveError
from .grid import Grid, ScalarField


@dataclass
class InterfaceCurve:
    points: np.ndarray
    level: float = 0.5
    grid: Grid | None = None
    closed: bool = True
    # additional loops when the level set has several components
    extras: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise InvalidCurveError("points must be an (n, 2) array")
        if len(self.points) < 3:
            raise InvalidCurveError("a closed curve needs at least 3 points")

    @property
    def n_components(self) -> int:
        return 1 + len(self.extras)

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        a = self.points
        b = np.roll(self.points, -1, axis=0)
        return a, b

    def length(self) -> float:
        a, b = self.segments()
        return float(np.linalg.norm(b - a, axis=1).sum())

    def area(self) -> float:
        """Signed shoelace area (positive for counterclockwise)."""
        x, y = self.points[:, 0], self.points[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        return float(0.5 * np.sum(x * yn - xn * y))

    def resample(self, step: float) -> np.ndarray:
        """Points subdividing every segment at spacing <= step."""
        a, b = self.segments()
        out = []
        for p, q in zip(a, b):
            n = max(1, int(np.ceil(np.linalg.norm(q - p) / step)))
            t = np.arange(n) / n
            out.append(p + t[:, None] * (q - p))
        return np.concatenate(out)

    def is_simple(self) -> bool:
        """Segment-pair intersection test (skipping neighbors)."""
        a, b = self.segments()
        n = len(a)
        d = b - a
        for i in range(n):
            # vectorized orientation tests of segment i against j > i + 1
            j = np.arange(i + 2, n if i > 0 else n - 1)
            if len(j) == 0:
                continue
            r = d[i]
            s = d[j]
            qp = a[j] - a[i]
            denom = r[0] * s[:, 1] - r[1] * s[:, 0]
            u_num = qp[:, 0] * r[1] - qp[:, 1] * r[0]
            t_num = qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = t_num / denom
                u = u_num / denom
            hit = (np.abs(denom) > 1e-300) & (t > 0) & (t < 1) & (u > 0) & (u < 1)
            if np.any(hit):
                return False
        return True


def circle_polyline(center, radius: float, n: int = 512,
                    level: float = 0.0) -> InterfaceCurve:
    th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    pts = np.stack([center[0] + radius * np.cos(th),
                    center[1] + radius * np.sin(th)], axis=1)
    return InterfaceCurve(pts, level=level)


# --- marching squares -----------------------------------------------------

def extract_level_curve(f: ScalarField, level: float) -> InterfaceCurve:
    """Marching-squares extraction of {f = level} as ordered closed loops.

    Vertices come from linear interpolation along lattice lines through cell
    centers, so bilinear re-interpolation reproduces the level to round-off.
    The longest loop is primary; further loops are kept in `extras`.
    """
    v = f.values
    g = f.grid
    if not v.min() < level < v.max():
        raise EmptyLevelSetError(
            f"level {level} outside field range [{v.min()}, {v.max()}]"
        )
    xc, yc = g.x_centers(), g.y_centers()
    inside = v > level

    # crossing parameters on horizontal/vertical lattice edges
    hx_mask = inside[:-1, :] != inside[1:, :]
    vy_mask = inside[:, :-1] != inside[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        hx_t = (level - v[:-1, :]) / (v[1:, :] - v[:-1, :])
        vy_t = (level - v[:, :-1]) / (v[:, 1:] - v[:, :-1])

    def vertex(edge):
        kind, i, j = edge
        if kind == 0:  # between centers (i, j) and (i + 1, j)
            return (xc[i] + hx_t[i, j] * g.h, yc[j])
        return (xc[i], yc[j] + vy_t[i, j] * g.h)

    # per-cell segments between crossed edges
    adjacency: dict[tuple, list[tuple]] = {}

    def link(e1, e2):
        adjacency.setdefault(e1, []).append(e2)
        adjacency.setdefault(e2, []).append(e1)

    cells = np.argwhere(
        hx_mask[:, :-1] | hx_mask[:, 1:] | vy_mask[:-1, :] | vy_mask[1:, :]
    )
    for i, j in cells:
        bottom = (0, i, j) if hx_mask[i, j] else None
        top = (0, i, j + 1) if hx_mask[i, j + 1] else None
        left = (1, i, j) if vy_mask[i, j] else None
        right = (1, i + 1, j) if vy_mask[i + 1, j] else None
        crossed = [e for e in (bottom, right, top, left) if e is not None]
        if len(crossed) == 2:
            link(crossed[0], crossed[1])
        elif len(crossed) == 4:
            # saddle: resolve by the cell-average value
            avg = 0.25 * (v[i, j] + v[i + 1, j] + v[i, j + 1] + v[i + 1, j + 1])
            if (avg > level) == bool(inside[i, j]):
                link(bottom, left), link(top, right)
            else:
                link(bottom, right), link(top, left)

    # chain edges into loops
    loops = []
    seen: set[tuple] = set()
    for start in adjacency:
        if start in seen:
            continue
        if len(adjacency[start]) != 2:
            seen.add(start)
            continue
        loop = [start]
        seen.add(start)
        prev, cur = None, start
        while True:
            nbrs = adjacency[cur]
            nxt = nbrs[0] if nbrs[0] != prev else (
                nbrs[1] if len(nbrs) > 1 else None
            )
            if nxt is None or nxt in seen and nxt != start:
                break
            if nxt == start:
                loops.append(loop)
                break
            loop.append(nxt)
            seen.add(nxt)
            prev, cur = cur, nxt

    if not loops:
        raise EmptyLevelSetError("no closed loop found at the requested level")

    polylines = []
    for loop in loops:
        pts = np.array([vertex(e) for e in loop])
        # drop consecutive duplicates from crossings at lattice nodes
        keep = np.ones(len(pts), dtype=bool)
        keep[1:] = np.linalg.norm(np.diff(pts, axis=0), axis=1) > 1e-14
        pts = pts[keep]
        if len(pts) >= 3:
            polylines.append(pts)
    if not polylines:
        raise EmptyLevelSetError("level set degenerate (no usable loop)")
    polylines.sort(key=lambda p: -len(p))
    return InterfaceCurve(polylines[0], level=level, grid=g,
                          extras=polylines[1:])


# --- distances ------------------------------------------------------------

def _point_segment_distances(points: np.ndarray, a: np.ndarray,
                             b: np.ndarray) -> np.ndarray:
    """Min distance from each point to any of the segments [a_k, b_k]."""
    d = b - a
    L2 = np.maximum(np.sum(d * d, axis=1), 1e-300)
    best = np.full(len(points), np.inf)
    chunk = max(1, 2_000_000 // max(len(a), 1))
    for s in range(0, len(points), chunk):
        p = points[s:s + chunk]
        ap = p[:, None, :] - a[None, :, :]
        t = np.clip(np.einsum("pki,ki->pk", ap, d) / L2, 0.0, 1.0)
        diff = ap - t[:, :, None] * d[None, :, :]
        best[s:s + chunk] = np.sqrt(np.min(np.sum(diff * diff, axis=2), axis=1))
    return best


def distance_to_curve(points: np.ndarray,
                      curve: InterfaceCurve) -> np.ndarray:
    """Exact unsigned distance from points to the polyline.

    A KD-tree over vertices gives each point its k nearest vertices, and
    the segments adjacent to them give a candidate distance `best`. A
    segment nearer than best has an end vertex within
    sqrt(best^2 + (L_max/2)^2) of the point, where L_max is the longest
    segment, so best is exact when the k-th nearest vertex lies farther
    out than that. k grows only for the points that fail this test.
    """
    a, b = curve.segments()
    n = len(a)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = b - a
    L2 = np.maximum(np.sum(d * d, axis=1), 1e-300)
    half_L2 = 0.25 * float(L2.max())
    tree = cKDTree(curve.points)
    out = np.empty(len(points))
    todo = np.arange(len(points))
    k = 8
    while todo.size and 2 * k < n:
        p = points[todo]
        d_k, idx = tree.query(p, k=k)
        # segments adjacent to vertex i are i-1 and i
        segs = np.concatenate([(idx - 1) % n, idx], axis=1)
        aa, dd, ll = a[segs], d[segs], L2[segs]
        ap = p[:, None, :] - aa
        t = np.clip(np.einsum("pki,pki->pk", ap, dd) / ll, 0.0, 1.0)
        diff = ap - t[:, :, None] * dd
        best2 = np.min(np.sum(diff * diff, axis=2), axis=1)
        exact = d_k[:, -1] ** 2 > best2 + half_L2
        out[todo[exact]] = np.sqrt(best2[exact])
        todo = todo[~exact]
        k *= 4
    if todo.size:
        out[todo] = _point_segment_distances(points[todo], a, b)
    return out


def crossing_number_inside(points: np.ndarray,
                           curve: InterfaceCurve) -> np.ndarray:
    """Even-odd inside test by counting crossings of a +x ray."""
    a, b = curve.segments()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    inside = np.zeros(len(points), dtype=bool)
    chunk = max(1, 2_000_000 // max(len(a), 1))
    ay, by = a[:, 1], b[:, 1]
    for s in range(0, len(points), chunk):
        px = points[s:s + chunk, 0][:, None]
        py = points[s:s + chunk, 1][:, None]
        straddle = (ay[None, :] <= py) != (by[None, :] <= py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = a[:, 0][None, :] + (py - ay[None, :]) / (
                by[None, :] - ay[None, :]
            ) * (b[:, 0] - a[:, 0])[None, :]
        hits = straddle & (xint > px)
        inside[s:s + chunk] = (hits.sum(axis=1) % 2).astype(bool)
    return inside


def one_sided_sup_distance(a: InterfaceCurve, b: InterfaceCurve,
                           seg_step: float | None = None) -> float:
    """sup over (subdivided) points of a of the distance to polyline b."""
    if seg_step is None:
        h = a.grid.h if a.grid is not None else None
        seg_step = 0.5 * h if h else 0.5 * a.length() / max(len(a.points), 1)
    samples = a.resample(seg_step)
    return float(distance_to_curve(samples, b).max())


def hausdorff(a: InterfaceCurve, b: InterfaceCurve,
              seg_step: float | None = None) -> float:
    return max(one_sided_sup_distance(a, b, seg_step),
               one_sided_sup_distance(b, a, seg_step))


def write_curve(path, curve: InterfaceCurve):
    with open(path, "w") as fh:
        fh.write("x,y\n")
        pts = np.vstack([curve.points, curve.points[:1]])  # close explicitly
        for x, y in pts:
            fh.write(f"{x:.17g},{y:.17g}\n")
