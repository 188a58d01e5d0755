"""Front geometry: level-curve extraction, the even-odd inside test, the
signed distance to a polyline, and polyline distance metrics.

Curves are ordered closed polylines stored without repeating the first
vertex; segment i of a loop runs from its vertex i to vertex (i+1) % len.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyLevelSetError, InvalidCurveError
from .grid import Grid, ScalarField


@dataclass
class InterfaceCurve:
    """One or more closed loops: the primary loop `points` and the further
    components `extras`. Segments, and so every measure built on them, span
    all loops; `write_curve` writes the primary loop only."""

    points: np.ndarray
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
        """Segment starts a and ends b over every loop; b[i] is the vertex
        after a[i] in its own loop."""
        loops = [self.points, *self.extras]
        a = np.concatenate(loops)
        b = np.concatenate([np.roll(p, -1, axis=0) for p in loops])
        return a, b

    def length(self) -> float:
        a, b = self.segments()
        return float(np.linalg.norm(b - a, axis=1).sum())

    def area(self) -> float:
        """Area inside the loops by the even-odd rule of the signed
        distance's sign: each loop's |shoelace area|, negated when an odd
        number of the other loops hold its first vertex. Marching squares
        orients loops at random, so a shoelace sign cannot tell a hole."""
        loops = [self.points, *self.extras]
        total = 0.0
        for i, p in enumerate(loops):
            q = np.roll(p, -1, axis=0)
            depth = sum(crossing_number_inside(p[:1], InterfaceCurve(o))[0]
                        for o in loops[:i] + loops[i + 1:])
            total += (-1.0) ** depth * abs(float(0.5 * np.sum(
                p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1])))
        return total

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
        """True when no two segments, of any loops, cross inside both.
        Crossing segments have midpoints within (L_i + L_j)/2 <=
        max(L_i, L_j). So a KD-tree pairs the midpoints of the segments no
        longer than the median length (plus round-off) within that length,
        and each longer segment i with the midpoints within its own L_i:
        evenly spaced loops need no per-midpoint query, and one long
        segment (an arc closed by its chord) does not make the pairs grow
        with n^2. A shared vertex gives t or u exactly 0 or 1, and a
        segment paired with itself denom 0, which both fail the test."""
        a, b = self.segments()
        d = b - a
        mid = 0.5 * (a + b)
        length = np.sqrt(np.sum(d * d, axis=1))
        cut = np.median(length) * (1 + 1e-9)
        tree = cKDTree(mid)
        pairs = tree.query_pairs(cut * (1 + 1e-9), output_type="ndarray")
        long = np.flatnonzero(length > cut)
        near = tree.query_ball_point(mid[long], length[long] * (1 + 1e-9),
                                     return_sorted=False)
        counts = np.fromiter(map(len, near), int, len(near))
        i = np.concatenate([pairs[:, 0], np.repeat(long, counts)])
        j = np.concatenate([pairs[:, 1], np.fromiter(
            chain.from_iterable(near), int, counts.sum())])
        r, s, qp = d[i], d[j], a[j] - a[i]
        denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]) / denom
            u = (qp[:, 0] * r[:, 1] - qp[:, 1] * r[:, 0]) / denom
        return not np.any((np.abs(denom) > 1e-300) & (t > 0) & (t < 1)
                          & (u > 0) & (u < 1))


def circle_polyline(center, radius: float, n: int = 512) -> InterfaceCurve:
    th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    pts = np.stack([center[0] + radius * np.cos(th),
                    center[1] + radius * np.sin(th)], axis=1)
    return InterfaceCurve(pts)


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
        seen.add(start)
        if len(adjacency[start]) != 2:
            continue
        loop = [start]
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
    return InterfaceCurve(polylines[0], extras=polylines[1:])


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
    """Exact unsigned distance from points to the polyline's loops.

    A KD-tree over the vertices of every loop gives each point its k
    nearest vertices, and the segments adjacent to them give a candidate
    distance `best`. A segment nearer than best has an end vertex within
    sqrt(best^2 + (L_max/2)^2) of the point, where L_max is the longest
    segment, so best is exact when the k-th nearest vertex lies farther
    out than that. k grows only for the points that fail this test.
    """
    a, b = curve.segments()
    n = len(a)
    # prev[i]: the segment ending at vertex i, within the loop of vertex i
    ends = np.cumsum([len(p) for p in (curve.points, *curve.extras)])
    prev = np.arange(-1, n - 1)
    prev[np.r_[0, ends[:-1]]] = ends - 1
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = b - a
    L2 = np.maximum(np.sum(d * d, axis=1), 1e-300)
    half_L2 = 0.25 * float(L2.max())
    tree = cKDTree(a)
    out = np.empty(len(points))
    todo = np.arange(len(points))
    k = 8
    while todo.size and 2 * k < n:
        p = points[todo]
        d_k, idx = tree.query(p, k=k)
        # segments adjacent to vertex i are prev[i] and i; filled in place,
        # as a gathered temporary joined to idx raised peak memory by 4 MB
        segs = np.empty((len(idx), 2 * k), dtype=idx.dtype)
        np.take(prev, idx, out=segs[:, :k])
        segs[:, k:] = idx
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
    """Even-odd inside test over every loop: a point is inside when the +x
    ray from it crosses an odd number of segments. For each distinct y, the
    crossing abscissae of the straddling segments are sorted once, and a
    binary search counts those strictly right of each point of that row."""
    a, b = curve.segments()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ys, row, count = np.unique(points[:, 1], return_inverse=True,
                               return_counts=True)
    rows = np.split(np.argsort(row, kind="stable"), np.cumsum(count)[:-1])
    inside = np.zeros(len(points), dtype=bool)
    for py, idx in zip(ys, rows):
        k = (a[:, 1] <= py) != (b[:, 1] <= py)
        xint = np.sort(a[k, 0] + (py - a[k, 1]) / (b[k, 1] - a[k, 1])
                       * (b[k, 0] - a[k, 0]))
        right = len(xint) - np.searchsorted(xint, points[idx, 0], side="right")
        inside[idx] = right % 2 == 1
    return inside


def signed_distance_to_loop(curve: InterfaceCurve, grid: Grid) -> ScalarField:
    """Exact signed distance from cell centers to the loops of a simple
    closed polyline, negative inside: `distance_to_curve` for the size,
    `crossing_number_inside` (even-odd over every loop) for the sign."""
    if not curve.is_simple():
        raise InvalidCurveError("interface polyline self-intersects")
    X, Y = grid.meshgrid()
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    d = distance_to_curve(pts, curve)
    inside = crossing_number_inside(pts, curve)
    return ScalarField(grid, np.where(inside, -d, d).reshape(X.shape))


def one_sided_sup_distance(a: InterfaceCurve, b: InterfaceCurve,
                           seg_step: float) -> float:
    """sup over a's points, subdivided at <= seg_step, of the distance to b."""
    samples = a.resample(seg_step)
    return float(distance_to_curve(samples, b).max())


def write_curve(path, curve: InterfaceCurve):
    with open(path, "w") as fh:
        fh.write("x,y\n")
        pts = np.vstack([curve.points, curve.points[:1]])  # close explicitly
        for x, y in pts:
            fh.write(f"{x:.17g},{y:.17g}\n")
