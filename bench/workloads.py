"""The three benchmark workloads.

Each workload draws its inputs from the seed when it is made (untimed),
builds the initial state from them (`setup`, timed as set-up), runs one
whole solve from that state (`solve`, timed as a solve), converts the
program's snapshots to plain arrays and checks them (`check`, untimed). The seed moves only the circle centre within
a quarter cell, which leaves the grid, the dt sequence and the step count
unchanged. haptolab is imported inside `setup`, so its import-time work is
part of the set-up it belongs to.

The untraced path enters haptolab only through analysis.diffuse_run,
analysis.sharp_reference, sharp.init_levelset, sharp.run_sharp and
curves.circle_polyline; the other names it touches (Grid, ScalarField,
StudyConfig, HaptoParams, ChiSpec, ShapeSpec, CosineSpec) are the input
records those entry points take.
"""
from __future__ import annotations

import math

import numpy as np

import checks
from checks import Snapshot

AMP = 0.2
V0 = (1.0, ((1, 1, AMP),))   # v0 = 1 + 0.2 cos(pi x) cos(pi y)
M0 = (0.3, ((2, 0, 0.1),))   # m0 = 0.3 + 0.1 cos(2 pi x)


def _centre(seed: int, h: float) -> tuple[float, float]:
    """(0.5, 0.5) moved by up to a quarter cell in each direction."""
    dx, dy = np.random.default_rng(seed).uniform(-0.25 * h, 0.25 * h, 2)
    return (0.5 + float(dx), 0.5 + float(dy))


class DiffuseGeneration:
    """Criterion 3's data at eps = 0.02 (n = 200, h = eps/4) up to the
    generation time t* = eps^2 |ln eps| / mu."""

    name = "diffuse_generation"
    eps = 0.02
    n = 200
    r0, width, d0 = 0.4, 0.15, 0.02
    eta, M0 = 0.1, 7.0            # M0 frozen from criterion 3's eps=0.04 fit
    n_snapshots = 8
    evolves_fields = True

    def __init__(self, seed: int):
        self.centre = _centre(seed, 1.0 / self.n)
        self.t_end = self.eps ** 2 * abs(math.log(self.eps)) / 0.25

    def _config(self, t_end: float, n_snapshots: int):
        from haptolab.analysis import StudyConfig
        from haptolab.diffuse import CosineSpec, ShapeSpec
        return StudyConfig(ShapeSpec("circle", self.centre, self.r0),
                           CosineSpec(*V0), CosineSpec(*M0),
                           width=self.width, d0=self.d0, smooth_interior=True,
                           t_end=t_end, n_snapshots=n_snapshots)

    def setup(self):
        """Builds the initial state: diffuse_run asked for t = 0 only."""
        from haptolab.analysis import diffuse_run
        snaps, _ = diffuse_run(self._config(0.0, 1), self.eps)
        self.u0 = snaps[0].u.values
        return self._config(self.t_end, self.n_snapshots)

    def solve(self, cfg, first: bool):
        from haptolab.analysis import diffuse_run
        return diffuse_run(cfg, self.eps)[0]

    def snapshots(self, out) -> list[Snapshot]:
        return [Snapshot(s.t, s.u.values, s.u.values, s.v.values, s.m.values)
                for s in out]

    def check(self, snaps: list[Snapshot]):
        u0 = checks.smooth_disc_profile(self.n, self.centre, self.r0,
                                        self.width)
        gap = float(np.abs(self.u0 - u0).max())
        if gap > 1e-12:
            raise checks.CheckFailure(f"program's u0 is {gap:.2e} off the "
                                      "closed-form datum")
        checks.check_final_time(snaps, self.t_end)
        checks.check_generation(u0, snaps[-1].u, self.eps, self.eta, self.M0)
        checks.check_diffuse_drift(snaps, self.r0, self.width, AMP)
        checks.check_matrix_decay(snaps, checks.cosine_field(self.n, *V0))
        checks.check_enzyme_balance(snaps, rel_tol=0.01)


class _Sharp:
    """Shared by the level-set workloads: a seeded circle at n = 256."""

    n = 256
    r0 = 0.25
    d0 = 0.04

    def __init__(self, seed: int):
        self.centre = _centre(seed, 1.0 / self.n)
        self.v0, self.m0 = self._initial_fields()

    def setup(self):
        """Builds the clamped signed distance of the seeded circle."""
        from haptolab.curves import circle_polyline
        from haptolab.grid import Grid, ScalarField
        from haptolab.sharp import init_levelset
        grid = Grid.unit_square(self.n)
        return init_levelset(circle_polyline(self.centre, self.r0,
                                             n=8 * self.n),
                             grid, ScalarField(grid, self.v0),
                             ScalarField(grid, self.m0), d0=self.d0)

    def snapshot_times(self) -> tuple[float, ...]:
        return tuple(self.t_end * (k + 1) / self.n_snapshots
                     for k in range(self.n_snapshots))

    def snapshots(self, out) -> list[Snapshot]:
        return [Snapshot(s.t, s.phi.values, (s.phi.values < 0).astype(float),
                         s.v.values, s.m.values) for s in out]


class SharpHaptotaxis(_Sharp):
    """The convergence study's sharp reference (linear chi, evolving v and
    m, n = 256, d0 = 0.04, circle r0 = 0.25) up to a shortened t_end.

    The first solve of a run is analysis.sharp_reference itself; later solves
    run its two calls apart (init_levelset once in set-up, run_sharp per
    solve) with the same arguments, and the bitwise check against the first
    solve shows the split computes the same thing.
    """

    name = "sharp_haptotaxis"
    t_end = 5e-4
    n_snapshots = 4
    evolves_fields = True
    area_rate_tol = 0.01
    drift_tol = 0.05

    def _initial_fields(self):
        return checks.cosine_field(self.n, *V0), checks.cosine_field(self.n, *M0)

    def solve(self, s0, first: bool):
        from haptolab.diffuse import HaptoParams
        from haptolab.kernel import ChiSpec
        p = HaptoParams(eps=0.04, lam=1.0, alpha=1.0, chi=ChiSpec.identity())
        if first:
            from haptolab.analysis import StudyConfig, sharp_reference
            from haptolab.diffuse import CosineSpec, ShapeSpec
            cfg = StudyConfig(ShapeSpec("circle", self.centre, self.r0),
                              CosineSpec(*V0), CosineSpec(*M0),
                              t_end=self.t_end, n_snapshots=self.n_snapshots,
                              d0=self.d0, n_sharp=self.n)
            return sharp_reference(cfg, p)
        from haptolab.sharp import run_sharp
        return run_sharp(s0, p, self.t_end,
                         snapshot_times=self.snapshot_times())

    def check(self, snaps: list[Snapshot]):
        checks.check_final_time(snaps, self.t_end)
        checks.check_single_loop_clear(snaps, margin=4 * self.d0)
        checks.check_area_rate(snaps, -2.0 * math.pi, self.area_rate_tol)
        checks.check_sharp_drift(snaps, self.r0, AMP, self.drift_tol)
        checks.check_matrix_decay(snaps, self.v0)
        checks.check_enzyme_balance(snaps, rel_tol=0.01)


class SharpMCF(_Sharp):
    """Criterion 2's curvature-flow oracle (constant chi, frozen fields,
    n = 256, circle r0 = 0.25), shortened to t_end = 0.0125: past the first
    on-demand redistance of the shrink, before the second."""

    name = "sharp_mcf"
    t_end = 0.0125
    n_snapshots = 4
    evolves_fields = False

    def _initial_fields(self):
        return np.ones((self.n, self.n)), np.zeros((self.n, self.n))

    def solve(self, s0, first: bool):
        from haptolab.diffuse import HaptoParams
        from haptolab.kernel import ChiSpec
        from haptolab.sharp import run_sharp
        p = HaptoParams(eps=0.05, lam=1.0, alpha=1.0, chi=ChiSpec.constant())
        return run_sharp(s0, p, self.t_end,
                         snapshot_times=self.snapshot_times(),
                         evolve_fields=False)

    def check(self, snaps: list[Snapshot]):
        checks.check_final_time(snaps, self.t_end)
        checks.check_radius_law(snaps, self.r0, rel_tol=0.01)
        checks.check_matrix_decay(snaps, self.v0)
        checks.check_frozen_fields(snaps)


WORKLOADS = {w.name: w for w in (DiffuseGeneration, SharpHaptotaxis, SharpMCF)}
