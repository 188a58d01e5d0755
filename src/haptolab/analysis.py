"""Experiment harness: interface generation checks, envelope fields, the
comparison-operator residual, and the convergence study of the diffuse
model against the sharp front tracker."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .curves import extract_level_curve, one_sided_sup_distance
from .diffuse import (
    CosineSpec,
    DiffuseState,
    HaptoParams,
    ShapeSpec,
    StudyConfig,
    chi_gradient,
    make_initial_data,
    run_diffuse,
)
from .errors import ConfigError, MissingSnapshotError
from .grid import (
    Grid,
    ScalarField,
    advective_divergence,
    interpolate_bilinear,
    laplacian_neumann,
)
from .kernel import (
    ChiSpec,
    EnvelopeConstants,
    envelope_p_q,
    f_bistable,
    standing_profile,
)
from .sharp import clamped_signed_distance, init_levelset, run_sharp

MU = 0.25  # linearization rate of the reaction at the unstable root


def generation_time(eps: float) -> float:
    """t* = eps^2 |ln eps| / mu, the end of the interface-generation phase."""
    return eps**2 * abs(math.log(eps)) / MU


@dataclass
class GenerationReport:
    eps: float
    t_star: float
    eta: float
    M0: float
    violations_range: int    # points with u outside [-eta, 1 + eta]
    violations_upper: int    # u < 1 - eta where u0 >= 1/2 + M0 eps
    violations_lower: int    # u > eta where u0 <= 1/2 - M0 eps
    sup_u: float
    inf_u: float

    @property
    def passed(self) -> bool:
        return (self.violations_range + self.violations_upper
                + self.violations_lower) == 0

    def to_json(self) -> str:
        return json.dumps(self.__dict__ | {"passed": self.passed}, indent=2)


def check_generation(snaps: list[DiffuseState], u0: ScalarField, eps: float,
                     eta: float, M0: float) -> GenerationReport:
    """Evaluate the generation-phase conditions at t* on a trajectory.

    (a) u stays in [-eta, 1 + eta] everywhere; (b) u >= 1 - eta wherever the
    initial datum was above 1/2 + M0 eps, and u <= eta wherever it was below
    1/2 - M0 eps.
    """
    if not 0 < eta < 0.25:
        raise ValueError("eta must lie in (0, 1/4)")
    t_star = generation_time(eps)
    hit = [s for s in snaps if abs(s.t - t_star) < 1e-12]
    if not hit:
        raise MissingSnapshotError(
            f"no snapshot at t* = {t_star:.6g} (have "
            f"{[round(s.t, 6) for s in snaps]})"
        )
    u = hit[0].u.values
    above = u0.values >= 0.5 + M0 * eps
    below = u0.values <= 0.5 - M0 * eps
    return GenerationReport(
        eps=eps, t_star=t_star, eta=eta, M0=M0,
        violations_range=int(np.sum((u < -eta) | (u > 1 + eta))),
        violations_upper=int(np.sum(above & (u < 1 - eta))),
        violations_lower=int(np.sum(below & (u > eta))),
        sup_u=float(u.max()), inf_u=float(u.min()),
    )


def fit_M0(snaps: list[DiffuseState], u0: ScalarField, eps: float,
           eta: float, candidates) -> float:
    """Smallest candidate M0 with a clean generation report.

    Fitted once on the coarsest-eps reference case and then frozen for the
    rest of the study; raises if no candidate works.
    """
    for m0 in sorted(candidates):
        if check_generation(snaps, u0, eps, eta, m0).passed:
            return float(m0)
    raise ValueError("no candidate M0 yields zero violations")


# --- envelopes and the comparison operator --------------------------------

def envelope_fields(d_field: ScalarField, t: float, eps: float,
                    c: EnvelopeConstants, sign: int) -> ScalarField:
    """Sub (sign=-1) or super (sign=+1) solution built from the standing
    profile of the clamped signed distance: U0((d -/+ eps p)/eps) +/- q."""
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    p, q = envelope_p_q(t, eps, c)
    vals = standing_profile((d_field.values - sign * eps * p) / eps) + sign * q
    return ScalarField(d_field.grid, vals)


def residual_Lv(u: ScalarField, v: ScalarField, u_t: ScalarField,
                chi: ChiSpec, eps: float) -> ScalarField:
    """Discrete comparison operator u_t - lap u + div(u grad chi(v))
    - f(u)/eps^2; nonnegative for supersolutions up to mesh slack. A
    constant chi has no drift, so the divergence term is left out."""
    w = chi_gradient(v, chi)
    vals = u_t.values - laplacian_neumann(u).values
    if w is not None:
        vals = vals + advective_divergence(u, w).values
    return ScalarField(u.grid, vals - f_bistable(u.values) / eps**2)


def residual_slack(h: float, dt: float, eps: float) -> float:
    """Empirical discretization slack for sign checks of residual_Lv."""
    return 5.0 * (h + dt) / eps**2


# --- convergence study ----------------------------------------------------

def fit_loglog_slope(x, y) -> tuple[float, float]:
    """Least-squares slope and intercept of log y against log x."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)


@dataclass
class ConvergenceRecord:
    eps_list: list[float]
    times: list[float]
    interface_distance: list[float]        # sup over times, one-sided
    v_gap: list[float]                     # sup norm over grid and times
    m_gap: list[float]
    interface_slope: float = math.nan
    interface_intercept: float = math.nan
    per_time_distance: list[list[float]] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2)


def grid_for_eps(eps: float) -> Grid:
    """Unit-square grid with h = eps/4 (the resolution floor)."""
    n = int(round(4.0 / eps))
    if abs(4.0 / eps - n) > 1e-9:
        raise ConfigError(f"eps = {eps} does not divide the unit square "
                          "into a whole number of cells at h = eps/4")
    return Grid.unit_square(n)


def sharp_reference(cfg: StudyConfig, p: HaptoParams):
    """The sharp front of cfg at n = n_sharp: its initial state, then one
    snapshot per mark of cfg. A t_end of 0 raises ValueError before any
    solve, since a front that does not move has nothing to compare."""
    if cfg.t_end <= 0:
        raise ValueError("a sharp reference needs t_end > 0")
    grid = Grid.unit_square(cfg.n_sharp)
    curve = cfg.shape.polyline(8 * cfg.n_sharp)
    s0 = init_levelset(curve, grid, cfg.v0_spec.evaluate(grid),
                       cfg.m0_spec.evaluate(grid), d0=cfg.d0)
    return run_sharp(s0, p, cfg.t_end, snapshot_times=cfg.snapshot_times())


def diffuse_run(cfg: StudyConfig, eps: float,
                extra_times: tuple[float, ...] = ()):
    p = cfg.params(eps)
    s0 = make_initial_data(cfg, eps, grid_for_eps(eps))
    return run_diffuse(s0, p, cfg.t_end,
                       snapshot_times=cfg.snapshot_times() + extra_times), p


def _field_gap(fine: ScalarField, coarse_grid: Grid,
               ref: ScalarField) -> float:
    """Sup-norm gap between a field and a reference sampled on the coarser
    cell centers by bilinear interpolation."""
    X, Y = coarse_grid.meshgrid()
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    a = interpolate_bilinear(fine, pts)
    b = interpolate_bilinear(ref, pts)
    return float(np.abs(a - b).max())


def convergence_study(cfg: StudyConfig, eps_list) -> ConvergenceRecord:
    eps_list = [float(e) for e in eps_list]
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ConfigError("eps list must be strictly decreasing")
    for eps in eps_list:  # a bad eps raises ConfigError before any solve
        grid_for_eps(eps)
    sharp_snaps = sharp_reference(cfg, cfg.params(eps_list[0]))

    gap_grid = Grid.unit_square(64)
    rec = ConvergenceRecord(eps_list=eps_list,
                            times=list(cfg.snapshot_times()),
                            interface_distance=[], v_gap=[], m_gap=[])
    for eps in eps_list:
        snaps, _ = diffuse_run(cfg, eps)
        dists, vg, mg = [], 0.0, 0.0
        for d_snap, s_snap in zip(snaps[1:], sharp_snaps[1:], strict=True):
            gamma_eps = extract_level_curve(d_snap.u, 0.5)
            gamma_0 = extract_level_curve(s_snap.phi, 0.0)
            dists.append(one_sided_sup_distance(gamma_eps, gamma_0,
                                                0.5 * d_snap.u.grid.h))
            vg = max(vg, _field_gap(d_snap.v, gap_grid, s_snap.v))
            mg = max(mg, _field_gap(d_snap.m, gap_grid, s_snap.m))
        rec.per_time_distance.append(dists)
        rec.interface_distance.append(max(dists))
        rec.v_gap.append(vg)
        rec.m_gap.append(mg)
    rec.interface_slope, rec.interface_intercept = fit_loglog_slope(
        eps_list, rec.interface_distance)
    return rec


# --- refinement order of the diffuse scheme -------------------------------

def refinement_order(eps: float, t_end: float, n_base: int,
                     cfg: StudyConfig | None = None) -> tuple[float, list[float]]:
    """Self-convergence order of the diffuse solver under grid halving.

    Runs cfg's problem to t_end at n, 2n, 4n, each from the initial data
    that diffuse_run builds at eps, restricts each finer solution to
    the base cells by block averaging (pointwise interpolation would leave
    a non-converging sampling-error floor near curvature centers), and
    returns log2 of the ratio of successive sup-norm differences together
    with the differences themselves.
    """
    if cfg is None:
        cfg = StudyConfig(ShapeSpec("circle", (0.5, 0.5), 0.25),
                          CosineSpec(1.0, ((1, 1, 0.2),)),
                          CosineSpec(0.3, ((2, 0, 0.1),)), t_end=t_end)
    p = cfg.params(eps)
    fields = []
    for n in (n_base, 2 * n_base, 4 * n_base):
        s0 = make_initial_data(cfg, eps, Grid.unit_square(n))
        snaps = run_diffuse(s0, p, t_end)
        k = n // n_base
        u = snaps[-1].u.values
        fields.append(u.reshape(n_base, k, n_base, k).mean(axis=(1, 3)))
    diffs = [float(np.abs(fields[i + 1] - fields[i]).max()) for i in range(2)]
    order = math.log2(diffs[0] / diffs[1])
    return order, diffs


# --- envelope bracket experiment ------------------------------------------

@dataclass
class BracketReport:
    eps: float
    times: list[float]
    worst_below: float   # max over time of max(u- - u), should stay <= slack
    worst_above: float   # max over time of max(u - u+)
    slacks: list[float]
    passed: bool


def bracket_check(cfg: StudyConfig, eps: float, c: EnvelopeConstants
                  ) -> BracketReport:
    """Verify the diffuse solution stays between the moving envelopes.

    The envelope distance field is rebuilt at each snapshot as the exact
    signed distance to the tracked front, then saturated away from the
    front on the envelope's own length scale (identity within 2 * c.d0,
    flat beyond 3 * c.d0).  The tracker's raw phi is only trusted near the
    zero level, so interpolating it directly would overstate interior
    depth.  Slack at each time is 1e-6 + q(t), with q absorbing the
    envelope's own vertical offset.  An eps outside (0, c.eps0] raises
    ValueError before either solve runs.
    """
    if not 0.0 < eps <= c.eps0:
        raise ValueError(f"eps = {eps:g} is outside (0, eps0 = {c.eps0:g}] "
                         "of the envelope constants")
    sharp_snaps = sharp_reference(cfg, cfg.params(eps))
    snaps, p = diffuse_run(cfg, eps)
    grid = snaps[0].u.grid

    worst_below = worst_above = -math.inf
    times, slacks = [], []
    passed = True
    for d_snap, s_snap in zip(snaps[1:], sharp_snaps[1:], strict=True):
        t = d_snap.t
        front = extract_level_curve(s_snap.phi, 0.0)
        d_field = clamped_signed_distance(front, grid, c.d0)
        lo = envelope_fields(d_field, t, eps, c, -1)
        hi = envelope_fields(d_field, t, eps, c, +1)
        _, q = envelope_p_q(t, eps, c)
        slack = 1e-6 + q
        below = float((lo.values - d_snap.u.values).max())
        above = float((d_snap.u.values - hi.values).max())
        passed = passed and below <= slack and above <= slack
        worst_below = max(worst_below, below)
        worst_above = max(worst_above, above)
        times.append(t)
        slacks.append(slack)
    return BracketReport(eps=eps, times=times, worst_below=worst_below,
                         worst_above=worst_above, slacks=slacks,
                         passed=passed)


__all__ = [
    "MU", "generation_time", "GenerationReport", "check_generation",
    "fit_M0", "envelope_fields", "residual_Lv", "residual_slack",
    "fit_loglog_slope", "ConvergenceRecord", "StudyConfig", "grid_for_eps",
    "sharp_reference", "diffuse_run", "convergence_study",
    "refinement_order", "BracketReport", "bracket_check",
]
