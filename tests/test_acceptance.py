"""End-to-end acceptance suite: one test per advertised guarantee.

Each test records a single PASS/FAIL line that the terminal-summary hook in
conftest.py prints after the session. Criteria 3 through 6 run multi-minute
simulations; the whole file takes roughly a quarter of an hour on one core.
"""
import math
import time

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES

from haptolab.analysis import (
    StudyConfig,
    bracket_check,
    check_generation,
    convergence_study,
    diffuse_run,
    fit_M0,
    generation_time,
    refinement_order,
    residual_Lv,
    residual_slack,
)
from haptolab.cli import parse_config, run_experiment
from haptolab.curves import circle_polyline, extract_level_curve
from haptolab.diffuse import (
    CosineSpec,
    HaptoParams,
    ShapeSpec,
    chi_gradient,
    dt_max,
    run_diffuse,
    solve_vm_for_u,
    step_diffuse,
)
from haptolab.grid import Grid, ScalarField
from haptolab.kernel import (
    ChiSpec,
    envelope_constants,
    envelope_p_q,
    f_bistable,
    f_prime,
    solve_profile_bvp,
    standing_profile,
    standing_profile_derivative,
)
from haptolab.sharp import init_levelset, run_sharp


def _record(num: int, name: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _fitted_radius(phi: ScalarField) -> float:
    c = extract_level_curve(phi, 0.0)
    center = c.points.mean(axis=0)
    return float(np.hypot(*(c.points - center).T).mean())


BASE_V0 = CosineSpec(1.0, ((1, 1, 0.2),))
BASE_M0 = CosineSpec(0.3, ((2, 0, 0.1),))


def test_criterion_1_standing_profile():
    t0 = time.perf_counter()
    z = np.linspace(-20.0, 20.0, 40_001)
    u = standing_profile(z)
    # second derivative from the chain rule on the logistic closed form,
    # independent of the reaction formula it must balance
    upp = 0.5 * (1.0 - 2.0 * u) * u * (1.0 - u)
    ode_res = float(np.abs(upp + f_bistable(u)).max())

    table = solve_profile_bvp(20.0, 4001)
    bvp_gap = float(np.abs(table.u - standing_profile(table.z)).max())
    wall = time.perf_counter() - t0

    ok = ode_res <= 1e-12 and bvp_gap <= 1e-6 and wall < 1.0
    _record(1, "standing profile", ok,
            f"ode residual {ode_res:.2e} (<=1e-12), bvp gap {bvp_gap:.2e} "
            f"(<=1e-6), {wall:.2f}s (<1s)")


def test_criterion_2_curvature_flow_oracle():
    t0 = time.perf_counter()
    p = HaptoParams(eps=0.05, lam=1.0, alpha=1.0, chi=ChiSpec.constant())
    r_start = 0.25
    grid = Grid.unit_square(256)
    s0 = init_levelset(circle_polyline((0.5, 0.5), r_start, n=2048), grid,
                       ScalarField.full(grid, 1.0),
                       ScalarField.full(grid, 0.0), d0=0.04)
    t_end = (r_start**2 - (0.2 * r_start)**2) / 2
    times = tuple(t_end * k / 8 for k in range(1, 9))
    snaps = run_sharp(s0, p, t_end, snapshot_times=times, evolve_fields=False)
    worst = 0.0
    for snap in snaps[1:]:
        exact = math.sqrt(r_start**2 - 2 * snap.t)
        worst = max(worst, abs(_fitted_radius(snap.phi) - exact) / exact)
    wall = time.perf_counter() - t0

    ok = worst <= 0.01 and wall < 60.0
    _record(2, "curvature-flow oracle", ok,
            f"worst radius error {worst:.2%} (<=1%) down to 0.2 R0, "
            f"{wall:.0f}s (<60s)")


def _generation_cfg(eps: float) -> StudyConfig:
    return StudyConfig(ShapeSpec("circle", (0.5, 0.5), 0.4),
                       BASE_V0, BASE_M0,
                       width=0.15, d0=0.02, smooth_interior=True,
                       t_end=generation_time(eps), n_snapshots=1)


def test_criterion_3_interface_generation():
    eta = 0.1
    # fit the qualifying-set constant on the coarsest case, then freeze it
    snaps_coarse, _ = diffuse_run(_generation_cfg(0.04), 0.04)
    m0_frozen = fit_M0(snaps_coarse, snaps_coarse[0].u, 0.04, eta,
                       candidates=range(1, 11))

    details, ok = [], True
    for eps in (0.04, 0.02, 0.01):
        t0 = time.perf_counter()
        snaps = snaps_coarse if eps == 0.04 \
            else diffuse_run(_generation_cfg(eps), eps)[0]
        wall = time.perf_counter() - t0
        u0 = snaps[0].u
        rep = check_generation(snaps, u0, eps, eta, m0_frozen)
        n_up = int(np.sum(u0.values >= 0.5 + m0_frozen * eps))
        n_lo = int(np.sum(u0.values <= 0.5 - m0_frozen * eps))
        viol = (rep.violations_range + rep.violations_upper
                + rep.violations_lower)
        ok = ok and viol == 0 and n_up > 0 and n_lo > 0 and wall < 300.0
        details.append(f"eps={eps}: {viol} violations on "
                       f"{n_up}/{n_lo} qualifying points, {wall:.0f}s")
    _record(3, "interface generation", ok,
            f"M0={m0_frozen} frozen from coarsest fit; " + "; ".join(details))


@pytest.fixture(scope="module")
def study_record():
    cfg = StudyConfig(ShapeSpec("circle", (0.5, 0.5), 0.25),
                      BASE_V0, BASE_M0, t_end=0.01, n_snapshots=4,
                      prep_shift=1.0)
    t0 = time.perf_counter()
    rec = convergence_study(cfg, [0.04, 0.02, 0.01])
    return rec, time.perf_counter() - t0


def test_criterion_4_interface_localization(study_record):
    rec, wall = study_record
    d = rec.interface_distance
    decreasing = all(b < a for a, b in zip(d, d[1:]))
    ok = decreasing and 0.7 <= rec.interface_slope <= 1.3 and wall < 1200.0
    _record(4, "interface localization", ok,
            f"sup distances {[f'{x:.4f}' for x in d]} decreasing, "
            f"slope {rec.interface_slope:.2f} (in [0.7, 1.3]), "
            f"{wall:.0f}s (<20min)")


def test_criterion_5_field_convergence(study_record):
    rec, _ = study_record
    ok = True
    parts = []
    for name, gaps in (("m", rec.m_gap), ("v", rec.v_gap)):
        mono = all(b < a for a, b in zip(gaps, gaps[1:]))
        ratio = gaps[-1] / gaps[0]
        ok = ok and mono and ratio <= 0.6
        parts.append(f"{name}-gap {[f'{g:.4f}' for g in gaps]} "
                     f"ratio {ratio:.2f}")
    _record(5, "field convergence", ok,
            "; ".join(parts) + " (monotone, final/initial <= 0.6)")


def test_criterion_6_invariants_and_bracket():
    # (i) a priori bounds along a representative trajectory, and
    # (ii) pointwise monotone decay of v
    cfg = StudyConfig(ShapeSpec("circle", (0.5, 0.5), 0.25),
                      BASE_V0, BASE_M0, t_end=0.01, n_snapshots=10)
    snaps, p = diffuse_run(cfg, 0.04)
    bounds_ok = True
    try:
        for s in snaps:
            s.check_invariants(p, tol=1e-8)
    except Exception:
        bounds_ok = False
    v_mono = all(
        np.all(b.v.values <= a.v.values + 1e-12)
        for a, b in zip(snaps, snaps[1:])
    )

    # (iii) monotone response of the enzyme/conditioner pair to ordered
    # occupancy histories: larger u gives larger m and smaller v
    rng = np.random.default_rng(7)
    grid = Grid.unit_square(32)
    v0 = BASE_V0.evaluate(grid)
    m0 = BASE_M0.evaluate(grid)
    pair_violations = 0
    for _ in range(20):
        i, j = rng.integers(0, 4, size=2)
        hi_field = ScalarField.from_function(
            grid, lambda x, y: 0.5 + 0.3 * rng.uniform()
            * np.cos(i * np.pi * x) * np.cos(j * np.pi * y))
        lo_field = ScalarField(grid, rng.uniform(0.2, 0.9) * hi_field.values)
        results = []
        for u in (lo_field, hi_field):
            _, vs, ms = solve_vm_for_u([0.0, 0.01], [u, u], p, v0, m0)
            results.append((vs[-1].values, ms[-1].values))
        (v_lo, m_lo), (v_hi, m_hi) = results
        if np.any(m_lo > m_hi + 1e-12) or np.any(v_hi > v_lo + 1e-12):
            pair_violations += 1

    # (iv) the diffuse solution stays between the moving envelopes
    c = envelope_constants(T=0.01, d0=0.06, eps0=0.01, K=1.5)
    rep = bracket_check(cfg, 0.01, c)

    ok = bounds_ok and v_mono and pair_violations == 0 and rep.passed
    _record(6, "invariants and bracket", ok,
            f"bounds {'ok' if bounds_ok else 'violated'} (tol 1e-8), "
            f"v monotone {v_mono}, {pair_violations}/20 ordered-pair "
            f"violations, bracket worst "
            f"{max(rep.worst_below, rep.worst_above):.2e} vs slack "
            f"{min(rep.slacks):.2e}+q(t)")


def test_criterion_7_envelope_inequalities():
    c = envelope_constants(T=0.01, d0=0.06, eps0=0.01, K=1.5)

    z = np.linspace(-20.0, 20.0, 200_001)
    u = standing_profile(z)
    coercive = (-standing_profile_derivative(z) - c.sigma * f_prime(u)
                - 4.0 * c.sigma * c.beta)
    coercive_min = float(coercive.min())

    elt = math.exp(c.L * c.T)
    feasible = (c.eps0**2 * c.L * elt <= 1.0
                and elt + c.K <= c.d0 / (2.0 * c.eps0))

    ts = np.linspace(0.0, c.T, 500)
    ps = [envelope_p_q(t, c.eps0, c)[0] for t in ts]
    p_ok = min(ps) >= c.K - 1.0 and max(ps) <= c.d0 / (2.0 * c.eps0)

    # residual of one reference step measured against the logged slack
    eps = 0.04
    cfg = StudyConfig(ShapeSpec("circle", (0.5, 0.5), 0.25),
                      BASE_V0, BASE_M0, t_end=0.005, n_snapshots=1)
    snaps, p = diffuse_run(cfg, eps)
    s1 = snaps[-1]
    w = chi_gradient(s1.v, p.chi)
    dt = dt_max(p, s1.u.grid, w)
    s2 = step_diffuse(s1, p, dt, w)
    u_t = ScalarField(s1.u.grid, (s2.u.values - s1.u.values) / dt)
    res = residual_Lv(s1.u, s1.v, u_t, p.chi, eps)
    slack = residual_slack(s1.u.grid.h, dt, eps)
    res_max = float(np.abs(res.values).max())

    ok = coercive_min >= 0.0 and feasible and p_ok and res_max <= slack
    _record(7, "envelope inequalities", ok,
            f"coercivity margin {coercive_min:.3e} (>=0), feasibility "
            f"{'ok' if feasible else 'violated'}, shift bounds "
            f"{'ok' if p_ok else 'violated'}, residual {res_max:.2f} "
            f"<= slack {slack:.2f}")


def test_criterion_8_determinism_and_refinement(tmp_path):
    import json

    blobs = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps({"kind": "diffuse", "eps": 0.1,
                                    "t_end": 1e-3, "n_snapshots": 2}))
        out, _ = run_experiment(parse_config(path), out_dir=tmp_path / tag)
        files = sorted(f for f in out.iterdir() if f.name != "manifest.json")
        blobs.append(b"".join(f.read_bytes() for f in files))
    identical = blobs[0] == blobs[1]

    order, diffs = refinement_order(0.1, 5e-4, 32)

    ok = identical and order >= 1.0
    _record(8, "determinism and refinement", ok,
            f"outputs byte-identical: {identical}, refinement order "
            f"{order:.2f} (>=1), sup diffs {[f'{d:.2e}' for d in diffs]}")
