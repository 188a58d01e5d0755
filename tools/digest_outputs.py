"""Print SHA-256 digests of haptolab's outputs, to show that a change
leaves them bitwise identical.

    python3 tools/digest_outputs.py

Run from the root of a source checkout; haptolab is imported from its
`src/`. For each benchmark workload (bench/workloads.py, used as is) it
runs one first solve at seed 1, as the benchmark does, and hashes every
snapshot's t and fields: phi or u, then v, m and int_m. It then runs the
CLI's `simulate-sharp` and `compare` on small circle configs,
`simulate-diffuse` on a circle with constant chi (no drift) and on one with
a shifted layer (prep_shift), `simulate-diffuse` and `simulate-sharp` on a
star, `generation` on a smooth-interior circle, and `simulate-sharp` and
`simulate-diffuse` on two configs whose t_end n/n is not t_end, and hashes
every artifact they write except manifest.json, which holds the wall time.
It hashes the differences that `refinement_order(0.1, 5e-4, 32)` returns.
It runs `run_sharp` on a front of two components with linear chi
(`two_front_digest`), and last hashes the floats of a small
`bracket_check` (`bracket_digest`) and of a small `convergence_study`
(`convergence_digest`). Two checkouts whose outputs agree print the same
lines.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

STAR = {"kind": "star", "center": [0.48, 0.53], "r0": 0.24, "amp": 0.04,
        "k": 5}
CLI_CONFIGS = {
    "simulate-sharp": {"kind": "sharp", "eps": 0.05, "t_end": 0.004,
                       "n_snapshots": 2, "n_sharp": 64,
                       "v0": {"constant": 1.0, "modes": [[1, 1, 0.2]]}},
    "compare": {"kind": "compare", "eps": 0.05, "t_end": 0.004,
                "n_snapshots": 2, "n_sharp": 128,
                "chi": {"variant": "constant", "coeffs": []}},
    "simulate-diffuse constant-chi": {"kind": "diffuse", "eps": 0.1,
                                      "t_end": 0.002, "n_snapshots": 2,
                                      "chi": {"variant": "constant"}},
    "simulate-diffuse star": {"kind": "diffuse", "eps": 0.1, "t_end": 0.002,
                              "n_snapshots": 2, "shape": STAR},
    "simulate-sharp star": {"kind": "sharp", "eps": 0.05, "t_end": 0.002,
                            "n_snapshots": 2, "n_sharp": 64, "shape": STAR},
    "simulate-diffuse prep_shift": {"kind": "diffuse", "eps": 0.1,
                                    "t_end": 0.002, "n_snapshots": 2,
                                    "prep_shift": 0.5},
    "generation smooth_interior": {"kind": "generation", "eps": 0.1,
                                   "t_end": 0.002, "n_snapshots": 2,
                                   "width": 0.1, "smooth_interior": True},
    # 0.003 * 3 / 3 and 0.03 * 11 / 11 both miss t_end by an ulp
    "simulate-sharp t_end ulp": {"kind": "sharp", "eps": 0.05,
                                 "t_end": 0.003, "n_snapshots": 3,
                                 "n_sharp": 64},
    "simulate-diffuse t_end ulp": {"kind": "diffuse", "eps": 0.1,
                                   "t_end": 0.03, "n_snapshots": 11},
}


def state_digest(states) -> str:
    sha = hashlib.sha256()
    for s in states:
        first = s.phi if hasattr(s, "phi") else s.u
        sha.update(np.float64(s.t).tobytes())
        for f in (first, s.v, s.m, s.int_m):
            sha.update(np.ascontiguousarray(f.values).tobytes())
    return sha.hexdigest()


def workload_digest(name: str) -> str:
    from workloads import WORKLOADS
    wl = WORKLOADS[name](1)
    return state_digest(wl.solve(wl.setup(), first=True))


def two_front_digest() -> str:
    """run_sharp on two disjoint clamped circles at n = 128, radius 0.12
    about (0.3, 0.3) and 0.1 about (0.7, 0.7), with linear chi and
    v0 = 1 + 0.2 cos(pi x) cos(pi y), so the upwind drift acts on both
    loops. phi is scaled by 2, so the first step's front pass redistances
    both loops; then about 200 steps to t = 2e-3, one snapshot between."""
    from haptolab.diffuse import HaptoParams
    from haptolab.grid import Grid, ScalarField
    from haptolab.kernel import ChiSpec
    from haptolab.sharp import SharpState, _clamp, run_sharp
    grid = Grid.unit_square(128)
    X, Y = grid.meshgrid()
    d0 = 0.04
    dist = np.minimum(np.hypot(X - 0.3, Y - 0.3) - 0.12,
                      np.hypot(X - 0.7, Y - 0.7) - 0.1)
    phi = ScalarField(grid, 2.0 * _clamp(dist, d0))
    v0 = ScalarField(grid, 1.0 + 0.2 * np.cos(np.pi * X) * np.cos(np.pi * Y))
    s0 = SharpState(phi, v0, ScalarField.full(grid, 0.3),
                    ScalarField.full(grid, 0.0), 0.0, v0, d0)
    p = HaptoParams(eps=0.05, lam=1.0, alpha=1.0, chi=ChiSpec.identity())
    return state_digest(run_sharp(s0, p, 2e-3, snapshot_times=(1e-3,)))


def bracket_digest() -> str:
    """bracket_check at eps = 0.025 (the diffuse grid at n = 160) against a
    sharp reference at n = 64, to t = 2e-3 with two snapshots. The
    envelope constants (d0 = 0.12, K = 1.1) are feasible at that eps, and
    the envelope's distance field, the sharp front's signed distance on
    the diffuse grid clamped at 3 d0, saturates at the corners. Hashes the
    times, the worst gaps, the slacks and the verdict."""
    from haptolab.analysis import bracket_check
    from haptolab.diffuse import CosineSpec, ShapeSpec, StudyConfig
    from haptolab.kernel import envelope_constants
    cfg = StudyConfig(ShapeSpec("circle", (0.5, 0.5), 0.25),
                      CosineSpec(1.0, ((1, 1, 0.2),)),
                      CosineSpec(0.3, ((2, 0, 0.1),)),
                      t_end=2e-3, n_snapshots=2, n_sharp=64)
    c = envelope_constants(T=0.01, d0=0.12, eps0=0.025, K=1.1)
    rep = bracket_check(cfg, 0.025, c)
    floats = np.array([*rep.times, rep.worst_below, rep.worst_above,
                       *rep.slacks, rep.passed], dtype=float)
    return hashlib.sha256(floats.tobytes()).hexdigest()


def convergence_digest() -> str:
    """convergence_study at eps 0.1 and 0.05 (the diffuse grids at n = 40
    and 80) against a sharp reference at n = 64, to t = 2e-3 with four
    snapshots. Hashes the times, the per-snapshot front distances, the
    field gaps and the fitted slope and intercept."""
    from haptolab.analysis import convergence_study
    from haptolab.diffuse import CosineSpec, ShapeSpec, StudyConfig
    cfg = StudyConfig(ShapeSpec("circle", (0.5, 0.5), 0.25),
                      CosineSpec(1.0, ((1, 1, 0.2),)),
                      CosineSpec(0.3, ((2, 0, 0.1),)),
                      t_end=2e-3, n_sharp=64)
    rec = convergence_study(cfg, [0.1, 0.05])
    floats = np.array([*rec.times, *np.ravel(rec.per_time_distance),
                       *rec.interface_distance, *rec.v_gap, *rec.m_gap,
                       rec.interface_slope, rec.interface_intercept],
                      dtype=float)
    return hashlib.sha256(floats.tobytes()).hexdigest()


def cli_digests(name: str, config: dict) -> list[tuple[str, str]]:
    from haptolab.cli import main
    command = name.split()[0]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()):   # the out path
            code = main([command, "--config", str(cfg), "--out", str(out)])
        if code != 0:
            sys.exit(f"{command} exited {code}")
        return [(f.name, hashlib.sha256(f.read_bytes()).hexdigest())
                for f in sorted(out.iterdir()) if f.name != "manifest.json"]


def main() -> None:
    from workloads import WORKLOADS
    for name in WORKLOADS:
        print(f"{name} seed 1: {workload_digest(name)}", flush=True)
    for name, config in CLI_CONFIGS.items():
        for fname, digest in cli_digests(name, config):
            print(f"{name} {fname}: {digest}", flush=True)
    from haptolab.analysis import refinement_order
    diffs = np.array(refinement_order(0.1, 5e-4, 32)[1])
    print("refinement_order(0.1, 5e-4, 32) diffs: "
          f"{hashlib.sha256(diffs.tobytes()).hexdigest()}", flush=True)
    print(f"run_sharp two fronts: {two_front_digest()}", flush=True)
    print(f"bracket_check eps 0.025: {bracket_digest()}", flush=True)
    print(f"convergence_study eps 0.1, 0.05: {convergence_digest()}",
          flush=True)


if __name__ == "__main__":
    main()
