"""Command-line laboratory: configuration parsing, experiment orchestration,
and deterministic artifact emission.

Every experiment is described by a JSON config and writes an isolated output
directory containing manifest.json (a verbatim echo of the normalized config
plus versions and wall time), metric CSVs, and report JSONs. Floats are
written with 17 significant digits so files round-trip losslessly.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    StudyConfig,
    check_generation,
    convergence_study,
    diffuse_run,
    generation_time,
    sharp_reference,
)
from .curves import extract_level_curve, write_curve
from .diffuse import CosineSpec, ShapeSpec
from .errors import ConfigError, HaptolabError
from .grid import write_snapshot
from .kernel import ChiSpec, is_number, solve_profile_bvp, standing_profile

# the study's own keys default to StudyConfig's field values, and the nested
# objects to their records' (m0 to constant 0.3); a nested object in a
# config is merged over its default, so the keys it leaves out keep theirs
_STUDY = {f.name: f.default for f in fields(StudyConfig)
          if f.default is not MISSING}
_NESTED = {
    "chi": {"variant": "linear", "coeffs": []},
    "shape": ShapeSpec().to_dict(),
    "v0": CosineSpec().to_dict(),
    "m0": CosineSpec(0.3).to_dict(),
}
_DEFAULTS = {
    "kind": None,
    "eps": 0.04,
    "eps_list": None,
    **_STUDY,
    **_NESTED,
    "eta": 0.1,
    "M0": 2.0,
    "out": "runs",
}


@dataclass
class RunConfig:
    kind: str
    raw: dict
    study: StudyConfig


def normalize_config(data: dict) -> dict:
    """Fill in the defaults and check what no record owns: the keys, the
    run's kind, eps, eta, M0, a positive t_end, compare's circle and
    constant chi, and eps_list, which only convergence runs may give. The
    records check the rest (parse_config)."""
    unknown = sorted(set(data) - set(_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    merged = {**_DEFAULTS, **data}
    kinds = dict(_COMMANDS.values())
    if merged["kind"] not in kinds:
        raise ConfigError(
            f"kind must be one of {', '.join(kinds)}, got {merged['kind']!r}"
        )
    for key, default in _NESTED.items():
        if not isinstance(merged[key], dict):
            raise ConfigError(f"{key} must be a JSON object")
        unknown = sorted(set(merged[key]) - set(default))
        if unknown:
            raise ConfigError(f"unknown {key} keys: {', '.join(unknown)}")
        merged[key] = {**default, **merged[key]}
    for key in ("eps", "t_end", "M0", "eta"):
        if not (is_number(merged[key]) and merged[key] > 0):
            raise ConfigError(f"{key} must be a positive number")
    if merged["eta"] >= 0.25:
        raise ConfigError("eta must lie in (0, 1/4)")
    if merged["kind"] == "compare" and (
            merged["chi"]["variant"] != "constant"
            or merged["shape"]["kind"] != "circle"):
        raise ConfigError("compare scores against the curvature-flow radius "
                          "law, so it needs a circle and constant chi")
    if merged["kind"] == "convergence":
        lst = merged["eps_list"]
        if not (isinstance(lst, list) and lst and all(
                is_number(e) and e > 0 for e in lst)):
            raise ConfigError("convergence runs need eps_list, a list of "
                              "positive numbers")
        if any(b >= a for a, b in zip(lst, lst[1:])):
            raise ConfigError("eps_list must be strictly decreasing")
    elif merged["eps_list"] is not None:
        raise ConfigError(f"eps_list is read by convergence runs only, "
                          f"not by kind {merged['kind']}")
    return merged


def parse_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    raw = normalize_config(data)
    # the run's records, built once; a value they reject is a config error
    try:
        study = StudyConfig(
            shape=ShapeSpec.from_dict(raw["shape"]),
            v0_spec=CosineSpec.from_dict(raw["v0"]),
            m0_spec=CosineSpec.from_dict(raw["m0"]),
            chi=ChiSpec.from_dict(raw["chi"]),
            **{key: raw[key] for key in _STUDY},
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(kind=raw["kind"], raw=raw, study=study)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def write_csv(path, header: list[str], rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_manifest(out: Path, cfg: RunConfig, wall: float):
    manifest = {
        "config": cfg.raw,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "wall_seconds": round(wall, 3),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


# --- experiment pipelines -------------------------------------------------

def _run_profile(cfg: RunConfig, out: Path):
    z = np.linspace(-20.0, 20.0, 4001)
    write_csv(out / "profile.csv", ["z", "u"],
              zip(z, standing_profile(z)))
    table = solve_profile_bvp(half_width=12.0, n=2400)
    gap = float(np.abs(table.u - standing_profile(table.z)).max())
    report = {"bvp_sup_gap": gap, "bvp_points": len(table.z)}
    (out / "profile_report.json").write_text(json.dumps(report, indent=2) + "\n")


def _run_diffuse(cfg: RunConfig, out: Path):
    snaps, _ = diffuse_run(cfg.study, cfg.raw["eps"])
    rows = []
    for i, s in enumerate(snaps):
        write_snapshot(out / f"u_{i:03d}.csv", s.u, time=s.t, name="u")
        rows.append((s.t, s.u.values.min(), s.u.values.max(),
                     s.u.values.sum() * s.u.grid.h**2, s.v.values.max()))
    write_csv(out / "metrics.csv",
              ["t", "u_min", "u_max", "u_mass", "v_max"], rows)


def _run_sharp(cfg: RunConfig, out: Path):
    snaps = sharp_reference(cfg.study, cfg.study.params(cfg.raw["eps"]))
    rows = []
    for i, s in enumerate(snaps):
        curve = extract_level_curve(s.phi, 0.0)
        write_curve(out / f"interface_{i:03d}.csv", curve)
        rows.append((s.t, curve.area(), curve.length()))
    write_csv(out / "metrics.csv", ["t", "area", "length"], rows)


def _run_compare(cfg: RunConfig, out: Path):
    """Sharp circle under constant chi against the exact shrinking radius."""
    r0 = cfg.study.shape.r0
    snaps = sharp_reference(cfg.study, cfg.study.params(cfg.raw["eps"]))
    rows = []
    for s in snaps:
        curve = extract_level_curve(s.phi, 0.0)
        c = curve.points.mean(axis=0)
        r_num = float(np.hypot(*(curve.points - c).T).mean())
        r_exact = math.sqrt(max(r0**2 - 2 * s.t, 0.0))
        rows.append((s.t, r_num, r_exact, abs(r_num - r_exact)))
    write_csv(out / "radius.csv", ["t", "r_numeric", "r_exact", "gap"], rows)


def _run_generation(cfg: RunConfig, out: Path) -> bool:
    eps = cfg.raw["eps"]
    t_star = generation_time(eps)
    snaps, _ = diffuse_run(cfg.study, eps, extra_times=(t_star,))
    u0 = snaps[0].u
    rep = check_generation(snaps, u0, eps, cfg.raw["eta"], cfg.raw["M0"])
    (out / "generation.json").write_text(rep.to_json() + "\n")
    return rep.passed


def _run_convergence(cfg: RunConfig, out: Path):
    rec = convergence_study(cfg.study, cfg.raw["eps_list"])
    (out / "convergence.json").write_text(rec.to_json() + "\n")
    write_csv(out / "convergence.csv",
              ["eps", "interface_distance", "v_gap", "m_gap"],
              zip(rec.eps_list, rec.interface_distance, rec.v_gap, rec.m_gap))


# subcommand -> (the config kind it runs, its pipeline), in --help order
_COMMANDS = {
    "simulate-diffuse": ("diffuse", _run_diffuse),
    "simulate-sharp": ("sharp", _run_sharp),
    "compare": ("compare", _run_compare),
    "generation": ("generation", _run_generation),
    "convergence": ("convergence", _run_convergence),
    "profile": ("profile", _run_profile),
}


def run_experiment(cfg: RunConfig, out_dir=None) -> tuple[Path, bool]:
    """Execute the configured pipeline; returns the output directory and
    whether any built-in acceptance check passed (True when none apply)."""
    root = out_dir or os.environ.get("HAPTOLAB_OUT") or cfg.raw["out"]
    out = Path(root)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    passed = dict(_COMMANDS.values())[cfg.kind](cfg, out)
    _write_manifest(out, cfg, time.perf_counter() - start)
    return out, passed is not False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="haptolab",
        description="Haptotaxis front laboratory: diffuse and sharp "
                    "solvers with verification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--assert", dest="assert_mode", action="store_true",
                       help="exit 4 if the run's built-in check fails")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        expected = _COMMANDS[args.command][0]
        if cfg.kind != expected:
            raise ConfigError(
                f"config kind {cfg.kind!r} does not match "
                f"subcommand {args.command!r}"
            )
        out, passed = run_experiment(cfg, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HaptolabError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    if args.assert_mode and not passed:
        print("acceptance check failed (see report JSON)", file=sys.stderr)
        return 4
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
