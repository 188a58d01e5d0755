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
star, and `generation` on a smooth-interior circle, and hashes every
artifact they write except manifest.json, which holds the wall time. Last
it hashes the differences that `refinement_order(0.1, 5e-4, 32)` returns.
Two checkouts whose outputs agree print the same lines.
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
                "chi": {"variant": "constant", "coeffs": [],
                        "v_max": 10.0}},
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


if __name__ == "__main__":
    main()
