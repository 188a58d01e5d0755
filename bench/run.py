"""haptolab benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; haptolab is imported from its
`src/`. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

Untraced (--trace 0): the run's own cold set-up, then whole solves from the
same initial state until at least two have run and S seconds have passed.
The first solve is a warm-up; solve_s is the median wall time of the rest.
setup_s is the median of SETUPS cold set-ups: the run's own and SETUPS - 1
more, each in a fresh child process (--setup-only) that exits after it, so
that every set-up timed is the first in its process.
peak_rss_mb is the process's peak resident set at the end. Every solve's
output is checked (see checks.py) and must equal the first solve bitwise.

Traced (--trace 1): a traced cold set-up, an untraced warm-up solve, an
untraced solve and a traced solve; it reports the per-layer metrics of the
set-up plus the traced solve (tracer.py) and trace.overhead_s, the traced
solve's wall time minus the untraced one's. The run is incorrect if the dt
arguments at the stepper boundary do not sum to t_end, or if the step count
differs from the advance_enzyme calls on a workload whose fields evolve.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import Tracer, metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS = 3                   # cold set-ups per run; setup_s is their median


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one cold set-up, print it as JSON and exit")
    return ap.parse_args(argv)


def import_haptolab_from_checkout():
    """Make `import haptolab` resolve to this checkout's src/ and nowhere
    else; exit non-zero when the checkout has no haptolab sources."""
    if not (SRC / "haptolab" / "__init__.py").is_file():
        sys.exit(f"no haptolab sources under {SRC}")
    sys.path.insert(0, str(SRC))


class Solver:
    """Runs and checks the solves of one workload, counting outcomes."""

    def __init__(self, wl, state):
        self.wl, self.state = wl, state
        self.attempted = self.failed = 0
        self.first_digest = None
        self.errors = []          # check failures: the run is incorrect

    def solve(self) -> float | None:
        """One timed solve; returns its wall time, or None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.wl.solve(self.state, first=self.first_digest is None)
        except Exception as exc:  # a solver error is a failed operation
            self.failed += 1
            print(f"solve {self.attempted} failed: {exc!r}", file=sys.stderr)
            return None
        took = time.perf_counter() - start
        print(f"solve {self.attempted}: {took:.4f} s", file=sys.stderr)
        snaps = self.wl.snapshots(out)
        del out
        try:
            self.wl.check(snaps)
            if self.first_digest is None:
                self.first_digest = checks.digest(snaps)
            else:
                checks.check_same_as_first(self.first_digest, snaps)
        except checks.CheckFailure as exc:
            self.errors.append(f"solve {self.attempted}: {exc}")
        return took


def timed_setup(wl):
    start = time.perf_counter()
    state = wl.setup()
    return state, time.perf_counter() - start


def cold_setup_in_child(args) -> float:
    """One cold set-up of the same workload and seed in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"set-up child exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def untraced(wl, args) -> tuple[Solver, dict]:
    state, own = timed_setup(wl)
    setups = [own] + [cold_setup_in_child(args) for _ in range(SETUPS - 1)]
    print("set-ups: " + " ".join(f"{t:.4f}" for t in setups) + " s",
          file=sys.stderr)
    solver = Solver(wl, state)
    times = []
    begin = time.perf_counter()
    while (solver.attempted < 2
           or time.perf_counter() - begin < args.seconds):
        took = solver.solve()
        if took is not None:
            times.append(took)
        if solver.errors:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if len(times) < 2 and not solver.errors:
        sys.exit("fewer than two solves completed; nothing to time")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (statistics.median(times[1:] or times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return solver, metrics


def traced(wl) -> tuple[Solver, dict]:
    import haptolab.analysis  # noqa: F401  (imports every traced module)
    with Tracer() as tr:
        state = wl.setup()
    solver = Solver(wl, state)
    solver.solve()                     # warm-up
    plain = solver.solve()
    with tr:
        traced_s = solver.solve()
    if plain is None or traced_s is None:
        sys.exit("a solve of the traced run failed; nothing to compare")
    metrics = tr.metrics()
    metrics["trace.overhead_s"] = traced_s - plain

    solver.errors += tr.totals_errors(wl.t_end, wl.evolves_fields)
    return solver, {k: (metrics[k], u) for k, u in metric_units().items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    # numpy and scipy import time is not program cost: import the scipy
    # modules haptolab uses before the set-up clock starts (checks.py has
    # imported numpy, scipy.ndimage and scipy.special). haptolab's own
    # import is timed inside the set-up.
    import scipy.linalg  # noqa: F401
    import scipy.spatial  # noqa: F401
    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    if not args.seconds > 0:
        sys.exit("--seconds must be positive")
    import_haptolab_from_checkout()
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(wl)[1]}))
        return 0
    if args.trace:
        solver, metrics = traced(wl)
    else:
        solver, metrics = untraced(wl, args)
    for e in solver.errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not solver.errors,
        "attempted": solver.attempted,
        "failed": solver.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
