"""Run one workload over several seeds and print each metric's spread.

    python3 bench/spread.py --workload NAME [--seeds 1 2 3 ...]
                            [--seconds S] [--trace 0|1]

Each seed runs bench/run.py in its own process, one after another. For every
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the quartile distance as a share of the median; with --trace 1 it also marks
the metrics that read the same on every seed. The runs' JSON lines and the
summary are written to bench/records/ so that sets taken at different times
can be compared.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"],
                     "median": med, "q1": q1, "q3": q3,
                     "iqr_share": (q3 - q1) / med if med else 0.0,
                     "same_on_every_seed": len(set(vals)) == 1}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("need at least two seeds for quartiles")
    seconds = args.seconds or json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    started = time.strftime("%Y%m%dT%H%M%S")
    results = []
    for seed in args.seeds:
        r = run_once(args.workload, seed, seconds, args.trace)
        results.append(r)
        print(json.dumps({"seed": seed, **r}), flush=True)
    summary = summarise(results)
    shares = {r["failed"] / r["attempted"] for r in results}

    print(f"\n{args.workload}, trace {args.trace}, {len(results)} seeds, "
          f"{seconds} s runs, started {started}")
    print(f"correct on every seed: {all(r['correct'] for r in results)}; "
          f"failed shares: {sorted(shares)}")
    print(f"{'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s}")
    for name, s in summary.items():
        same = "  same on every seed" if s["same_on_every_seed"] else ""
        print(f"{name:48s} {s['median']:12.6g} {s['q1']:12.6g} "
              f"{s['q3']:12.6g} {s['iqr_share']:8.2%}{same}")

    records = HERE / "records"
    records.mkdir(exist_ok=True)
    path = records / f"{started}-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps({"workload": args.workload,
                                "trace": args.trace, "seconds": seconds,
                                "seeds": args.seeds, "runs": results,
                                "summary": summary}, indent=1))
    print(f"record: {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
