"""Tests of the benchmark's own checks.

    python3 bench/selftest.py

Each check is handed a real solver output, which must pass, and then that
output perturbed once, which must fail. The outputs come from the workload
classes themselves on smaller grids (n = 128 for the sharp solver, eps = 0.04
for the diffuse solver), so the whole script takes well under a minute. The
name keeps it out of the repository's pytest collection; it exits non-zero
if any case fails.
"""
from __future__ import annotations

import copy
import math
import sys
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailure  # noqa: E402
from tracer import Tracer  # noqa: E402


class SmallMCF(workloads.SharpMCF):
    n = 128
    t_end = 0.004


class SmallHaptotaxis(workloads.SharpHaptotaxis):
    n = 128


class SmallGeneration(workloads.DiffuseGeneration):
    eps = 0.04
    n = 100


def real_output(cls, seed=7):
    wl = cls(seed)
    state = wl.setup()
    return wl, wl.snapshots(wl.solve(state, first=False))


def perturbed(snaps, k, **changes):
    """A deep copy of snaps with snapshot k's fields transformed."""
    out = copy.deepcopy(snaps)
    for name, fn in changes.items():
        setattr(out[k], name, fn(getattr(out[k], name)))
    return out


def one_cell(i, j, fn):
    def apply(a):
        a = a.copy()
        a[i, j] = fn(a[i, j])
        return a
    return apply


CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def must_fail(check, *args, **kwargs):
    try:
        check(*args, **kwargs)
    except CheckFailure:
        return
    raise AssertionError(f"{check.__name__} accepted a perturbed output")


@case
def radius_law_and_frozen_fields():
    wl, snaps = real_output(SmallMCF)
    wl.check(snaps)
    r = math.sqrt(wl.r0 ** 2 - 2 * snaps[2].t)
    must_fail(checks.check_radius_law,
              perturbed(snaps, 2, level=lambda a: a + 0.02 * r), wl.r0)
    must_fail(checks.check_frozen_fields,
              perturbed(snaps, 3, m=one_cell(5, 5, lambda x: x + 1e-12)))
    must_fail(checks.check_matrix_decay,
              perturbed(snaps, 1, v=one_cell(5, 5, lambda x: x + 1e-9)),
              wl.v0)
    must_fail(checks.check_final_time,
              perturbed(snaps, -1, t=lambda t: t * (1 + 1e-12)), wl.t_end)


@case
def front_area_decay_and_enzyme_balance():
    wl, snaps = real_output(SmallHaptotaxis)
    wl.check(snaps)
    h = 1.0 / wl.n
    must_fail(checks.check_area_rate,
              perturbed(snaps, 2, level=lambda a: a + 0.25 * h),
              -2 * math.pi, wl.area_rate_tol)
    c = np.arange(wl.n) + 0.5
    blob = np.hypot(*np.meshgrid(c - 10, c - 10, indexing="ij")) * h - 0.02
    must_fail(checks.check_single_loop_clear,
              perturbed(snaps, 1, level=lambda a: np.minimum(a, blob)),
              4 * wl.d0)
    must_fail(checks.check_single_loop_clear,
              perturbed(snaps, 1, level=lambda a: a - 0.12), 4 * wl.d0)
    last = snaps[-2].v[40, 40]
    must_fail(checks.check_matrix_decay,
              perturbed(snaps, -1, v=one_cell(40, 40, lambda x: last + 1e-15)),
              wl.v0)
    must_fail(checks.check_enzyme_balance,
              perturbed(snaps, 2, m=lambda a: a + 1e-5), rel_tol=0.01)


@case
def generation_at_t_star():
    wl, snaps = real_output(SmallGeneration)
    wl.check(snaps)
    u0 = checks.smooth_disc_profile(wl.n, wl.centre, wl.r0, wl.width)
    i, j = np.argwhere(u0 >= 0.5 + wl.M0 * wl.eps)[0]
    args = (wl.eps, wl.eta, wl.M0)
    must_fail(checks.check_generation, u0,
              one_cell(i, j, lambda x: 0.85)(snaps[-1].u), *args)
    i, j = np.argwhere(u0 <= 0.5 - wl.M0 * wl.eps)[0]
    must_fail(checks.check_generation, u0,
              one_cell(i, j, lambda x: 0.15)(snaps[-1].u), *args)
    must_fail(checks.check_generation, u0,
              one_cell(0, 0, lambda x: -0.11)(snaps[-1].u), *args)
    must_fail(checks.check_enzyme_balance,
              perturbed(snaps, 4, m=lambda a: a + 1e-4),
              rel_tol=0.01)
    wl.u0 = one_cell(50, 50, lambda x: x + 1e-9)(wl.u0)
    must_fail(wl.check, snaps)


def output_with(cls, module, name, replacement):
    """A real output of cls computed with module.name replaced by
    replacement(original): a solver whose drift is broken."""
    original = getattr(module, name)
    setattr(module, name, replacement(original))
    try:
        return real_output(cls)
    finally:
        setattr(module, name, original)


@case
def sharp_drift_removed_or_flipped():
    import haptolab.sharp as sharp
    wl, snaps = real_output(SmallHaptotaxis)
    checks.check_sharp_drift(snaps, wl.r0, workloads.AMP, wl.drift_tol)
    removed = lambda f: lambda phi, *a: np.zeros_like(phi)  # noqa: E731
    flipped = lambda f: lambda *a: -f(*a)  # noqa: E731
    for broken in (removed, flipped):
        wl, snaps = output_with(SmallHaptotaxis, sharp, "_upwind_advection",
                                broken)
        must_fail(checks.check_sharp_drift, snaps, wl.r0, workloads.AMP,
                  wl.drift_tol)
        must_fail(wl.check, snaps)


@case
def diffuse_advection_removed_or_flipped():
    import haptolab.diffuse as diffuse
    from haptolab.grid import ScalarField
    removed = lambda f: lambda u, w: ScalarField(  # noqa: E731
        u.grid, np.zeros_like(u.values))
    flipped = lambda f: lambda u, w: ScalarField(  # noqa: E731
        u.grid, -f(u, w).values)
    for broken in (removed, flipped):
        wl, snaps = output_with(SmallGeneration, diffuse,
                                "advective_divergence", broken)
        must_fail(checks.check_diffuse_drift, snaps, wl.r0, wl.width,
                  workloads.AMP)


@case
def bitwise_repeat():
    _, snaps = real_output(SmallMCF)
    first = checks.digest(snaps)
    checks.check_same_as_first(first, snaps)
    must_fail(checks.check_same_as_first, first,
              perturbed(snaps, 2, level=one_cell(
                  9, 9, lambda x: np.nextafter(x, np.inf))))


@case
def traced_totals():
    import haptolab.analysis  # noqa: F401  (imports every traced module)
    wl = SmallHaptotaxis(3)
    state = wl.setup()
    with Tracer() as tr:
        wl.solve(state, first=False)
    assert tr.totals_errors(wl.t_end, True) == [], \
        tr.totals_errors(wl.t_end, True)
    assert tr.calls["sharp.step_sharp"] > 0
    dropped = copy.deepcopy(tr)
    dropped.dts["sharp.step_sharp"].pop()
    assert dropped.totals_errors(wl.t_end, True), "lost dt not caught"
    dropped = copy.deepcopy(tr)
    dropped.calls["diffuse.advance_enzyme"] -= 1
    assert dropped.totals_errors(wl.t_end, True), "lost enzyme step missed"


def main() -> int:
    failed = 0
    for fn in CASES:
        try:
            fn()
            print(f"PASS {fn.__name__}")
        except Exception:
            failed += 1
            print(f"FAIL {fn.__name__}")
            traceback.print_exc()
    print(f"{len(CASES) - failed}/{len(CASES)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
